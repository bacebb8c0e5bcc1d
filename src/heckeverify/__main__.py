"""``python -m heckeverify``: the same entry point as the ``heckeverify`` command."""

from .cli import main

if __name__ == "__main__":
    main()
