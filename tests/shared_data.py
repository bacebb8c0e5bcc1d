"""Root data shared by the test modules, each built once per test process.

The rank-6 builds dominate tier-1 (E6 has 51,840 Weyl group elements and
takes over a second), so a module that needs a large datum asks here
instead of building its own, and only when a test first uses it.
"""

from functools import lru_cache

from heckeverify.root_datum import build_root_datum, cartan_matrix


@lru_cache(maxsize=None)
def shared_datum(family, rank):
    """The root datum of type (family, rank), built on first use."""
    return build_root_datum(cartan_matrix(family, rank))
