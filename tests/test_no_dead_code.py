"""Every module-level function and class of the package has a use, and so
does every public method and property of its classes.

A definition in ``src/heckeverify/`` must be referenced somewhere in
``src/`` outside its own body: a name, an attribute or an import.  A
method or property counts as public unless its name starts with an
underscore; dunders run by syntax and are not checked.  No definition
is exempt: a function that only the tests or the benchmark tracer call
does not belong in the package.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckeverify"


def _referenced_names(tree, skip=None):
    """Names used in ``tree`` as a name, an attribute or an import, outside ``skip``."""
    inside = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _definitions(tree):
    """(path, node) of each module-level def or class of ``tree``, and of each
    public method or property of its classes as ``Class.name``."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield "%s.%s" % (node.name, item.name), item


def unreferenced(sources):
    """(module, path) of each definition of ``sources`` (:func:`_definitions`)
    that no module references outside its own body.

    ``sources`` maps a module name to its source text.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    dead = []
    for module, tree in trees.items():
        for path, node in _definitions(tree):
            if not any(node.name in _referenced_names(other, node if name == module else None)
                       for name, other in trees.items()):
                dead.append((module, path))
    return dead


def test_every_definition_in_src_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(sources) == []


def test_the_check_sees_an_unused_helper():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef unused():\n    return used()\n",
        "b": "from .a import used\n\n\nclass Spare:\n    x = used()\n",
        "c": "def recursive(n):\n    return recursive(n - 1) if n else 0\n",
        "d": ("from .a import used\n\n\nclass Kept:\n"
              "    def __init__(self):\n        self.value = used()\n\n"
              "    def spare(self):\n        return self.value\n\n"
              "    def _private(self):\n        return 0\n\n\n"
              "Kept().value\n"),
    }
    assert unreferenced(sources) == [("a", "unused"), ("b", "Spare"), ("c", "recursive"),
                                     ("d", "Kept.spare")]
