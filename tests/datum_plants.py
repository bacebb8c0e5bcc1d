"""Faults planted in the construction of a root datum, and the Cartan
matrices on which a wrong index convention shows.

Each plant stands in for a ``RootDatum`` method.  A test sets it with
``monkeypatch`` and builds its datum afterwards, so the fault is in the
datum from the start, as a fault of the builder would be.
"""

from heckeverify.root_datum import RootDatum, WeylElement, cartan_matrix


def rows_as_simple_roots(init):
    """RootDatum.__init__ with alpha_i read from row i of the Cartan matrix,
    not from column i: the wrong index convention."""
    def planted(datum, cartan):
        init(datum, cartan)
        datum.simple_roots = datum.cartan
        datum.identity = WeylElement(datum.rho, (), datum.simple_roots)
        datum._elements = {datum.rho: datum.identity}
    return planted


def positive_roots_changed(change):
    """RootDatum._compute_positive_roots with ``change`` applied to the
    sorted tuple of positive roots it makes."""
    compute = RootDatum._compute_positive_roots

    def planted(datum):
        compute(datum)
        datum.positive_roots = tuple(change(datum.positive_roots))
    return planted


def without(beta):
    """A change for :func:`positive_roots_changed`: drop the root beta."""
    return lambda roots: [gamma for gamma in roots if gamma != beta]


def negated(beta):
    """A change for :func:`positive_roots_changed`: put -beta for beta."""
    return lambda roots: [tuple(-c for c in gamma) if gamma == beta else gamma
                          for gamma in roots]


def moved_by(beta):
    """The first simple index i with <beta, alpha_i^v> != 0, that is, the
    first s_i that moves the root beta."""
    return min(i for i, c in enumerate(beta) if c)


def _relabel(cartan, perm):
    return [[cartan[p][q] for q in perm] for p in perm]


def _blocks(*parts):
    """The Cartan matrix of a reducible datum, one part after the other."""
    n, at, out = sum(map(len, parts)), 0, []
    for part in parts:
        out += [[0] * at + list(row) + [0] * (n - at - len(part)) for row in part]
        at += len(part)
    return out


_G2, _B3, _C3, _F4, _A1, _B2 = (cartan_matrix(family, rank) for family, rank in (
    ("G", 2), ("B", 3), ("C", 3), ("F", 4), ("A", 1), ("B", 2)))
# (matrix, the --type and --rank it relabels, if any).  With simple_roots
# read from rows instead of columns, diagram and display fail on each of
# these at every order, order 1 included.
RELABELLED = {
    "G2-transposed": ([list(col) for col in zip(*_G2)], ("G", "2")),
    "B3-permuted": (_relabel(_B3, [2, 0, 1]), ("B", "3")),
    "C3-permuted": (_relabel(_C3, [1, 2, 0]), ("C", "3")),
    "F4-reversed": (_relabel(_F4, [3, 2, 1, 0]), ("F", "4")),
    "A1+G2": (_blocks(_A1, _G2), None),
    "B2+A1-permuted": (_relabel(_blocks(_B2, _A1), [2, 0, 1]), None),
}
