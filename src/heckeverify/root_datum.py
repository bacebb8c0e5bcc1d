"""
Finite root data from Cartan matrices.

Everything downstream works in the fundamental-weight basis of the weight
lattice: a weight x is a tuple of integers and the pairing with the i-th
simple coroot is just ``x[i]``.  The i-th simple root is the i-th *column*
of the Cartan matrix A (entries A[j][i] = <alpha_i, alpha_j^vee>), so the
simple reflection acts by

    s_i(x) = x - x[i] * alpha_i.

The Weyl group is enumerated by breadth-first search on words in the simple
reflections; elements are deduplicated by their action on rho = (1,...,1),
which is a regular weight and hence separates group elements.
"""

from operator import sub


class InvalidCartan(ValueError):
    """The input matrix violates the Cartan matrix axioms."""


class WeylTooLarge(RuntimeError):
    """Weyl group enumeration exceeded the configured bound."""


class WeylElement:
    """A Weyl group element with a stored reduced word and matrix action.

    Immutable by contract: nothing assigns to an element after it is built.
    Equality and hash go by ``key`` alone.
    """

    __slots__ = ("key", "word", "matrix")

    def __init__(self, key, word, matrix):
        self.key = key          # image of rho, canonical identifier
        self.word = word        # reduced word (simple indices)
        self.matrix = matrix    # n x n integer matrix, rows, acting on weight coords

    @property
    def length(self):
        return len(self.word)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.key == other.key

    def __repr__(self):
        if not self.word:
            return "e"
        return "s" + ".s".join(str(i + 1) for i in self.word)


def _mat_apply(m, x):
    return tuple(sum(row[k] * x[k] for k in range(len(x))) for row in m)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class RootDatum:
    """Root datum of a semisimple simply connected group, rank n.

    Built by :func:`build_root_datum`; immutable afterwards apart from
    :meth:`memo`, a store of derived values filled on first use, and
    ``rules``, the normal-form rules (:meth:`Rule.of`).  Threads may share
    a datum: two first uses of one key may each build the value, and the
    copies are equal.
    """

    def __init__(self, cartan, weyl_bound=10**6):
        cartan = tuple(tuple(int(c) for c in row) for row in cartan)
        n = len(cartan)
        if n == 0 or any(len(row) != n for row in cartan):
            raise InvalidCartan("matrix must be square and nonempty")
        for i in range(n):
            if cartan[i][i] != 2:
                raise InvalidCartan("diagonal entries must equal 2")
            for j in range(n):
                if i != j:
                    if cartan[i][j] > 0:
                        raise InvalidCartan("off-diagonal entries must be <= 0")
                    if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                        raise InvalidCartan("zero pattern must be symmetric")
        self.rank = n
        self.cartan = cartan
        # alpha_i as a weight: i-th column of the Cartan matrix
        self.simple_roots = tuple(
            tuple(cartan[j][i] for j in range(n)) for i in range(n)
        )
        self.rho = (1,) * n
        self._simple_matrices = tuple(self._reflection_matrix(i) for i in range(n))
        self._enumerate_weyl(weyl_bound)
        self._compute_positive_roots()
        self._memo = {}
        self.rules = {}         # normal-form rule class -> its instance on this datum

    def _reflection_matrix(self, i):
        n = self.rank
        alpha = self.simple_roots[i]
        return tuple(
            tuple((1 if j == k else 0) - (alpha[j] if k == i else 0) for k in range(n))
            for j in range(n)
        )

    def _enumerate_weyl(self, bound):
        n = self.rank
        ident = WeylElement(self.rho, (), _identity_matrix(n))
        elements = {self.rho: ident}
        order = [ident]
        frontier = [ident]
        while frontier:
            new_frontier = []
            for w in frontier:
                for i in range(n):
                    # right multiplication: (w s_i) acts by M_w @ S_i
                    m = _mat_mul(w.matrix, self._simple_matrices[i])
                    key = _mat_apply(m, self.rho)
                    if key not in elements:
                        elt = WeylElement(key, w.word + (i,), m)
                        elements[key] = elt
                        order.append(elt)
                        new_frontier.append(elt)
                        if len(elements) > bound:
                            raise WeylTooLarge(
                                "Weyl group exceeds %d elements; "
                                "is the Cartan matrix of finite type?" % bound
                            )
            frontier = new_frontier
        self.elements = elements
        self.weyl = tuple(order)   # BFS order: sorted by length
        self.identity = ident
        self.longest = order[-1]
        # left-multiplication table (i, key) -> WeylElement for rewriting
        self._left_table = {}
        for w in order:
            for i in range(n):
                m = _mat_mul(self._simple_matrices[i], w.matrix)
                self._left_table[(i, w.key)] = elements[_mat_apply(m, self.rho)]

    def _compute_positive_roots(self):
        # w(alpha_i) is positive exactly when l(w s_i) = l(w) + 1, and
        # w s_i is found by its key w(rho - alpha_i), as <rho, alpha_i^vee> = 1
        positive = set()
        for w in self.weyl:
            for alpha in self.simple_roots:
                beta = _mat_apply(w.matrix, alpha)
                if self.elements[tuple(map(sub, w.key, beta))].length > w.length:
                    positive.add(beta)
        self.positive_roots = tuple(sorted(positive))

    def memo(self, key, build):
        """The value stored under ``key``, made by ``build()`` on first use.

        Values that depend only on the datum (and on what ``key`` names)
        are built once per datum and shared by every caller, who must not
        mutate them.  The store hangs off the datum itself, so it is freed
        with the datum even though the values refer back to it.
        """
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    # -- group operations ------------------------------------------------

    def simple(self, i):
        """The simple reflection s_i as a WeylElement."""
        return self._left_table[(i, self.rho)]

    def left_mul(self, i, w):
        """s_i * w."""
        return self._left_table[(i, w.key)]

    def mul(self, u, w):
        """u * w."""
        m = _mat_mul(u.matrix, w.matrix)
        return self.elements[_mat_apply(m, self.rho)]

    def inverse(self, w):
        for u in self.weyl:
            if self.mul(w, u) is self.identity:
                return u
        raise KeyError(w)

    def braid_order(self, i, j):
        """Order of s_i s_j in W."""
        if i == j:
            return 1
        sisj = self.mul(self.simple(i), self.simple(j))
        m, w = 1, sisj
        while w is not self.identity:
            w = self.mul(w, sisj)
            m += 1
        return m


def apply(w, x):
    """Action of a Weyl element on a weight."""
    return _mat_apply(w.matrix, tuple(x))


def build_root_datum(cartan, weyl_bound=10**6):
    return RootDatum(cartan, weyl_bound=weyl_bound)


def cartan_matrix(family, rank):
    """Cartan matrix of a classical family ('A','B','C','D') or 'G2'/'F4'."""
    family = family.upper()
    n = rank
    if family == "G" or (family == "G2"):
        return ((2, -1), (-3, 2))
    if family == "F" or (family == "F4"):
        return (
            (2, -1, 0, 0),
            (-1, 2, -1, 0),
            (0, -2, 2, -1),
            (0, 0, -1, 2),
        )
    if n < 1:
        raise InvalidCartan("rank must be positive")
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for i in range(n - 1):
        m[i][i + 1] = m[i + 1][i] = -1
    if family == "A":
        pass
    elif family == "B":
        # B_n: last simple root short; <alpha_{n-1}, alpha_n^vee> = -2
        if n < 2:
            raise InvalidCartan("type B needs rank >= 2")
        m[n - 1][n - 2] = -2
    elif family == "C":
        if n < 2:
            raise InvalidCartan("type C needs rank >= 2")
        m[n - 2][n - 1] = -2
    elif family == "D":
        if n < 3:
            raise InvalidCartan("type D needs rank >= 3")
        m[n - 1][n - 2] = m[n - 2][n - 1] = 0
        m[n - 1][n - 3] = m[n - 3][n - 1] = -1
    else:
        raise InvalidCartan("unknown family %r" % family)
    return tuple(tuple(row) for row in m)


def read_cartan_file(path):
    """Read a Cartan matrix: first line n, then n rows of integers."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise InvalidCartan("empty Cartan matrix file")
    try:
        n = int(tokens[0])
        entries = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise InvalidCartan("non-integer entry in Cartan matrix file: %s" % exc)
    if len(entries) != n * n:
        raise InvalidCartan("expected %d matrix entries, got %d" % (n * n, len(entries)))
    return tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
