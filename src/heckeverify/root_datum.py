"""
Finite root data from Cartan matrices.

Everything downstream works in the fundamental-weight basis of the weight
lattice: a weight x is a tuple of integers and the pairing with the i-th
simple coroot is just ``x[i]``.  The i-th simple root is the i-th *column*
of the Cartan matrix A (entries A[j][i] = <alpha_i, alpha_j^vee>), so the
simple reflection acts by

    s_i(x) = x - x[i] * alpha_i.

A Weyl group element w is named by its key w(rho), rho = (1,...,1) being
regular.  W is never enumerated: :meth:`RootDatum.element` makes the
element of a key on first use, and :meth:`RootDatum.left_mul` reflects a
key, s_i(key) at O(n) cost, the first time it meets (i, key).  The word
of w is its lexicographically least reduced word: s_i is a left descent
exactly when key[i] < 0, and the smallest such i comes first.  The
action on weights follows words; there are no matrices.
"""


class InvalidCartan(ValueError):
    """The input matrix violates the Cartan matrix axioms."""


class WeylElement(tuple):
    """A Weyl group element: its key w(rho), a reduced word and the simple
    roots that :func:`apply` reflects in along the word.

    A tuple of its key, so it hashes in C: ``len(w)`` is the rank, and
    ``w.length`` the word length.  Immutable by contract: nothing assigns
    to an element after it is built.  Equality and hash go by ``key``
    alone; an element equals no plain tuple, its own key included.
    """

    def __new__(cls, key, word, roots):
        self = tuple.__new__(cls, key)
        self.key = key          # image of rho, canonical identifier
        self.word = word        # reduced word (simple indices)
        self.roots = roots      # simple roots of the datum, as weights
        return self

    def __getnewargs__(self):
        return self.key, self.word, self.roots

    @property
    def length(self):
        return len(self.word)

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return isinstance(other, WeylElement) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __repr__(self):
        if not self.word:
            return "e"
        return "s" + ".s".join(str(i + 1) for i in self.word)


class RootDatum:
    """Root datum of a semisimple simply connected group, rank n.

    Built by :func:`build_root_datum`, which rejects a matrix not of finite
    type.  Immutable afterwards apart from three stores filled on first
    use: the Weyl elements by key (:meth:`element`), the products s_i w
    (:meth:`left_mul`) and :meth:`memo`, the derived values, the
    normal-form rules (:meth:`Rule.of`) among them.  Threads may share a
    datum: two first uses of one key may each build the value, and the
    copies are equal.
    """

    def __init__(self, cartan):
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
        self._compute_positive_roots()
        self.identity = WeylElement(self.rho, (), self.simple_roots)
        self._elements = {self.rho: self.identity}
        self._left = {}
        self._memo = {}

    def _compute_positive_roots(self):
        # the orbit of the simple roots in simple-root coordinates c; the
        # weight x of beta = sum_j c_j alpha_j has x[i] = sum_j A[i][j] c_j
        n, cartan = self.rank, self.cartan
        orbit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        seen, positive = set(orbit), []
        for c in orbit:         # breadth first: the list grows as it is read
            # a rank-k component has at most 2k^2 roots, bar G2, F4, E7, E8 (<= 240)
            if len(orbit) > 2 * n * n + 240:
                raise InvalidCartan("matrix is not of finite type")
            x = tuple(sum(a * b for a, b in zip(row, c)) for row in cartan)
            if min(c) >= 0:
                positive.append(x)
            for i in range(n):
                s = c[:i] + (c[i] - x[i],) + c[i + 1:]     # s_i(beta)
                if s not in seen:
                    seen.add(s)
                    orbit.append(s)
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

    def _reflect(self, i, key):
        """s_i(key) = key - key[i] alpha_i."""
        c = key[i]
        return tuple([a - c * b for a, b in zip(key, self.simple_roots[i])])

    def element(self, key):
        """The Weyl element w with w(rho) = ``key``, made on first use."""
        w = self._elements.get(key)
        if w is None:
            descents, v = [], key
            while w is None:
                i = next((j for j, c in enumerate(v) if c < 0), None)
                if i is None:       # dominant but not rho: not in the orbit W rho
                    raise KeyError(key)
                descents.append((v, i))
                v = self._reflect(i, v)
                w = self._elements.get(v)
            for v, i in reversed(descents):
                w = self._elements[v] = WeylElement(v, (i,) + w.word, self.simple_roots)
        return w

    def simple(self, i):
        """The simple reflection s_i as a WeylElement."""
        return self.left_mul(i, self.identity)

    def left_mul(self, i, w):
        """s_i * w."""
        u = self._left.get((i, w.key))
        if u is None:
            u = self._left[i, w.key] = self.element(self._reflect(i, w.key))
        return u

    def braid_order(self, i, j):
        """Order of s_i s_j in W, read off a_ij a_ji."""
        if i == j:
            return 1
        return (2, 3, 4, 6)[self.cartan[i][j] * self.cartan[j][i]]


def apply(w, x):
    """Action of a Weyl element on a weight, one reflection per letter."""
    x = tuple(x)
    for i in reversed(w.word):
        c = x[i]
        if c:
            x = tuple([a - c * b for a, b in zip(x, w.roots[i])])
    return x


def build_root_datum(cartan):
    return RootDatum(cartan)


# Types of a single rank; a name may spell it or not (E needs rank 6-8).
FIXED_RANK = {"G": 2, "G2": 2, "F": 4, "F4": 4, "E6": 6, "E7": 7, "E8": 8}


def cartan_matrix(family, rank):
    """Cartan matrix of a classical family ('A','B','C','D'), of 'E' at rank
    6-8, or of 'G2'/'F4'/'E6'/'E7'/'E8', whose ``rank`` is None or their own."""
    family = family.upper()
    n = FIXED_RANK.get(family, rank)
    if rank not in (None, n):
        raise InvalidCartan("type %s has rank %d, got rank %r" % (family, n, rank))
    if family in ("E6", "E7", "E8"):
        family = "E"
    if family in ("G", "G2"):
        return ((2, -1), (-3, 2))
    if family in ("F", "F4"):
        return ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    if n is None or n < 1:
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
    elif family == "E":
        if n not in (6, 7, 8):
            raise InvalidCartan("type E needs rank 6, 7 or 8")
        # Bourbaki labels: 1-3-4-...-n in a chain, 2 attached to 4
        m[0][1] = m[1][0] = m[1][2] = m[2][1] = 0
        m[0][2] = m[2][0] = m[1][3] = m[3][1] = -1
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
