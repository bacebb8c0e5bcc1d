"""
Exact arithmetic in the commutative algebra Z[v,v^-1][X].

A :class:`LaurentScalar` is a sparse Laurent polynomial in the formal
variable v with integer coefficients.  A :class:`GroupAlgebraElement` is a
finite sum  sum_x c_x * theta_x  with c_x a LaurentScalar and x a weight
(integer tuple); the product is convolution on the supports,
theta_x * theta_y = theta_{x+y}.

All coefficients stay integral on purpose: every formula we feed through
this module is integral, so a rational creeping in would flag a sign or
convention error immediately.

The telescoping quotient (theta_x - theta_{sx}) / (1 - theta_{-alpha}) is
computed in closed form and double-checked by multiplying back; there is no
polynomial division anywhere.

Products and longer sums accumulate in the plain form {x: {k: int}} (the
coefficient of v^k theta_x), with :func:`add_product` and
:func:`add_scaled`, and :func:`from_plain` builds the LaurentScalar and
GroupAlgebraElement values once at the end, dropping zeros there.
"""

from operator import add

from .root_datum import apply


class LaurentScalar:
    """Sparse Laurent polynomial in v over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c:
                    self.coeffs[exp] = c

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            new = out.get(exp, 0) + c
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
        res = LaurentScalar()
        res.coeffs = out
        return res

    def __neg__(self):
        res = LaurentScalar()
        res.coeffs = {exp: -c for exp, c in self.coeffs.items()}
        return res

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                new = out.get(e, 0) + c1 * c2
                if new:
                    out[e] = new
                else:
                    out.pop(e, None)
        res = LaurentScalar()
        res.coeffs = out
        return res

    def __eq__(self, other):
        return isinstance(other, LaurentScalar) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exp in sorted(self.coeffs):
            c = self.coeffs[exp]
            if exp == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
                parts.append("%sv^%d" % (head, exp) if exp != 1 else "%sv" % head)
        return " + ".join(parts).replace("+ -", "- ")


LS_ONE = LaurentScalar({0: 1})
LS_V = LaurentScalar({1: 1})
LS_V2 = LaurentScalar({2: 1})


class GroupAlgebraElement:
    """Finite sum of theta_x with LaurentScalar coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for x, c in coeffs.items():
                if c:
                    self.coeffs[tuple(x)] = c

    @classmethod
    def theta(cls, x, scalar=LS_ONE):
        return cls({tuple(x): scalar})

    @classmethod
    def one(cls, rank):
        return cls.theta((0,) * rank)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        return from_plain(add_scaled(add_scaled({}, self.coeffs.items()),
                                     other.coeffs.items()))

    def __neg__(self):
        res = GroupAlgebraElement()
        res.coeffs = {x: -c for x, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return from_plain(add_product({}, self, other))

    def scale(self, scalar):
        return from_plain(add_scaled({}, self.coeffs.items(), scalar))

    def __eq__(self, other):
        return isinstance(other, GroupAlgebraElement) and self.coeffs == other.coeffs

    def weyl_apply(self, w):
        """theta_x |-> theta_{w x} on every term (w permutes the weights)."""
        res = GroupAlgebraElement()
        res.coeffs = {apply(w, x): c for x, c in self.coeffs.items()}
        return res

    def substitute(self, vexp_image=1, sign=1, negate_weights=False):
        """Endomorphism from v |-> sign*v^vexp_image, theta_x |-> theta_{+-x}."""
        out = {}
        for x, c in self.coeffs.items():
            slot = out.setdefault(tuple(-a for a in x) if negate_weights else x, {})
            for k, v in c.coeffs.items():
                e = k * vexp_image
                slot[e] = slot.get(e, 0) + (-v if sign == -1 and k % 2 else v)
        return from_plain(out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for x in sorted(self.coeffs):
            parts.append("(%r)*th%s" % (self.coeffs[x], list(x)))
        return " + ".join(parts)


def add_product(acc, a, b):
    """acc += a * b, for ``acc`` in the plain form {x: {k: int}}.

    ``acc`` may hold zeros until :func:`from_plain` drops them.
    """
    right = [(y, tuple(cy.coeffs.items())) for y, cy in b.coeffs.items()]
    for x, cx in a.coeffs.items():
        left = tuple(cx.coeffs.items())
        for y, cy in right:
            z = tuple(map(add, x, y))
            slot = acc.get(z)
            if slot is None:
                slot = acc[z] = {}
            get = slot.get
            for k1, c1 in left:
                for k2, c2 in cy:
                    k = k1 + k2
                    slot[k] = get(k, 0) + c1 * c2
    return acc


def add_scaled(acc, terms, scalar=LS_ONE):
    """acc += scalar * sum c theta_x over the (x, LaurentScalar c) in ``terms``."""
    factor = tuple(scalar.coeffs.items())
    for x, cx in terms:
        slot = acc.get(x)
        if slot is None:
            slot = acc[x] = {}
        get = slot.get
        for k1, c1 in cx.coeffs.items():
            for k2, c2 in factor:
                k = k1 + k2
                slot[k] = get(k, 0) + c1 * c2
    return acc


def from_plain(acc):
    """The GroupAlgebraElement of a plain-form sum, with every zero dropped."""
    out = {}
    for x, slot in acc.items():
        slot = {k: c for k, c in slot.items() if c}
        if slot:
            scalar = LaurentScalar()
            scalar.coeffs = slot
            out[x] = scalar
    res = GroupAlgebraElement()
    res.coeffs = out
    return res


def demazure_terms(datum, x, i):
    """The terms (y, +-1) of :func:`demazure_quotient`, distinct weights y.

    With m = <x, alpha_i^vee> the telescoping sum is
      m > 0:  sum_{k=0}^{m-1} theta_{x - k alpha_i}
      m = 0:  0
      m < 0:  -sum_{k=1}^{-m} theta_{x + k alpha_i}
    """
    m = x[i]
    alpha = datum.simple_roots[i]
    if m > 0:
        return [(tuple(a - k * b for a, b in zip(x, alpha)), 1) for k in range(m)]
    return [(tuple(a + k * b for a, b in zip(x, alpha)), -1) for k in range(1, -m + 1)]


def demazure_quotient(datum, x, i):
    """(theta_x - theta_{s_i x}) / (1 - theta_{-alpha_i}), in closed form."""
    return GroupAlgebraElement({y: LaurentScalar({0: sign})
                                for y, sign in demazure_terms(datum, tuple(x), i)})


def scriptG_terms(datum, x, i):
    """The terms (c, y, k) of c v^k theta_y in :func:`mul_by_scriptG`, 2|m| of them.

    (theta_x - theta_{sx})/(theta_alpha - 1) telescopes to theta_{-alpha}
    times :func:`demazure_quotient`, sum_y sign_y theta_y, so the product
    with v^2 theta_alpha - 1 is sum_y sign_y (v^2 theta_y - theta_{y-alpha}).
    """
    alpha = datum.simple_roots[i]
    for y, sign in demazure_terms(datum, tuple(x), i):
        yield sign, y, 2
        yield -sign, tuple(a - b for a, b in zip(y, alpha)), 0


def mul_by_scriptG(datum, x, i):
    """(theta_x - theta_{s_i x}) * (v^2 theta_alpha - 1)/(theta_alpha - 1).

    The plain sum of :func:`scriptG_terms`; it always lands back in
    Z[v,v^-1][X].
    """
    acc = {}
    for c, y, k in scriptG_terms(datum, x, i):     # no (y, k) twice: the y are distinct
        acc.setdefault(y, {})[k] = c
    return from_plain(acc)
