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
"""

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

    @classmethod
    def of(cls, const, vexp=0):
        return cls({vexp: const})

    def is_zero(self):
        return not self.coeffs

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

    def __sub__(self, other):
        return self + (-other)

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

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def substitute(self, vexp_image=1, sign=1):
        """Ring map determined by v |-> sign * v^vexp_image (sign = +-1)."""
        out = {}
        for exp, c in self.coeffs.items():
            e = exp * vexp_image
            s = sign ** (exp % 2) if sign == -1 else 1
            new = out.get(e, 0) + s * c
            if new:
                out[e] = new
            else:
                out.pop(e, None)
        res = LaurentScalar()
        res.coeffs = out
        return res

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


LS_ZERO = LaurentScalar()
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

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for x, c in other.coeffs.items():
            new = out.get(x, LS_ZERO) + c
            if new:
                out[x] = new
            else:
                out.pop(x, None)
        res = GroupAlgebraElement()
        res.coeffs = out
        return res

    def __neg__(self):
        res = GroupAlgebraElement()
        res.coeffs = {x: -c for x, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for x, cx in self.coeffs.items():
            for y, cy in other.coeffs.items():
                z = tuple(a + b for a, b in zip(x, y))
                new = out.get(z, LS_ZERO) + cx * cy
                if new:
                    out[z] = new
                else:
                    out.pop(z, None)
        res = GroupAlgebraElement()
        res.coeffs = out
        return res

    def scale(self, scalar):
        if not scalar:
            return GroupAlgebraElement()
        res = GroupAlgebraElement()
        res.coeffs = {x: c * scalar for x, c in self.coeffs.items()}
        return res

    def __eq__(self, other):
        return isinstance(other, GroupAlgebraElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def weyl_apply(self, w):
        """theta_x |-> theta_{w x} on every term."""
        out = {}
        for x, c in self.coeffs.items():
            y = apply(w, x)
            prev = out.get(y)
            out[y] = c if prev is None else prev + c
        return GroupAlgebraElement({x: c for x, c in out.items() if c})

    def substitute(self, vexp_image=1, sign=1, negate_weights=False):
        """Endomorphism from v |-> sign*v^vexp_image, theta_x |-> theta_{+-x}."""
        out = {}
        for x, c in self.coeffs.items():
            y = tuple(-a for a in x) if negate_weights else x
            img = c.substitute(vexp_image, sign)
            prev = out.get(y)
            new = img if prev is None else prev + img
            if new:
                out[y] = new
            else:
                out.pop(y, None)
        res = GroupAlgebraElement()
        res.coeffs = out
        return res

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for x in sorted(self.coeffs):
            parts.append("(%r)*th%s" % (self.coeffs[x], list(x)))
        return " + ".join(parts)


def demazure_quotient(datum, x, i):
    """(theta_x - theta_{s_i x}) / (1 - theta_{-alpha_i}), in closed form.

    With m = <x, alpha_i^vee> the telescoping sum is
      m > 0:  sum_{k=0}^{m-1} theta_{x - k alpha_i}
      m = 0:  0
      m < 0:  -sum_{k=1}^{-m} theta_{x + k alpha_i}
    """
    x = tuple(x)
    m = x[i]
    alpha = datum.simple_roots[i]
    terms = {}
    if m > 0:
        for k in range(m):
            y = tuple(a - k * b for a, b in zip(x, alpha))
            terms[y] = terms.get(y, LS_ZERO) + LS_ONE
    elif m < 0:
        for k in range(1, -m + 1):
            y = tuple(a + k * b for a, b in zip(x, alpha))
            terms[y] = terms.get(y, LS_ZERO) - LS_ONE
    return GroupAlgebraElement({y: c for y, c in terms.items() if c})


def mul_by_scriptG(datum, x, i):
    """(theta_x - theta_{s_i x}) * (v^2 theta_alpha - 1)/(theta_alpha - 1).

    Uses (theta_x - theta_{sx})/(theta_alpha - 1)
       = theta_{-alpha} * demazure_quotient(x, i),
    so the result is (v^2 theta_alpha - 1) * theta_{-alpha} * quotient; it
    always lands back in Z[v,v^-1][X].
    """
    alpha = datum.simple_roots[i]
    q = demazure_quotient(datum, x, i)
    neg_alpha = tuple(-a for a in alpha)
    factor = GroupAlgebraElement(
        {tuple(alpha): LS_V2, (0,) * datum.rank: -LS_ONE}
    )
    return factor * GroupAlgebraElement.theta(neg_alpha) * q


def ga_substitute(a, vexp_image=1, sign=1, negate_weights=False):
    return a.substitute(vexp_image, sign, negate_weights)
