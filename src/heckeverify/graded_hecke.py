"""
The graded affine Hecke algebra over truncated power series.

Elements are sums  sum_w f_w * t_w  with the series coefficient on the
left; all coefficients of one element share a single trusted order.  The
group-like part multiplies by t_v t_w = t_{vw} with no length cases, and
series commute past t_s by the divided-difference rule

    t_s * phi = s(phi) * t_s + 2r * (phi - s(phi)) / alpha-dot,

stored denominator-free: the exact division by the degree-one form
alpha-dot must succeed (NotDivisible would mean a broken formula), and the
multiplication by the monomial 2r restores the degree the division spent.

The Todd-type unit  e_B = prod_{alpha > 0} alpha-dot / (1 - exp(-alpha-dot))
lives here too, along with conjugation by it and the graded antispherical
module where t_s collapses to -1.
"""

from .formal_series import (
    FormalSeries,
    InsufficientPrecision,
    diff,
    fs_div_linear,
    fs_exp,
    fs_inv,
    fs_negate_r,
    fs_weyl,
)


class GradedElement:
    """Normal-form element sum_w f_w t_w at a fixed trusted order."""

    __slots__ = ("datum", "order", "coeffs")

    def __init__(self, datum, order, coeffs=None):
        self.datum = datum
        self.order = order
        self.coeffs = {}
        if coeffs:
            for w, f in coeffs.items():
                f = f.truncate(order)
                if not f.is_zero():
                    self.coeffs[w] = f

    @classmethod
    def zero(cls, datum, order):
        return cls(datum, order)

    @classmethod
    def one(cls, datum, order):
        return cls.series(datum, FormalSeries.one(datum.rank + 1, order))

    @classmethod
    def series(cls, datum, f):
        return cls(datum, f.order, {datum.identity: f})

    @classmethod
    def t(cls, datum, w, order):
        return cls(datum, order, {w: FormalSeries.one(datum.rank + 1, order)})

    @classmethod
    def ts(cls, datum, i, order):
        return cls.t(datum, datum.simple(i), order)

    def is_zero(self):
        return not self.coeffs

    def truncate(self, order):
        return GradedElement(self.datum, min(order, self.order), self.coeffs)

    def __add__(self, other):
        order = min(self.order, other.order)
        out = {w: f.truncate(order) for w, f in self.coeffs.items()}
        for w, f in other.coeffs.items():
            g = out.get(w)
            out[w] = f.truncate(order) if g is None else g + f
        return GradedElement(self.datum, order, out)

    def __neg__(self):
        return GradedElement(self.datum, self.order, {w: -f for w, f in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return gh_mul(self, other)

    def scale_left(self, f):
        """Left multiplication by a series (commutative among coefficients)."""
        return GradedElement(
            self.datum, min(self.order, f.order),
            {w: f * g for w, g in self.coeffs.items()},
        )

    def eq(self, other, order=None):
        """Coefficientwise ``FormalSeries.eq`` up to ``order``.

        ``order`` defaults to the common trusted order; asking for more
        than both sides trust raises InsufficientPrecision.
        """
        cap = min(self.order, other.order)
        if order is not None:
            if order > cap:
                raise InsufficientPrecision(
                    "comparison to degree %d, but one side is trusted only to %d"
                    % (order, cap))
            cap = order
        keys = set(self.coeffs) | set(other.coeffs)
        zero = FormalSeries.zero(self.datum.rank + 1, cap)
        for w in keys:
            a = self.coeffs.get(w, zero)
            b = other.coeffs.get(w, zero)
            if not a.eq(b, cap):
                return False
        return True

    def __repr__(self):
        if not self.coeffs:
            return "0 (order %d)" % self.order
        parts = []
        for w in sorted(self.coeffs, key=lambda u: (u.length, u.key)):
            parts.append("[%r]*t(%r)" % (self.coeffs[w], w))
        return " + ".join(parts)


def root_diff(datum, i):
    """The differential of the i-th simple root as a linear form."""
    return diff(datum.simple_roots[i])


def demazure_series(datum, f, i):
    """(f - s_i(f)) / alpha_i-dot; order drops by one, always divisible."""
    s = datum.simple(i)
    return fs_div_linear(f - fs_weyl(datum, s, f), root_diff(datum, i))


def _left_mul_ts(datum, i, elem):
    """t_{s_i} * elem via the divided-difference commutation rule."""
    s = datum.simple(i)
    r_exp = (0,) * datum.rank + (1,)
    out = {}

    def add(w, f):
        if f.is_zero():
            return
        prev = out.get(w)
        out[w] = f if prev is None else prev + f

    for w, f in elem.coeffs.items():
        sw = datum.left_mul(i, w)
        add(sw, fs_weyl(datum, s, f))
        # 2r * partial restores the order spent by the division
        add(w, demazure_series(datum, f, i).mul_monomial(r_exp, 2))
    return GradedElement(datum, elem.order, out)


def gh_mul(a, b):
    datum = a.datum
    order = min(a.order, b.order)
    out = GradedElement.zero(datum, order)
    cache = {}
    for w, aw in a.coeffs.items():
        tw_b = cache.get(w)
        if tw_b is None:
            tw_b = b
            for i in reversed(w.word):
                tw_b = _left_mul_ts(datum, i, tw_b)
            cache[w] = tw_b
        out = out + tw_b.scale_left(aw)
    return out


def fourier_map(a):
    """t_w |-> (-1)^{l(w)} t_w, r |-> -r, polynomial part fixed."""
    out = {}
    for w, f in a.coeffs.items():
        g = fs_negate_r(f)
        out[w] = -g if w.length % 2 else g
    return GradedElement(a.datum, a.order, out)


def todd_eB(datum, order):
    """prod over positive roots of alpha-dot / (1 - exp(-alpha-dot)).

    Each factor is the inverse of the unit (1 - exp(-alpha-dot))/alpha-dot;
    the exp is computed one degree high so the division lands exactly at
    the requested order.  Factors are multiplied in the stored
    positive-root order for deterministic reports.
    """
    n = datum.rank
    out = FormalSeries.one(n + 1, order)
    for alpha in datum.positive_roots:
        form = diff(alpha)
        ex = fs_exp(FormalSeries.from_linear(-form, order + 1))
        unit = fs_div_linear(FormalSeries.one(n + 1, order + 1) - ex, form)
        out = out * fs_inv(unit)
    return out


def conj_eB(a, eB=None):
    """e_B * a * e_B^{-1}, full noncommutative conjugation."""
    datum = a.datum
    if eB is None:
        eB = todd_eB(datum, a.order)
    left = GradedElement.series(datum, eB)
    right = GradedElement.series(datum, fs_inv(eB))
    return gh_mul(left, gh_mul(a, right))


class GradedAsphElement:
    """Element of the graded antispherical module, one series coordinate."""

    __slots__ = ("datum", "value")

    def __init__(self, datum, value):
        self.datum = datum
        self.value = value

    @classmethod
    def base_point(cls, datum, order):
        return cls(datum, FormalSeries.one(datum.rank + 1, order))

    def __add__(self, other):
        return GradedAsphElement(self.datum, self.value + other.value)

    def __sub__(self, other):
        return GradedAsphElement(self.datum, self.value - other.value)

    def eq(self, other, order=None):
        return self.value.eq(other.value, order)

    def __repr__(self):
        return "(%r).1" % self.value


def g_asph_act(a, m, sign_value=-1):
    """Left action on the graded antispherical module (t_s acts by -1).

    ``sign_value`` = +1 is the verifier's corrupted sign module.
    """
    datum = a.datum
    lifted = GradedElement(datum, min(a.order, m.value.order), {datum.identity: m.value})
    prod = gh_mul(a, lifted)
    total = FormalSeries.zero(datum.rank + 1, prod.order)
    for w, f in prod.coeffs.items():
        if sign_value == -1 and w.length % 2:
            total = total - f
        else:
            total = total + f
    return GradedAsphElement(datum, total)
