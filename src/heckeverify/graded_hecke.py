"""
The graded affine Hecke algebra over truncated power series.

Elements are sums  sum_w f_w * t_w  with the series coefficient on the
left; all coefficients of one element share a single trusted order.  The
product, the antispherical action and the T_w images of maps run on the
engine of :mod:`normal_form`, the one the affine Hecke algebra uses, under
Lusztig's rule (:class:`GradedRule`).  :func:`demazure_series` keeps the
definition of Dem_s by exact division by alpha-dot, which the verifier
checks the rule's integer tables against.

The graded antispherical module, where t_s collapses to -1, is here as
well.  The Todd-type unit e_B = prod_{alpha > 0} alpha-dot / (1 -
exp(-alpha-dot)) of the paper is not: S = e_B exp(-rho.) is central, as
each s_i permutes the positive roots other than alpha_i, which the suites
check, so Ad(e_B) = Ad(exp(rho.)) and no run needs e_B itself.
"""

from .formal_series import (
    FormalSeries,
    compared_order,
    diff,
    fs_div_linear,
    fs_negate_r,
    fs_weyl,
    fs_weyl_demazure,
)
from .normal_form import AsphElement, Rule


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
    def one(cls, datum, order):
        return cls.series(datum, FormalSeries.one(datum.rank + 1, order))

    @classmethod
    def series(cls, datum, f):
        return cls(datum, f.order, {datum.identity: f})

    @classmethod
    def ts(cls, datum, i, order):
        return cls(datum, order, {datum.simple(i): FormalSeries.one(datum.rank + 1, order)})

    def truncate(self, order):
        """Lower (never raise) the trusted order."""
        if order >= self.order:
            return self
        return GradedElement(self.datum, order, self.coeffs)

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
        cap = compared_order(self, other, order)
        keys = set(self.coeffs) | set(other.coeffs)
        zero = FormalSeries(self.datum.rank + 1, cap)
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


def demazure_series(datum, f, i):
    """(f - s_i(f)) / alpha_i-dot by exact division; order drops by one.

    This is the definition of Dem_i.  The product reads Dem_i from
    integer tables instead (:func:`fs_weyl_demazure`), so a check of
    ``gh_mul`` against this function compares two independent routes.
    """
    return fs_div_linear(f - fs_weyl(datum, datum.simple(i), f), diff(datum.simple_roots[i]))


class GradedRule(Rule):
    """Lusztig's graded rule (J. AMS 2, 1989), for :mod:`normal_form`.

    t_s f = s(f) t_s + 2r Dem_s(f), Dem_s(f) = (f - s(f))/alpha-dot, and
    t_s^2 = 1, so D_s = 2r Dem_s, a = 0 and b = 1: t_s t_w = t_{sw} with
    no length cases.  ``commute`` reads s(f) and 2r Dem_s(f) from integer
    tables of monomial images (:func:`fs_weyl_demazure`), built by the
    twisted Leibniz rule, so nothing on that path divides; the factor 2r
    gives back the degree Dem_s takes.  Coefficients accumulate as series,
    and ``sign`` is t_s on the antispherical base point: -1, other values
    only for a negative control's private datum copy.
    """

    a, b = 0, 1
    element = GradedElement

    def __init__(self, datum, sign=-1):
        self.datum = datum
        self.sign = sign

    def commute(self, i, f):
        return fs_weyl_demazure(self.datum, i, f)

    def add(self, acc, w, f, scale=1):
        if f.is_zero():
            return
        if scale != 1:
            f = f.scale(scale)
        prev = acc.get(w)
        acc[w] = f if prev is None else prev + f


def gh_mul(a, b):
    """a * b at the lower order of a and b (:meth:`Rule.product` under the graded rule)."""
    order = min(a.order, b.order)
    return GradedElement(a.datum, order, GradedRule.of(a.datum).product(
        a.coeffs, b.truncate(order).coeffs))


def fourier_map(a):
    """t_w |-> (-1)^{l(w)} t_w, r |-> -r, polynomial part fixed."""
    out = {}
    for w, f in a.coeffs.items():
        g = fs_negate_r(f)
        out[w] = -g if w.length % 2 else g
    return GradedElement(a.datum, a.order, out)


def g_asph_act(a, m):
    """Left action on the graded antispherical module, where t_s acts by -1
    on the base point (:meth:`Rule.act` under the graded rule), at the lower
    order of a and m.
    """
    order = min(a.order, m.value.order)
    return AsphElement(a.datum, GradedRule.of(a.datum).act(
        a.coeffs, m.value.truncate(order), lambda: FormalSeries(a.datum.rank + 1, order)))
