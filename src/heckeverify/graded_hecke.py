"""
The graded affine Hecke algebra over truncated power series.

Elements are sums  sum_w f_w * t_w  with the series coefficient on the
left; all coefficients of one element share a single trusted order.  The
group-like part multiplies by t_v t_w = t_{vw} with no length cases, and
series commute past t_s by Lusztig's rule

    t_s * phi = s(phi) * t_s + 2r * Dem_s(phi),   Dem_s(phi) = (phi - s(phi)) / alpha-dot.

The product reads s(phi) and 2r Dem_s(phi) from integer tables of
monomial images (:func:`fs_weyl_demazure`), built by the twisted Leibniz
rule, so nothing on that path divides; the factor 2r gives back the
degree Dem_s takes.  :func:`demazure_series` keeps the definition by exact
division by alpha-dot, which the verifier checks the tables against.

The Todd-type unit  e_B = prod_{alpha > 0} alpha-dot / (1 - exp(-alpha-dot))
lives here too, along with conjugation by it and the graded antispherical
module where t_s collapses to -1.
"""

from .formal_series import (
    FormalSeries,
    InsufficientPrecision,
    diff,
    fs_div_linear,
    fs_exp_quotient,
    fs_inv,
    fs_negate_r,
    fs_weyl,
    fs_weyl_demazure,
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
    """(f - s_i(f)) / alpha_i-dot by exact division; order drops by one.

    This is the definition of Dem_i.  The product reads Dem_i from
    integer tables instead (:func:`fs_weyl_demazure`), so a check of
    ``gh_mul`` against this function compares two independent routes.
    """
    return fs_div_linear(f - fs_weyl(datum, datum.simple(i), f), root_diff(datum, i))


def _left_mul_ts(datum, i, elem):
    """t_{s_i} * elem by Lusztig's rule, one table pass per coefficient."""
    out = {}

    def add(w, f):
        if f.is_zero():
            return
        prev = out.get(w)
        out[w] = f if prev is None else prev + f

    for w, f in elem.coeffs.items():
        sf, dem = fs_weyl_demazure(datum, i, f)
        add(datum.left_mul(i, w), sf)
        add(w, dem)
    return GradedElement(datum, elem.order, out)


def add_scaled_terms(acc, f, elem):
    """acc[u] += f * g for every term g t_u of ``elem``; untruncated."""
    for u, g in elem.coeffs.items():
        fg = f * g
        prev = acc.get(u)
        acc[u] = fg if prev is None else prev + fg
    return acc


def gh_mul(a, b):
    """a * b = sum_w a_w (t_w b) at the lower order of a and b.

    Each t_w b is pushed once, as t_{s_i} (t_{s_i w} b) with i the first
    letter of w, so the elements of a share their suffixes.
    """
    datum = a.datum
    order = min(a.order, b.order)
    pushed = {datum.identity: b.truncate(order)}

    def tw_b(w):
        got = pushed.get(w)
        if got is None:
            i = w.word[0]
            got = pushed[w] = _left_mul_ts(datum, i, tw_b(datum.left_mul(i, w)))
        return got

    acc = {}
    for w, aw in a.coeffs.items():
        add_scaled_terms(acc, aw, tw_b(w))
    return GradedElement(datum, order, acc)


def fourier_map(a):
    """t_w |-> (-1)^{l(w)} t_w, r |-> -r, polynomial part fixed."""
    out = {}
    for w, f in a.coeffs.items():
        g = fs_negate_r(f)
        out[w] = -g if w.length % 2 else g
    return GradedElement(a.datum, a.order, out)


def todd_eB(datum, order):
    """prod over positive roots of alpha-dot / (1 - exp(-alpha-dot)).

    Each factor is the inverse of the unit (1 - exp(-alpha-dot))/alpha-dot,
    made at the requested order by :func:`fs_exp_quotient`.  Factors are
    multiplied in the stored positive-root order for deterministic reports.
    """
    out = FormalSeries.one(datum.rank + 1, order)
    for alpha in datum.positive_roots:
        out = out * fs_inv(fs_exp_quotient(-diff(alpha), order))
    return out


class _Conjugation:
    """a |-> e_B a e_B^{-1} for one e_B, reusing each e_B t_w e_B^{-1}.

    Series commute with e_B, so with a = sum_w f_w t_w,

        e_B a e_B^{-1} = sum_w f_w (e_B t_w e_B^{-1}),

    and the conjugate of each t_w is formed once per w.
    """

    def __init__(self, datum, eB):
        self.datum = datum
        self.eB = eB
        self.eB_inv = fs_inv(eB)
        self._images = {}

    def _image(self, w):
        """e_B t_w e_B^{-1}."""
        img = self._images.get(w)
        if img is None:
            img = self._images[w] = gh_mul(
                GradedElement.t(self.datum, w, self.eB.order),
                GradedElement.series(self.datum, self.eB_inv)).scale_left(self.eB)
        return img

    def __call__(self, a):
        acc = {}
        for w, f in a.coeffs.items():
            add_scaled_terms(acc, f, self._image(w))
        return GradedElement(self.datum, min(a.order, self.eB.order), acc)


def conj_eB(a, eB=None):
    """e_B * a * e_B^{-1}, full noncommutative conjugation.

    Without ``eB``, e_B is the Todd series at the order of ``a``; it, its
    inverse and the conjugates e_B t_w e_B^{-1} are built once per (datum,
    order) and shared by every later call.  An explicit ``eB`` gets a
    throwaway conjugation and leaves the datum's store alone.
    """
    datum = a.datum
    if eB is None:
        conj = datum.memo(("conj_eB", a.order),
                          lambda: _Conjugation(datum, todd_eB(datum, a.order)))
    else:
        conj = _Conjugation(datum, eB)
    return conj(a)


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

    On one series: t_s (h.1) = sign s(h) + 2r Dem_s(h), applied letter by
    letter, so t_w (g.1) is built once per w from t_{s_i w} (g.1), and
    a.(g.1) = sum_w a_w (t_w g.1).  ``sign_value`` = +1 is the verifier's
    corrupted sign module.
    """
    datum = a.datum
    order = min(a.order, m.value.order)
    images = {datum.identity: m.value.truncate(order)}

    def image(w):
        got = images.get(w)
        if got is None:
            i = w.word[0]
            sh, dem = fs_weyl_demazure(datum, i, image(datum.left_mul(i, w)))
            got = images[w] = dem - sh if sign_value == -1 else dem + sh
        return got

    total = FormalSeries.zero(datum.rank + 1, order)
    for w, f in a.coeffs.items():
        total = total + f * image(w)
    return GradedAsphElement(datum, total)
