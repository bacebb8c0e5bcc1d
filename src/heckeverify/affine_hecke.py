"""
The affine Hecke algebra in Bernstein normal form.

An element is stored as a finite sum  sum_w a_w * T_w  with the commutative
coefficient a_w (an element of Z[v,v^-1][X]) on the LEFT of T_w.  The basis
{theta_x T_w} is a free Z[v,v^-1]-basis, so normal forms are unique and
equality is literal dictionary equality.

Products are computed by the engine of :mod:`normal_form` under the
Bernstein rule (:class:`BernsteinRule`).  The quadratic and braid
relations are consequences of that rule; the test suite re-derives them
rather than trusting that.

The module also carries the three K-theory-side ring maps of the paper
(sign twist of v, bar-type duality, and the rho-shifted twist of T_s built
from T_s^{-1}), the map m through which their composite factors, and the
left antispherical module where T_s acts by -1 on the base point.
"""

from .lattice_algebra import (
    GroupAlgebraElement,
    LaurentScalar,
    LS_ONE,
    LS_V2,
    add_product,
    add_scaled,
    demazure_terms,
    from_plain,
)
from .normal_form import AsphElement, GeneratorImages, Rule

LS_V2M1 = LaurentScalar({2: 1, 0: -1})        # v^2 - 1
LS_VM2 = LaurentScalar({-2: 1})               # v^-2
LS_VM2M1 = LaurentScalar({-2: 1, 0: -1})      # v^-2 - 1


class HeckeElement:
    """Element of the affine Hecke algebra in normal form."""

    __slots__ = ("datum", "coeffs")

    def __init__(self, datum, coeffs=None):
        self.datum = datum
        self.coeffs = {}
        if coeffs:
            for w, c in coeffs.items():
                if c:
                    self.coeffs[w] = c

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, datum, order=None):
        """The unit; ``order`` is ignored, as the K side is exact."""
        return cls(datum, {datum.identity: GroupAlgebraElement.one(datum.rank)})

    @classmethod
    def theta(cls, datum, x, scalar=LS_ONE):
        return cls(datum, {datum.identity: GroupAlgebraElement.theta(x, scalar)})

    @classmethod
    def Ts(cls, datum, i):
        return cls(datum, {datum.simple(i): GroupAlgebraElement.one(datum.rank)})

    @classmethod
    def scalar(cls, datum, scalar):
        return cls(datum, {datum.identity: GroupAlgebraElement.one(datum.rank).scale(scalar)})

    # -- ring structure --------------------------------------------------

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            new = out.get(w)
            new = c if new is None else new + c
            if new:
                out[w] = new
            else:
                out.pop(w, None)
        return HeckeElement(self.datum, out)

    def __neg__(self):
        return HeckeElement(self.datum, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return h_mul(self, other)

    def scale_left(self, ga):
        """Multiply every coefficient on the left by a group-algebra element."""
        out = {}
        for w, c in self.coeffs.items():
            new = ga * c
            if new:
                out[w] = new
        return HeckeElement(self.datum, out)

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.datum is other.datum
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for w in sorted(self.coeffs, key=lambda u: (u.length, u.key)):
            parts.append("[%r]*T(%r)" % (self.coeffs[w], w))
        return " + ".join(parts)


class BernsteinRule(Rule):
    """The Bernstein rule of the affine Hecke algebra, for :mod:`normal_form`.

    T_s c = s(c) T_s + (v^2-1) Dem_s(c) and T_s^2 = (v^2-1) T_s + v^2,
    i.e. D_s = (v^2-1) Dem_s, a = v^2-1, b = v^2, with Dem_s the
    telescoping quotient of :mod:`lattice_algebra` extended linearly.
    Coefficients accumulate in the plain form {w: {x: {k: int}}}
    (:func:`add_scaled`, :func:`add_product`), and a term of ``commute`` is
    a list of (x, LaurentScalar) pairs, so no GroupAlgebraElement is built
    before :meth:`close`, which drops the zero coefficients.  A scalar, one
    term at weight 0, multiplies as a scaled sum, with no weights added.
    ``dem_scalar`` stands in front of Dem_s and ``sign`` is T_s on the
    antispherical base point; other values than v^2-1 and -1 are only for a
    negative control's private datum copy.
    """

    a, b = LS_V2M1, LS_V2
    element = HeckeElement

    def __init__(self, datum, dem_scalar=LS_V2M1, sign=-1):
        self.datum = datum
        self.origin = (0,) * datum.rank
        self.dem_scalar = dem_scalar
        self.sign = LaurentScalar({0: sign})

    def commute(self, i, c):
        dem = []
        for x, cx in c.coeffs.items():
            d = cx * self.dem_scalar
            minus_d = -d
            dem += [(y, d if sign > 0 else minus_d)
                    for y, sign in demazure_terms(self.datum, x, i)]
        return c.weyl_apply(self.datum.simple(i)).coeffs.items(), dem

    def add(self, acc, w, terms, scale=LS_ONE):
        add_scaled(acc.setdefault(w, {}), terms, scale)

    def scalar(self, c):
        return c.coeffs.get(self.origin) if len(c.coeffs) == 1 else None

    def add_product(self, acc, w, c, d):
        scale = self.scalar(c)
        if scale is None:
            add_product(acc.setdefault(w, {}), c, d)
        else:
            add_scaled(acc.setdefault(w, {}), d.coeffs.items(), scale)

    def close(self, acc):
        out = {}
        for w, plain in acc.items():
            c = from_plain(plain)
            if c:
                out[w] = c
        return out


def h_mul(a, b):
    """Product in normal form (:meth:`Rule.product` under the Bernstein rule)."""
    return HeckeElement(a.datum, BernsteinRule.of(a.datum).product(a.coeffs, b.coeffs))


def ts_inverse(datum, i):
    """T_s^{-1} = v^-2 T_s + (v^-2 - 1)."""
    return HeckeElement(
        datum,
        {
            datum.simple(i): GroupAlgebraElement.one(datum.rank).scale(LS_VM2),
            datum.identity: GroupAlgebraElement.one(datum.rank).scale(LS_VM2M1),
        },
    )


class _GeneratorMap(GeneratorImages):
    """Ring endomorphism given by images of v, theta_x and each T_s.

    Coefficients map through :meth:`GroupAlgebraElement.substitute`; T_w
    maps to the product of the T_s images along its reduced word
    (:class:`GeneratorImages`, with ``ts_image(i, order)`` and order None).
    That this is an algebra homomorphism is not assumed here: the
    ``morphisms`` suite checks that the generator images satisfy every
    defining relation (:func:`heckeverify.verify.k_relations`), and for m
    (:func:`twist`) that the evaluator is multiplicative on T_e and the T_s.
    """

    def __init__(self, datum, vexp_image, sign, negate_weights, ts_image):
        super().__init__(BernsteinRule.of(datum), ts_image)
        self.vexp_image = vexp_image
        self.sign = sign
        self.negate_weights = negate_weights

    def __call__(self, elem):
        return HeckeElement(self.datum, self.evaluate(elem, None, lambda c: c.substitute(
            self.vexp_image, self.sign, self.negate_weights)))


def koszul_map(datum):
    """v |-> -v, theta_x |-> theta_{-x}, T_s |-> theta_rho (-v^2 T_s^{-1}) theta_{-rho}."""
    rho = datum.rho
    neg_rho = tuple(-a for a in rho)

    def ts_image(i, order):
        core = ts_inverse(datum, i).scale_left(
            GroupAlgebraElement.one(datum.rank).scale(-LS_V2)
        )
        shifted = HeckeElement.theta(datum, rho) * core * HeckeElement.theta(datum, neg_rho)
        return shifted

    return _GeneratorMap(datum, 1, -1, True, ts_image)


def duality_map(datum):
    """v |-> v^-1, theta_x |-> theta_{-x}, T_s |-> T_s^{-1}."""
    return _GeneratorMap(datum, -1, 1, True, lambda i, order: ts_inverse(datum, i))


def parity_map(datum):
    """v |-> -v, theta_x and T_s fixed."""
    return _GeneratorMap(datum, 1, -1, False, lambda i, order: HeckeElement.Ts(datum, i))


def k_side_maps(datum):
    """The Koszul, duality and parity maps of ``datum``, built once per datum.

    Shared, so their T_w caches fill once; :func:`pipeline_K_h` applies
    them in this order.
    """
    return datum.memo("k_side_maps",
                      lambda: (koszul_map(datum), duality_map(datum), parity_map(datum)))


def twist(datum):
    """m: v |-> v^-1, theta_x fixed, T_s |-> -v^-2 T_s, built once per datum.

    pipeline_K_h = Ad(theta_{-rho}) o m, and m(T_w) = (-v^-2)^{l(w)} T_w.
    """
    return datum.memo("twist", lambda: _GeneratorMap(
        datum, -1, 1, False, lambda i, order: HeckeElement(
            datum, {datum.simple(i): GroupAlgebraElement.one(datum.rank).scale(-LS_VM2)})))


def pipeline_K_h(datum, h):
    """The composite parity o duality o koszul as a self-map of the algebra."""
    for fmap in k_side_maps(datum):
        h = fmap(h)
    return h


# -- antispherical module ------------------------------------------------

def asph_act_left(a, m):
    """Left action of the algebra on the antispherical module, where T_s
    acts by -1 on the base point (:meth:`Rule.act` under the Bernstein rule).
    """
    return AsphElement(a.datum, BernsteinRule.of(a.datum).act(
        a.coeffs, m.value, GroupAlgebraElement))
