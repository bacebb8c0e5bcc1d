"""
The affine Hecke algebra in Bernstein normal form.

An element is stored as a finite sum  sum_w a_w * T_w  with the commutative
coefficient a_w (an element of Z[v,v^-1][X]) on the LEFT of T_w.  The basis
{theta_x T_w} is a free Z[v,v^-1]-basis, so normal forms are unique and
equality is literal dictionary equality.

Products are computed by rewriting:

    T_s * theta_x = theta_{s x} * T_s + (v^2 - 1) * Dem_s(theta_x)
    T_s * T_w     = T_{s w}                        if l(sw) = l(w) + 1
                  = (v^2 - 1) T_w + v^2 T_{s w}    otherwise

where Dem_s is the telescoping quotient from :mod:`lattice_algebra`,
extended linearly.  The quadratic and braid relations are consequences of
these rules; the test suite re-derives them rather than trusting that.

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
    def zero(cls, datum):
        return cls(datum)

    @classmethod
    def one(cls, datum):
        return cls(datum, {datum.identity: GroupAlgebraElement.one(datum.rank)})

    @classmethod
    def theta(cls, datum, x, scalar=LS_ONE):
        return cls(datum, {datum.identity: GroupAlgebraElement.theta(x, scalar)})

    @classmethod
    def T(cls, datum, w):
        return cls(datum, {w: GroupAlgebraElement.one(datum.rank)})

    @classmethod
    def Ts(cls, datum, i):
        return cls.T(datum, datum.simple(i))

    @classmethod
    def scalar(cls, datum, scalar):
        if not scalar:
            return cls(datum)
        return cls(datum, {datum.identity: GroupAlgebraElement.one(datum.rank).scale(scalar)})

    # -- ring structure --------------------------------------------------

    def is_zero(self):
        return not self.coeffs

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


def _slot(plain, key):
    """The accumulator dict stored under ``key`` (a Weyl element or a weight)."""
    acc = plain.get(key)
    if acc is None:
        acc = plain[key] = {}
    return acc


def _from_plain(datum, plain):
    """The HeckeElement of {w: plain-form coefficient}, zeros dropped."""
    return HeckeElement(datum, {w: from_plain(acc) for w, acc in plain.items()})


def _demazure_linear(datum, ga, i, acc, scalar):
    """acc += scalar * Dem_s(ga): Dem_s extended linearly, on the plain form."""
    factor = tuple(scalar.coeffs.items())
    for x, c in ga.coeffs.items():
        terms = [(k1 + k2, c1 * c2) for k1, c1 in c.coeffs.items() for k2, c2 in factor]
        for y, sign in demazure_terms(datum, x, i):
            slot = _slot(acc, y)
            get = slot.get
            for k, v in terms:
                slot[k] = get(k, 0) + sign * v
    return acc


def _left_mul_ts(datum, i, elem, bernstein_sign=1):
    """T_{s_i} * elem, elem in normal form.

    ``bernstein_sign`` exists only so the verifier's negative control can
    flip the sign of the (v^2-1) term.
    """
    s = datum.simple(i)
    dem_scalar = LS_V2M1 if bernstein_sign >= 0 else -LS_V2M1
    out = {}
    for w, c in elem.coeffs.items():
        sc = c.weyl_apply(s).coeffs.items()
        sw = datum.left_mul(i, w)
        if sw.length == w.length + 1:
            add_scaled(_slot(out, sw), sc)
        else:
            add_scaled(_slot(out, w), sc, LS_V2M1)
            add_scaled(_slot(out, sw), sc, LS_V2)
        _demazure_linear(datum, c, i, _slot(out, w), dem_scalar)
    return _from_plain(datum, out)


def _product_terms(a, b, bernstein_sign):
    """The triples (u, a_w, c) with a * b = sum a_w c T_u, c T_u a term of T_w b."""
    datum = a.datum
    for w, aw in a.coeffs.items():
        tw_b = b
        for i in reversed(w.word):
            tw_b = _left_mul_ts(datum, i, tw_b, bernstein_sign)
        for u, c in tw_b.coeffs.items():
            yield u, aw, c


def h_mul(a, b, bernstein_sign=1):
    """Product in normal form."""
    out = {}
    for u, aw, c in _product_terms(a, b, bernstein_sign):
        add_product(_slot(out, u), aw, c)
    return _from_plain(a.datum, out)


def ts_inverse(datum, i):
    """T_s^{-1} = v^-2 T_s + (v^-2 - 1)."""
    return HeckeElement(
        datum,
        {
            datum.simple(i): GroupAlgebraElement.one(datum.rank).scale(LS_VM2),
            datum.identity: GroupAlgebraElement.one(datum.rank).scale(LS_VM2M1),
        },
    )


class _GeneratorMap:
    """Ring endomorphism given by images of v, theta_x and each T_s.

    Coefficients map through :meth:`GroupAlgebraElement.substitute`; T_w
    maps multiplicatively along its stored reduced word.  That this is an
    algebra homomorphism is not assumed here: the ``morphisms`` suite
    checks that the generator images satisfy every defining relation
    (:func:`heckeverify.verify.k_relations`), and for m (:func:`twist`)
    that normal forms map to the products of generator images.
    """

    def __init__(self, datum, vexp_image, sign, negate_weights, ts_image):
        self.datum = datum
        self.vexp_image = vexp_image
        self.sign = sign
        self.negate_weights = negate_weights
        self.ts_image = ts_image  # callable i -> HeckeElement
        self._ts = {}
        self._tw = {datum.identity: HeckeElement.one(datum)}

    def _image_of_ts(self, i):
        img = self._ts.get(i)
        if img is None:
            img = self._ts[i] = self.ts_image(i)
        return img

    def _image_of_tw(self, w):
        """Image of T_w as image(T_{s_i}) * image(T_{s_i w}), i the first letter.

        s_i w is one shorter, so this is the letter-by-letter product.  The
        letter goes on the left: ``h_mul`` pushes each T_u of its left factor
        through the right one letter by letter, so a long image on the left
        would cost one pass per letter of each of its terms.
        """
        img = self._tw.get(w)
        if img is None:
            i = w.word[0]
            suffix = self.datum.left_mul(i, w)
            img = self._tw[w] = h_mul(self._image_of_ts(i), self._image_of_tw(suffix))
        return img

    def __call__(self, elem):
        out = {}
        for w, c in elem.coeffs.items():
            cimg = c.substitute(self.vexp_image, self.sign, self.negate_weights)
            for u, cu in self._image_of_tw(w).coeffs.items():
                add_product(_slot(out, u), cimg, cu)
        return _from_plain(self.datum, out)


def koszul_map(datum):
    """v |-> -v, theta_x |-> theta_{-x}, T_s |-> theta_rho (-v^2 T_s^{-1}) theta_{-rho}."""
    rho = datum.rho
    neg_rho = tuple(-a for a in rho)

    def ts_image(i):
        core = ts_inverse(datum, i).scale_left(
            GroupAlgebraElement.one(datum.rank).scale(-LS_V2)
        )
        shifted = HeckeElement.theta(datum, rho) * core * HeckeElement.theta(datum, neg_rho)
        return shifted

    return _GeneratorMap(datum, 1, -1, True, ts_image)


def duality_map(datum):
    """v |-> v^-1, theta_x |-> theta_{-x}, T_s |-> T_s^{-1}."""
    return _GeneratorMap(datum, -1, 1, True, lambda i: ts_inverse(datum, i))


def parity_map(datum):
    """v |-> -v, theta_x and T_s fixed."""
    return _GeneratorMap(datum, 1, -1, False, lambda i: HeckeElement.Ts(datum, i))


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
    return datum.memo("twist", lambda: _GeneratorMap(datum, -1, 1, False, lambda i: HeckeElement(
        datum, {datum.simple(i): GroupAlgebraElement.one(datum.rank).scale(-LS_VM2)})))


def pipeline_K_h(datum, h):
    """The composite parity o duality o koszul as a self-map of the algebra."""
    for fmap in k_side_maps(datum):
        h = fmap(h)
    return h


# -- antispherical module ------------------------------------------------

class AsphElement:
    """Element of the left antispherical module, basis {theta_x . 1}."""

    __slots__ = ("datum", "value")

    def __init__(self, datum, value=None):
        self.datum = datum
        self.value = value if value is not None else GroupAlgebraElement()

    @classmethod
    def base_point(cls, datum):
        return cls(datum, GroupAlgebraElement.one(datum.rank))

    @classmethod
    def theta(cls, datum, x, scalar=LS_ONE):
        return cls(datum, GroupAlgebraElement.theta(x, scalar))

    def __add__(self, other):
        return AsphElement(self.datum, self.value + other.value)

    def __sub__(self, other):
        return AsphElement(self.datum, self.value - other.value)

    def __neg__(self):
        return AsphElement(self.datum, -self.value)

    def __eq__(self, other):
        return isinstance(other, AsphElement) and self.value == other.value

    def __repr__(self):
        return "(%r).1" % self.value


def asph_act_left(a, m, sign_value=-1):
    """Left action of the algebra on the antispherical module.

    Lift m to the identity coefficient, multiply in the algebra, then
    collapse T_w to sign_value^{l(w)}.  ``sign_value`` is -1 for the sign
    module; the verifier's negative control passes +1.
    """
    datum = a.datum
    lifted = HeckeElement(datum, {datum.identity: m.value})
    total = {}
    for w, aw, c in _product_terms(a, lifted, 1):
        add_product(total, aw, c, -1 if sign_value == -1 and w.length % 2 else 1)
    return AsphElement(datum, from_plain(total))
