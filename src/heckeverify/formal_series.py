"""
Truncated multivariate power series over exact rationals.

Variables are y_1 .. y_n (coordinates on the dual Cartan, one per
fundamental weight) and a final grading variable r, so exponent keys are
integer tuples of length n + 1 with the r-degree in the last slot.  A
series carries an ``order``: coefficients are trusted for total degree <=
order and discarded above it.  A linear form is an int tuple, one entry
per variable; :func:`fs_exp_sum` builds exp, or any series F(l) given the
derivatives of F at 0, of forms in closed form.

Representation: one positive ``int`` denominator ``den`` shared by every
coefficient, plus a dict ``terms`` from packed monomial key to nonzero
``int`` numerator.  A key packs the exponent tuple into FIELD_BITS-bit
fields, y_1 highest and r lowest, with the total degree in a field above
them all:

    key(e) = deg(e) << (FIELD_BITS * nvars) | e_1 << ... | e_r,

so multiplying monomials is adding keys, the degree of a term is one
shift, and keys sort as (degree, exponent tuple).  No field can carry
into the next because no order above MAX_ORDER is accepted, and every
stored exponent and degree is at most the order.  The series is kept
canonical: gcd(den, *terms) == 1, and den == 1 for the zero series, so two
series are equal exactly when their orders, dens and terms are equal.
All arithmetic runs on the integer numerators, and exponent tuples
appear only at the boundaries: the constructor, ``repr`` (which writes
each coefficient as ``str(Fraction(c, den))`` would, from the ints), error
messages and the read-only ``coeffs``.  ``fractions`` is imported only
by ``coeffs`` (to Fraction), ``constant_term`` and a coefficient that is
not an int.  Weights are reduced (numerator, denominator) int pairs.
``eq`` compares the canonical truncations field by field.

Precision bookkeeping is deliberately pessimistic and mechanical:

  add / mul            -> min of the input orders
  div by a linear form -> order - 1 (one degree is consumed)
  exp sum / Weyl action / pullback / r-sign flip -> order preserved
  mul by a single monomial of degree d  -> order + d

The last rule is what keeps the graded commutation rule
t_s phi = s(phi) t_s + 2r * (phi - s(phi))/alpha-dot  order-neutral: the
division loses a degree and the multiplication by the degree-one monomial
2r wins it back.  A comparison asked for above the order both sides trust
raises InsufficientPrecision instead of quietly comparing fewer degrees.

A product is one loop: each term of the operand with fewer terms runs over
the other's terms, sorted once by key and cut by bisection at the order, so
no pair of terms whose degrees sum above the order is formed.  Division
by a linear form is exact division of each homogeneous component, solved
one power of a pivot variable at a time; a nonzero remainder raises
NotDivisible, which in practice means a formula was transcribed wrongly
upstream.  The Weyl
action is a linear substitution, which keeps degrees; for a simple
reflection s_i, the same table holds the Demazure images
(m - s_i(m))/alpha_i-dot of monomials with int coefficients, so
:func:`fs_weyl_demazure` gives both terms of the graded rule with no
division.  A series in two variables (a, r) pulls back along a |-> l, an
int linear form, by the same kind of substitution (:func:`fs_pullback`).
"""

from bisect import bisect_left
from math import comb, factorial, gcd, lcm
from operator import mul
from types import MappingProxyType

from .root_datum import apply

FIELD_BITS = 8                          # one byte: _pack and _unpack go through bytes
MAX_ORDER = (1 << FIELD_BITS) - 1
_FIELD = MAX_ORDER                      # mask of one field


class NotDivisible(ArithmeticError):
    """Exact division by a linear form left a remainder."""


class InsufficientPrecision(ValueError):
    """A comparison asked for degrees above the order a series trusts."""


class OrderTooLarge(ValueError):
    """An order above MAX_ORDER would overflow the packed exponent fields."""


def compared_order(a, b, order):
    """The degree an ``eq`` of ``a`` and ``b`` compares to: ``order``, by
    default the lower of their trusted orders, above which it raises
    InsufficientPrecision."""
    cap = min(a.order, b.order)
    if order is None:
        return cap
    if order > cap:
        raise InsufficientPrecision(
            "comparison to degree %d, but one side is trusted only to %d" % (order, cap))
    return order


def _check_order(order):
    if order > MAX_ORDER:
        raise OrderTooLarge("order %d does not fit the %d-bit exponent fields "
                            "(at most %d)" % (order, FIELD_BITS, MAX_ORDER))


def _pack(exp, nvars):
    """The key of an exponent tuple of length ``nvars`` and degree <= MAX_ORDER."""
    exp = tuple(exp)
    if len(exp) != nvars or min(exp, default=0) < 0 or sum(exp) > MAX_ORDER:
        raise ValueError("exponent %r is not %d nonnegative integers of degree "
                         "at most %d" % (exp, nvars, MAX_ORDER))
    return int.from_bytes(bytes((sum(exp),) + exp), "big")


def _unpack(key, nvars):
    """The exponent tuple of a key (FIELD_BITS is one byte per field)."""
    return tuple(key.to_bytes(nvars + 1, "big")[1:])


def _unit(nvars, i):
    """The key of the i-th variable; adding it raises that exponent by one."""
    return (1 << FIELD_BITS * nvars) | (1 << FIELD_BITS * (nvars - 1 - i))


def _check_width(a, b):
    """Refuse to combine series in different numbers of variables."""
    if a.nvars != b.nvars:
        raise ValueError("series in %d and in %d variables do not combine"
                         % (a.nvars, b.nvars))


def _check_datum_width(datum, f):
    """Refuse a series whose width is not rank + 1 (the y's and r) of ``datum``."""
    if f.nvars != datum.rank + 1:
        raise ValueError("a series in %d variables on a datum of rank %d, "
                         "which needs %d" % (f.nvars, datum.rank, datum.rank + 1))


def _exact(c):
    """``c`` if an int, else as a Fraction; floats are refused, not read as
    binary fractions."""
    if isinstance(c, int):
        return c
    if isinstance(c, float):
        raise TypeError("float coefficient %r: pass an int or a Fraction" % (c,))
    from fractions import Fraction
    return Fraction(c)


def _reduced(num, den):
    """The pair num/den in lowest terms, for ``den`` > 0."""
    g = gcd(num, den)
    return num // g, den // g


def diff(x):
    """The differential of a weight: y-coefficients = coordinates, no r."""
    return tuple(x) + (0,)


def _series(nvars, order, den, terms):
    """The canonical series terms/den: zero numerators dropped, fraction reduced.

    Takes ownership of ``terms``; ``den`` may be any nonzero int.
    """
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c}
    if den < 0:
        den = -den
        terms = {e: -c for e, c in terms.items()}
    if not terms:
        den = 1
    elif den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {e: c // g for e, c in terms.items()}
    res = FormalSeries.__new__(FormalSeries)
    res.nvars = nvars
    res.order = order
    res.den = den
    res.terms = terms
    return res


_ONE_TERMS = {0: 1}                     # key 0 is the constant monomial


def _components(terms, order, nvars):
    """The homogeneous components of degree 0..order, as a list of dicts."""
    comps = [{} for _ in range(order + 1)]
    shift = FIELD_BITS * nvars
    for e, c in terms.items():
        d = e >> shift
        if d <= order:
            comps[d][e] = c
    return comps


def _mul_add(acc, a, b):
    """acc += a * b on integer numerator dicts, with no truncation."""
    get = acc.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


class FormalSeries:
    """Sparse truncated power series: int numerators over one denominator."""

    __slots__ = ("nvars", "order", "den", "terms")

    def __init__(self, nvars, order, coeffs=None):
        _check_order(order)
        self.nvars = nvars      # n + 1 including the r slot
        self.order = order
        exact = {}
        if coeffs:
            shift = FIELD_BITS * nvars
            for exp, c in coeffs.items():
                key = _pack(exp, nvars)
                c = _exact(c)
                if c and key >> shift <= order:
                    exact[key] = c
        self.den = lcm(*(c.denominator for c in exact.values()))
        self.terms = {e: c.numerator * (self.den // c.denominator)
                      for e, c in exact.items()}

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, nvars, order):
        _check_order(order)
        return _series(nvars, order, 1, {0: 1} if order >= 0 else {})

    @classmethod
    def variable(cls, nvars, order, index, coeff=1):
        exp = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, order, {exp: coeff})

    # -- basic structure -------------------------------------------------

    @property
    def coeffs(self):
        """Read-only mapping from exponent tuple to Fraction coefficient (decoded)."""
        from fractions import Fraction
        nvars, den = self.nvars, self.den
        return MappingProxyType({_unpack(e, nvars): Fraction(c, den)
                                 for e, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        from fractions import Fraction
        return Fraction(self.terms.get(0, 0), self.den)

    def truncate(self, order):
        """Lower (never raise) the trusted order."""
        if order >= self.order:
            return self
        limit = (order + 1) << FIELD_BITS * self.nvars
        return _series(self.nvars, order, self.den,
                       {e: c for e, c in self.terms.items() if e < limit})

    def __add__(self, other):
        _check_width(self, other)
        order = min(self.order, other.order)
        a, b = self.truncate(order), other.truncate(order)
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        out = {e: c * fa for e, c in a.terms.items()}
        get = out.get
        for e, c in b.terms.items():
            out[e] = get(e, 0) + c * fb
        return _series(self.nvars, order, a.den * fa, out)

    def __neg__(self):
        return _series(self.nvars, self.order, self.den,
                       {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product at the lower order, in one loop cut at that order.

        e1 + e2 < (order + 1) << FIELD_BITS * nvars exactly when the degrees
        sum to at most the order, so bisection on the sorted keys cuts it.
        """
        _check_width(self, other)
        # products by the exact unit are common: L(T_e), series(1), K_e
        if other.den == 1 and other.terms == _ONE_TERMS:
            return self.truncate(other.order)
        if self.den == 1 and self.terms == _ONE_TERMS:
            return other.truncate(self.order)
        order = min(self.order, other.order)
        a, b = self.terms, other.terms
        a, b = (a, b) if len(a) <= len(b) else (b, a)
        keys = sorted(b)
        items = [(e, b[e]) for e in keys]
        limit = (order + 1) << FIELD_BITS * self.nvars
        out = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in items[:bisect_left(keys, limit - e1)]:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return _series(self.nvars, order, self.den * other.den, out)

    def scale(self, value):
        value = _exact(value)
        num = value.numerator
        return _series(self.nvars, self.order, self.den * value.denominator,
                       {e: c * num for e, c in self.terms.items()})

    def mul_monomial(self, exp, coeff=1):
        """Multiply by a single exact monomial; the order RISES by its degree."""
        coeff = _exact(coeff)
        num = coeff.numerator
        exp = tuple(exp)
        order = self.order + sum(exp)
        _check_order(order)
        key = _pack(exp, self.nvars)
        return _series(self.nvars, order, self.den * coeff.denominator,
                       {e + key: c * num for e, c in self.terms.items()} if num else {})

    def eq(self, other, order=None):
        """Equality of all coefficients up to ``order``.

        ``order`` defaults to the common trusted order; asking for more
        than both sides trust raises InsufficientPrecision.
        """
        _check_width(self, other)
        cap = compared_order(self, other, order)
        a, b = self.truncate(cap), other.truncate(cap)
        return a.den == b.den and a.terms == b.terms

    def __eq__(self, other):
        return (
            isinstance(other, FormalSeries)
            and self.nvars == other.nvars
            and self.order == other.order
            and self.den == other.den
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "O(%d)" % (self.order + 1)
        names = ["y%d" % (i + 1) for i in range(self.nvars - 1)] + ["r"]
        parts = []
        for key in sorted(self.terms):          # by (degree, exponent tuple)
            num, den = _reduced(self.terms[key], self.den)
            c = num if den == 1 else "%d/%d" % (num, den)
            mono = "*".join(
                n if p == 1 else "%s^%d" % (n, p)
                for n, p in zip(names, _unpack(key, self.nvars)) if p
            )
            parts.append(str(c) if not mono else "%s*%s" % (c, mono))
        return " + ".join(parts) + " + O(%d)" % (self.order + 1)


# -- analytic operations --------------------------------------------------

def _int_form(form, nvars):
    """``form`` as a tuple of ``nvars`` ints; other entries or lengths are refused."""
    form = tuple(form)
    if any(type(a) is not int for a in form):
        raise TypeError("a linear form needs int coefficients, got %r" % (form,))
    if len(form) != nvars:
        raise ValueError("form %r does not have %d coefficients" % (form, nvars))
    return form


_BERNOULLI = [(1, 1)]                   # B_0, B_1, ..., extended on demand


def bernoulli_weights(order):
    """B_0 .. B_order (B_1 = -1/2), the weights of l/(exp(l) - 1), by their recurrence."""
    b = _BERNOULLI
    for m in range(len(b), order + 1):
        den = lcm(*(d for _, d in b))
        num = sum(comb(m + 1, j) * n * (den // d) for j, (n, d) in enumerate(b))
        b.append(_reduced(-num, den * (m + 1)))
    return b[:order + 1]


def quotient_weights(order):
    """1/(k+1) for k = 0..order, the weights of (exp(l) - 1)/l."""
    return [(1, k + 1) for k in range(order + 1)]


def fs_exp_sum(nvars, order, pairs, weights=None):
    """sum of c F(l) over (int c, int form l) in ``pairs``, at ``order``.

    F is exp, or the series with derivatives F^(k)(0) = ``weights[k]``,
    each a (numerator, denominator) int pair.
    The coefficient of a monomial m = y^a r^b of degree k is
    W_k sum_t c_t l_t^m / m!, so over the common denominator order! Q, Q
    the lcm of the weight denominators, its numerator is
    (order!/m!) W_k Q sum_t c_t l_t^m.  The monomials are walked one
    variable at a time, each from its parent by one more power of that
    variable, so every per-term power is one product; a variable that no
    term uses is skipped.
    """
    cs, cols = [], []
    for c, form in pairs:
        if type(c) is not int:
            raise TypeError("exp sum needs int coefficients, got %r" % (c,))
        form = _int_form(form, nvars)
        if c:
            cs.append(c)
            cols.append(form)
    _check_order(order)
    weights = [(1, 1)] * (order + 1) if weights is None else weights[:order + 1]
    if len(weights) <= order:
        raise ValueError("%d weights for degrees 0..%d" % (len(weights), order))
    q = lcm(*(d for _, d in weights))
    scaled = [n * (q // d) for n, d in weights]     # W_k Q
    top = factorial(max(order, 0))
    nodes = [(0, 0, top, cs)] if cs and order >= 0 else []     # key, degree, order!/m!, c_t l_t^m
    for i, col in enumerate(zip(*cols)):
        if any(col):
            unit = _unit(nvars, i)
            grown = []
            for key, deg, weight, vals in nodes:
                grown.append((key, deg, weight, vals))
                for e in range(1, order - deg + 1):
                    key += unit
                    weight //= e
                    vals = list(map(mul, vals, col))
                    grown.append((key, deg + e, weight, vals))
            nodes = grown
    return _series(nvars, order, top * q, {
        key: weight * scaled[deg] * sum(vals) for key, deg, weight, vals in nodes})


def _homogeneous_div(comp, form, pivot):
    """a^D * comp / form for ``comp`` homogeneous of degree D, as int numerators.

    ``comp`` is keyed by packed monomials, ``form`` is a tuple of int
    coefficients, one per variable, and a = form[pivot].  Writing
    form = a y_p + M with M free of the pivot y_p, the quotient Q = sum_k
    Q_k y_p^k satisfies P_{k+1} = a Q_k + M Q_{k+1} on the y_p^(k+1) part
    of comp.  Solving from the top power down with R_k = a^(D-k) Q_k,

        R_k = (a^(D-1-k) P_{k+1} - M R_{k+1}) / y_p,

    needs no division, and R_{-1} = 0 is the divisibility condition.
    """
    nvars = len(form)
    lead = form[pivot]
    down = _unit(nvars, pivot)
    rest = [(_unit(nvars, i), c) for i, c in enumerate(form) if c and i != pivot]
    degree = next(iter(comp)) >> FIELD_BITS * nvars
    shift = FIELD_BITS * (nvars - 1 - pivot)
    powers = [(e >> shift) & _FIELD for e in comp]
    layers = [{} for _ in range(max(powers) + 1)]
    for (e, c), p in zip(comp.items(), powers):
        layers[p][e] = c
    top = len(layers) - 1
    quo = {}
    carry = {}                          # M R_{k+1}, at pivot power k + 1
    for k in range(top - 1, -2, -1):
        scale = lead ** (degree - 1 - k)
        layer = {e: c * scale for e, c in layers[k + 1].items()}
        get = layer.get
        for e, c in carry.items():
            layer[e] = get(e, 0) - c
        if k < 0:
            left = [e for e, c in layer.items() if c]
            if left:
                raise NotDivisible("nonzero remainder at %s" % (_unpack(min(left), nvars),))
            break
        carry = {}
        put = carry.get
        weight = lead ** k              # Q_k = R_k a^k / a^D
        for e, c in layer.items():
            if not c:
                continue
            e -= down
            quo[e] = c * weight
            for unit, fc in rest:
                me = e + unit
                carry[me] = put(me, 0) + c * fc
    return quo


def fs_div_linear(f, form):
    """Exact division by a nonzero int linear form; order drops by one."""
    form = _int_form(form, f.nvars)
    if not any(form):
        raise ZeroDivisionError("division by the zero form")
    pivot = next(i for i, c in enumerate(form) if c)
    lead = form[pivot]
    comps = _components(f.terms, f.order, f.nvars)
    if comps and comps[0]:
        raise NotDivisible("nonzero constant term %s" % f.constant_term())
    # component d of the quotient comes from component d + 1 of f; each is
    # over lead^(d+1), brought to the common denominator lead^order
    top = len(comps) - 1
    out = {}
    for d, comp in enumerate(comps):
        if comp:
            scale = lead ** (top - d)
            for e, c in _homogeneous_div(comp, form, pivot).items():
                out[e] = c * scale
    return _series(f.nvars, f.order - 1, f.den * lead ** max(top, 0), out)


class _WeylSubstitution:
    """The substitution y_i |-> differential of w(fundamental weight i).

    Built once per (datum, w) by :func:`_weyl_table`.  The image of a
    y-monomial y^a (a key with no r) is the product of the image forms; it
    is made on first use, from the image of y^a with one power of its last
    variable removed, and kept for every later series.

    For a simple reflection w = s_i the table also holds the Demazure
    images Dem_i(y^a) = (y^a - s_i(y^a))/alpha_i-dot, made the same way by
    the twisted Leibniz rule Dem(m y_j) = Dem(m) y_j + s(m) Dem(y_j).  As
    s_i(x) = x - x[i] alpha_i, Dem_i(y_j) is 1 for j = i and 0 otherwise,
    so every image has int coefficients and nothing is divided.
    """

    def __init__(self, datum, w):
        n = datum.rank
        self.nvars = n + 1
        self.units = [_unit(n + 1, i) for i in range(n)]
        self.forms = []
        for i in range(n):
            image = apply(w, tuple(1 if j == i else 0 for j in range(n)))
            self.forms.append({self.units[k]: c for k, c in enumerate(image) if c})
        self.images = {0: {0: 1}}
        self.simple = w.word[0] if w.length == 1 else None
        self.dems = {0: {}}

    def _last(self, key):
        """The index of the last variable of a nonconstant y-monomial."""
        exp = _unpack(key, self.nvars)
        return max(j for j, p in enumerate(exp) if p)

    def image_of(self, key):
        got = self.images.get(key)
        if got is None:
            i = self._last(key)
            got = {}
            _mul_add(got, self.image_of(key - self.units[i]), self.forms[i])
            got = {e: c for e, c in got.items() if c}
            self.images[key] = got
        return got

    def dem_of(self, key):
        """Dem_i of the y-monomial ``key``, for the simple reflection s_i."""
        got = self.dems.get(key)
        if got is None:
            j = self._last(key)
            unit = self.units[j]
            parent = key - unit
            got = {e + unit: c for e, c in self.dem_of(parent).items()}
            if j == self.simple:
                get = got.get
                for e, c in self.image_of(parent).items():
                    got[e] = get(e, 0) + c
                got = {e: c for e, c in got.items() if c}
            self.dems[key] = got
        return got


def _weyl_table(datum, w):
    """The substitution table of (datum, w), kept in the datum's store."""
    return datum.memo(("fs_weyl", w), lambda: _WeylSubstitution(datum, w))


def fs_weyl(datum, w, f):
    """Algebra map y_i |-> differential of w(fundamental weight i), r fixed.

    A linear substitution, so each monomial maps into its own degree: the
    image of y^a r^k is the image of y^a, from the (datum, w) table, times
    r^k, whose key is k in the r field plus k in the degree field.
    """
    _check_datum_width(datum, f)
    image_of = _weyl_table(datum, w).image_of
    shift = FIELD_BITS * f.nvars
    out = {}
    get = out.get
    for e, c in f.terms.items():
        k = e & _FIELD
        r_part = k << shift | k
        for m, cm in image_of(e - r_part).items():
            m += r_part
            out[m] = get(m, 0) + c * cm
    return _series(f.nvars, f.order, f.den, out)


def fs_pullback(f, form):
    """f(l, r) for f a series in (a, r) and l the int linear form ``form``,
    whose last variable is r, at f's order.

    a^j r^k goes to l^j r^k, each power of l one :func:`_mul_add` from the
    last, with r's part of the key shifted on as in :func:`fs_weyl`.  l has
    degree one, so truncation commutes with the pullback.
    """
    if f.nvars != 2:
        raise ValueError("a pullback along a |-> l takes a series in (a, r), "
                         "not in %d variables" % f.nvars)
    nvars = len(form)
    line = {_unit(nvars, i): c for i, c in enumerate(_int_form(form, nvars)) if c}
    shift = FIELD_BITS * nvars
    powers = [{0: 1}]
    out = {}
    get = out.get
    for e, c in f.terms.items():
        j, k = (e >> FIELD_BITS) & _FIELD, e & _FIELD
        while len(powers) <= j:
            power = {}
            _mul_add(power, powers[-1], line)
            powers.append(power)
        r_part = k << shift | k
        for m, cm in powers[j].items():
            m += r_part
            out[m] = get(m, 0) + c * cm
    return _series(nvars, f.order, f.den, out)


def fs_weyl_demazure(datum, i, f):
    """(s_i(f), 2r Dem_i(f)) in one pass over the terms of f, both at f's order.

    These are the two coefficients of Lusztig's rule
    t_s f = s(f) t_s + 2r Dem_s(f).  Both are read from the integer tables
    of (datum, s_i), so Dem_i(f) = (f - s_i(f))/alpha_i-dot keeps the
    denominator of f, and the factor 2r gives back the degree Dem_i takes.
    r is fixed by s_i and its part of each key is shifted on as in
    :func:`fs_weyl`.
    """
    _check_datum_width(datum, f)
    table = _weyl_table(datum, datum.simple(i))
    image_of, dem_of = table.image_of, table.dem_of
    nvars = f.nvars
    shift = FIELD_BITS * nvars
    r_key = _unit(nvars, nvars - 1)
    s_out, d_out = {}, {}
    s_get, d_get = s_out.get, d_out.get
    for e, c in f.terms.items():
        k = e & _FIELD
        r_part = k << shift | k
        y = e - r_part
        for m, cm in image_of(y).items():
            m += r_part
            s_out[m] = s_get(m, 0) + c * cm
        r_part += r_key
        c *= 2
        for m, cm in dem_of(y).items():
            m += r_part
            d_out[m] = d_get(m, 0) + c * cm
    return (_series(nvars, f.order, f.den, s_out),
            _series(nvars, f.order, f.den, d_out))


def fs_negate_r(f):
    """r |-> -r: negate coefficients of odd r-degree (the low bit of the key)."""
    return _series(f.nvars, f.order, f.den,
                   {e: (-c if e & 1 else c) for e, c in f.terms.items()})

