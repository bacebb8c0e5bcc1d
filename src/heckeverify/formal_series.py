"""
Truncated multivariate power series over exact rationals.

Variables are y_1 .. y_n (coordinates on the dual Cartan, one per
fundamental weight) and a final grading variable r, so exponent keys are
integer tuples of length n + 1 with the r-degree in the last slot.  A
series carries an ``order``: coefficients are trusted for total degree <=
order and discarded above it.

Representation: one positive ``int`` denominator ``den`` shared by every
coefficient, plus a dict ``nums`` from exponent tuple to nonzero ``int``
numerator.  It is kept canonical: gcd(den, *nums) == 1, and den == 1 for
the zero series, so two series are equal exactly when their orders, dens
and nums are equal.  All arithmetic runs on the integer numerators;
``fractions.Fraction`` appears only at the boundaries: the constructor,
``repr``, ``constant_term`` and the read-only ``coeffs`` mapping from
exponent to Fraction.  ``eq`` compares by cross-multiplication.

Precision bookkeeping is deliberately pessimistic and mechanical:

  add / mul            -> min of the input orders
  div by a linear form -> order - 1 (one degree is consumed)
  exp / inv / Weyl action / r-sign flip -> order preserved
  mul by a single monomial of degree d  -> order + d

The last rule is what keeps the graded commutation rule
t_s phi = s(phi) t_s + 2r * (phi - s(phi))/alpha-dot  order-neutral: the
division loses a degree and the multiplication by the degree-one monomial
2r wins it back.  A comparison asked for above the order both sides trust
raises InsufficientPrecision instead of quietly comparing fewer degrees.

Products, exp and inverse work on homogeneous components, so a pair of
terms whose degrees sum above the order is never formed.  Division by a
linear form is exact division of each homogeneous component, solved one
power of a pivot variable at a time; a nonzero remainder raises
NotDivisible, which in practice means a formula was transcribed wrongly
upstream.  The Weyl action is a linear substitution, which keeps degrees.
"""

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .root_datum import apply


class NonzeroConstantTerm(ValueError):
    """exp requires a series with zero constant term."""


class NonUnit(ValueError):
    """Inversion requires a nonzero constant term."""


class NotDivisible(ArithmeticError):
    """Exact division by a linear form left a remainder."""


class InsufficientPrecision(ValueError):
    """A comparison asked for degrees above the order a series trusts."""


def _exact(c):
    """``c`` as a Fraction; floats are refused, not read as binary fractions."""
    if isinstance(c, float):
        raise TypeError("float coefficient %r: pass an int or a Fraction" % (c,))
    return Fraction(c)


class LinearForm:
    """Degree-one form c_1 y_1 + ... + c_n y_n + c_r r."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(_exact(c) for c in coeffs)

    @property
    def nvars(self):
        return len(self.coeffs)

    def __add__(self, other):
        return LinearForm([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return LinearForm([-a for a in self.coeffs])

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return "LinearForm(%r)" % (self.coeffs,)


def diff(x):
    """The differential of a weight: y-coefficients = coordinates, no r."""
    x = tuple(x)
    return LinearForm(list(x) + [0])


class _Coefficients(Mapping):
    """Read-only view {exponent: Fraction} of a series' numerators."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums, den):
        self._nums = nums
        self._den = den

    def __getitem__(self, exp):
        return Fraction(self._nums[exp], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self):
        return len(self._nums)

    def __repr__(self):
        return repr(dict(self))


def _series(nvars, order, den, nums):
    """The canonical series nums/den: zero numerators dropped, fraction reduced.

    Takes ownership of ``nums``; ``den`` may be any nonzero int.
    """
    if 0 in nums.values():
        nums = {e: c for e, c in nums.items() if c}
    if den < 0:
        den = -den
        nums = {e: -c for e, c in nums.items()}
    if not nums:
        den = 1
    elif den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
    res = FormalSeries.__new__(FormalSeries)
    res.nvars = nvars
    res.order = order
    res.den = den
    res.nums = nums
    return res


def _components(nums, order):
    """The homogeneous components of degree 0..order, as a list of dicts."""
    comps = [{} for _ in range(order + 1)]
    for e, c in nums.items():
        d = sum(e)
        if d <= order:
            comps[d][e] = c
    return comps


def _mul_add(acc, a, b, factor=1):
    """acc += factor * a * b on integer numerator dicts, with no truncation."""
    get = acc.get
    for e1, c1 in a.items():
        c1 *= factor
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2


class FormalSeries:
    """Sparse truncated power series: int numerators over one denominator."""

    __slots__ = ("nvars", "order", "den", "nums")

    def __init__(self, nvars, order, coeffs=None):
        self.nvars = nvars      # n + 1 including the r slot
        self.order = order
        exact = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = _exact(c)
                if c and sum(exp) <= order:
                    exact[tuple(exp)] = c
        self.den = lcm(*(c.denominator for c in exact.values()))
        self.nums = {e: c.numerator * (self.den // c.denominator)
                     for e, c in exact.items()}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars, order):
        return cls(nvars, order)

    @classmethod
    def const(cls, nvars, order, value):
        return cls(nvars, order, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars, order):
        return _series(nvars, order, 1, {(0,) * nvars: 1} if order >= 0 else {})

    @classmethod
    def variable(cls, nvars, order, index, coeff=1):
        exp = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, order, {exp: coeff})

    @classmethod
    def r(cls, nvars, order, coeff=1):
        return cls.variable(nvars, order, nvars - 1, coeff)

    @classmethod
    def from_linear(cls, form, order):
        n = form.nvars
        coeffs = {}
        for i, c in enumerate(form.coeffs):
            if c:
                coeffs[tuple(1 if j == i else 0 for j in range(n))] = c
        return cls(n, order, coeffs)

    # -- basic structure -------------------------------------------------

    @property
    def coeffs(self):
        """Read-only mapping from exponent tuple to Fraction coefficient."""
        return _Coefficients(self.nums, self.den)

    def is_zero(self):
        return not self.nums

    def constant_term(self):
        return Fraction(self.nums.get((0,) * self.nvars, 0), self.den)

    def truncate(self, order):
        """Lower (never raise) the trusted order."""
        if order >= self.order:
            return self
        return _series(self.nvars, order, self.den,
                       {e: c for e, c in self.nums.items() if sum(e) <= order})

    def __add__(self, other):
        order = min(self.order, other.order)
        a, b = self.truncate(order), other.truncate(order)
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        out = {e: c * fa for e, c in a.nums.items()}
        get = out.get
        for e, c in b.nums.items():
            out[e] = get(e, 0) + c * fb
        return _series(self.nvars, order, a.den * fa, out)

    def __neg__(self):
        return _series(self.nvars, self.order, self.den,
                       {e: -c for e, c in self.nums.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        order = min(self.order, other.order)
        left = _components(self.nums, order)
        right = _components(other.nums, order)
        out = {}
        for d1, a in enumerate(left):
            if a:
                for b in right[:order + 1 - d1]:
                    if b:
                        _mul_add(out, a, b)
        return _series(self.nvars, order, self.den * other.den, out)

    def scale(self, value):
        value = _exact(value)
        if not value:
            return FormalSeries.zero(self.nvars, self.order)
        num = value.numerator
        return _series(self.nvars, self.order, self.den * value.denominator,
                       {e: c * num for e, c in self.nums.items()})

    def mul_monomial(self, exp, coeff=1):
        """Multiply by a single exact monomial; the order RISES by its degree."""
        coeff = _exact(coeff)
        num = coeff.numerator
        exp = tuple(exp)
        return _series(self.nvars, self.order + sum(exp),
                       self.den * coeff.denominator,
                       {tuple(map(add, e, exp)): c * num
                        for e, c in self.nums.items()} if num else {})

    def eq(self, other, order=None):
        """Equality of all coefficients up to ``order``.

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
        a, b = self.truncate(cap), other.truncate(cap)
        return a.nums.keys() == b.nums.keys() and all(
            c * b.den == b.nums[e] * a.den for e, c in a.nums.items())

    def __eq__(self, other):
        return (
            isinstance(other, FormalSeries)
            and self.order == other.order
            and self.den == other.den
            and self.nums == other.nums
        )

    def __repr__(self):
        if not self.nums:
            return "O(%d)" % (self.order + 1)
        names = ["y%d" % (i + 1) for i in range(self.nvars - 1)] + ["r"]
        parts = []
        for e in sorted(self.nums, key=lambda t: (sum(t), t)):
            c = Fraction(self.nums[e], self.den)
            mono = "*".join(
                n if p == 1 else "%s^%d" % (n, p)
                for n, p in zip(names, e) if p
            )
            parts.append(str(c) if not mono else "%s*%s" % (c, mono))
        return " + ".join(parts) + " + O(%d)" % (self.order + 1)


# -- analytic operations --------------------------------------------------

def fs_exp(f):
    """exp of a series with zero constant term, same order.

    With g = exp(f) and E the degree operator, E g = (E f) g gives the
    homogeneous components  d g_d = sum_{j=1..d} j f_j g_{d-j}.  With
    f = N/den they are kept as integers G_d = g_d den^d d!:

        G_d = sum_j j N_j G_{d-j} den^(j-1) (d-1)!/(d-j)!
    """
    if f.nums.get((0,) * f.nvars):
        raise NonzeroConstantTerm("exp needs zero constant term, got %s" % f.constant_term())
    order, den = f.order, f.den
    parts = _components(f.nums, order)
    g = [{(0,) * f.nvars: 1}] if order >= 0 else []
    fact = 1
    for d in range(1, order + 1):
        acc = {}
        ratio = 1                       # (d-1)!/(d-j)!
        for j in range(1, d + 1):
            if parts[j] and g[d - j]:
                _mul_add(acc, parts[j], g[d - j], j * den ** (j - 1) * ratio)
            ratio *= d - j
        g.append({e: c for e, c in acc.items() if c})
        fact *= d
    # g = sum_d G_d / (den^d d!) over the common denominator den^order order!
    out = {}
    scale = 1                           # den^(order-d) order!/d!
    for d in range(order, -1, -1):
        for e, c in g[d].items():
            out[e] = c * scale
        scale *= den * d
    return _series(f.nvars, order, den ** max(order, 0) * fact, out)


def fs_inv(f):
    """Multiplicative inverse of a unit series, same order.

    With f = N/den and c = N_0 the integer constant term, 1/N has
    homogeneous components Q_d / c^(d+1), where Q_0 = 1 and

        Q_d = - sum_{j=1..d} N_j Q_{d-j} c^(j-1),

    so 1/f = den sum_d Q_d c^(order-d) / c^(order+1).
    """
    order = f.order
    zero = (0,) * f.nvars
    c = f.nums.get(zero)
    if not c:
        raise NonUnit("inverse needs nonzero constant term")
    parts = _components(f.nums, order)
    q = [{zero: 1}]
    for d in range(1, order + 1):
        acc = {}
        power = -1                      # -c^(j-1)
        for j in range(1, d + 1):
            if parts[j] and q[d - j]:
                _mul_add(acc, parts[j], q[d - j], power)
            power *= c
        q.append({e: v for e, v in acc.items() if v})
    out = {}
    scale = f.den                       # den c^(order-d)
    for d in range(order, -1, -1):
        for e, v in q[d].items():
            out[e] = v * scale
        scale *= c
    return _series(f.nvars, order, c ** (order + 1), out)


def _homogeneous_div(comp, form, pivot):
    """a^D * comp / form for ``comp`` homogeneous of degree D, as int numerators.

    ``form`` is a list of int coefficients and a = form[pivot].  Writing
    form = a y_p + M with M free of the pivot y_p, the quotient Q = sum_k
    Q_k y_p^k satisfies P_{k+1} = a Q_k + M Q_{k+1} on the y_p^(k+1) part
    of comp.  Solving from the top power down with R_k = a^(D-k) Q_k,

        R_k = (a^(D-1-k) P_{k+1} - M R_{k+1}) / y_p,

    needs no division, and R_{-1} = 0 is the divisibility condition.
    """
    lead = form[pivot]
    rest = [(i, c) for i, c in enumerate(form) if c and i != pivot]
    degree = sum(next(iter(comp)))
    top = max(e[pivot] for e in comp)
    layers = [{} for _ in range(top + 1)]
    for e, c in comp.items():
        layers[e[pivot]][e] = c
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
                raise NotDivisible("nonzero remainder at %s" % (min(left),))
            break
        carry = {}
        put = carry.get
        weight = lead ** k              # Q_k = R_k a^k / a^D
        for e, c in layer.items():
            if not c:
                continue
            e = e[:pivot] + (e[pivot] - 1,) + e[pivot + 1:]
            quo[e] = c * weight
            for i, fc in rest:
                me = e[:i] + (e[i] + 1,) + e[i + 1:]
                carry[me] = put(me, 0) + c * fc
    return quo


def fs_div_linear(f, form):
    """Exact division by a nonzero degree-one form; order drops by one."""
    if form.is_zero():
        raise ZeroDivisionError("division by the zero form")
    fden = lcm(*(c.denominator for c in form.coeffs))
    ints = [c.numerator * (fden // c.denominator) for c in form.coeffs]
    pivot = next(i for i, c in enumerate(ints) if c)
    lead = ints[pivot]
    comps = _components(f.nums, f.order)
    if comps and comps[0]:
        raise NotDivisible("nonzero constant term %s" % f.constant_term())
    # component d of the quotient comes from component d + 1 of f; each is
    # over lead^(d+1), brought to the common denominator lead^order
    top = len(comps) - 1
    out = {}
    for d, comp in enumerate(comps):
        if comp:
            scale = lead ** (top - d) * fden
            for e, c in _homogeneous_div(comp, ints, pivot).items():
                out[e] = c * scale
    return _series(f.nvars, f.order - 1, f.den * lead ** max(top, 0), out)


def fs_weyl(datum, w, f):
    """Algebra map y_i |-> differential of w(fundamental weight i), r fixed.

    A linear substitution, so each monomial maps into its own degree: the
    image of y^a r^k is the product of the image forms, memoized over the
    y-exponent a, times r^k.
    """
    n = datum.rank
    assert f.nvars == n + 1
    forms = []
    for i in range(n):
        image = apply(w, tuple(1 if j == i else 0 for j in range(n)))
        forms.append({tuple(1 if j == k else 0 for j in range(n + 1)): c
                      for k, c in enumerate(image) if c})
    images = {(0,) * n: {(0,) * (n + 1): 1}}

    def image_of(key):
        got = images.get(key)
        if got is None:
            i = max(j for j, p in enumerate(key) if p)
            got = {}
            _mul_add(got, image_of(key[:i] + (key[i] - 1,) + key[i + 1:]), forms[i])
            got = {e: c for e, c in got.items() if c}
            images[key] = got
        return got

    out = {}
    get = out.get
    for e, c in f.nums.items():
        k = (e[-1],)
        for m, cm in image_of(e[:-1]).items():
            m = m[:-1] + k
            out[m] = get(m, 0) + c * cm
    return _series(f.nvars, f.order, f.den, out)


def fs_negate_r(f):
    """r |-> -r: negate coefficients of odd r-degree."""
    return _series(f.nvars, f.order, f.den,
                   {e: (-c if e[-1] % 2 else c) for e, c in f.nums.items()})


def fs_set_r_zero(f):
    """Specialize r = 0 (drop every monomial with positive r-degree)."""
    return _series(f.nvars, f.order, f.den,
                   {e: c for e, c in f.nums.items() if e[-1] == 0})
