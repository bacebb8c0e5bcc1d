"""Differential tests of the series kernel against a plain reference.

The reference below stores a truncated series as (order, {exponent:
Fraction}) and multiplies, exponentiates, inverts and substitutes by the
textbook definitions.  It shares no code with ``formal_series``; the kernel
is checked against it on random series at mixed orders, and every result
is checked to be in canonical form, on which the structural ``==`` relies.
"""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heckeverify.formal_series import (
    FormalSeries,
    InsufficientPrecision,
    LinearForm,
    NotDivisible,
    fs_div_linear,
    fs_exp,
    fs_inv,
    fs_negate_r,
    fs_set_r_zero,
    fs_weyl,
)
from heckeverify.graded_hecke import GradedElement
from heckeverify.root_datum import apply, build_root_datum, cartan_matrix

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.too_slow])

DATA = {2: [build_root_datum(cartan_matrix("A", 1))],
        3: [build_root_datum(cartan_matrix(t, 2)) for t in ("A", "B", "G")]}


# -- reference --------------------------------------------------------------

def ref(order, coeffs):
    return order, {e: Fraction(c) for e, c in coeffs.items() if c and sum(e) <= order}


def ref_add(a, b):
    out = dict(a[1])
    for e, c in b[1].items():
        out[e] = out.get(e, 0) + c
    return ref(min(a[0], b[0]), out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a[1].items():
        for e2, c2 in b[1].items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref(min(a[0], b[0]), out)


def ref_scale(a, k):
    return ref(a[0], {e: c * k for e, c in a[1].items()})


def ref_one(nvars, order):
    return ref(order, {(0,) * nvars: 1})


def ref_power_series(a, nvars, weights):
    """sum_k weights[k] a^k, k = 0..len(weights)-1."""
    out, power = ref(a[0], {}), ref_one(nvars, a[0])
    for w in weights:
        out = ref_add(out, ref_scale(power, w))
        power = ref_mul(power, a)
    return out


def ref_substitute(a, images, order):
    """y_i -> images[i], r fixed."""
    out = ref(order, {})
    for e, c in a[1].items():
        term = ref(order, {(0,) * (len(e) - 1) + (e[-1],): c})
        for i, p in enumerate(e[:-1]):
            for _ in range(p):
                term = ref_mul(term, images[i])
        out = ref_add(out, term)
    return out


# -- strategies and helpers -------------------------------------------------

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
nonzero = rationals.filter(bool)


@st.composite
def raw_series(draw, nvars, max_order=5):
    """(order, coefficient dict); some exponents lie above the order."""
    order = draw(st.integers(0, max_order))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return order, draw(st.dictionaries(exps, rationals, max_size=6))


def build(nvars, raw):
    return FormalSeries(nvars, raw[0], raw[1])


def as_ref(s):
    assert_canonical(s)
    return s.order, dict(s.coeffs)


def assert_canonical(s):
    assert type(s.den) is int and s.den > 0
    assert all(type(c) is int and c for c in s.nums.values())
    assert all(len(e) == s.nvars and sum(e) <= s.order for e in s.nums)
    if s.nums:
        assert gcd(s.den, *s.nums.values()) == 1
    else:
        assert s.den == 1


nvars_st = st.sampled_from([2, 3])


# -- ring operations --------------------------------------------------------

@KERNEL
@given(st.data(), nvars_st)
def test_add_sub_neg_mul_match_reference(data, nvars):
    ra, rb = data.draw(raw_series(nvars)), data.draw(raw_series(nvars))
    a, b = build(nvars, ra), build(nvars, rb)
    ea, eb = ref(*ra), ref(*rb)
    assert as_ref(a + b) == ref_add(ea, eb)
    assert as_ref(-a) == ref_scale(ea, -1)
    assert as_ref(a - b) == ref_add(ea, ref_scale(eb, -1))
    assert as_ref(a * b) == ref_mul(ea, eb)
    # the same value reached two ways is structurally equal
    assert (a + b) - b == a.truncate(min(a.order, b.order))


@KERNEL
@given(st.data(), nvars_st, rationals)
def test_scale_matches_reference(data, nvars, k):
    raw = data.draw(raw_series(nvars))
    a = build(nvars, raw)
    assert as_ref(a.scale(k)) == ref_scale(ref(*raw), k)
    assert as_ref(a.scale(-k)) == ref_scale(ref(*raw), -k)
    assert as_ref(a.scale(0)) == (raw[0], {})


@KERNEL
@given(st.data(), nvars_st, rationals)
def test_mul_monomial_matches_reference(data, nvars, k):
    raw = data.draw(raw_series(nvars))
    mono = data.draw(st.tuples(*[st.integers(0, 2)] * nvars))
    got = build(nvars, raw).mul_monomial(mono, k)
    d = sum(mono)
    want = ref_mul(ref(raw[0] + d, ref(*raw)[1]), ref(raw[0] + d, {mono: k}))
    assert as_ref(got) == want


@KERNEL
@given(st.data(), nvars_st, st.integers(-1, 6))
def test_truncate_matches_reference(data, nvars, k):
    raw = data.draw(raw_series(nvars))
    got = build(nvars, raw).truncate(k)
    assert as_ref(got) == ref(min(k, raw[0]), raw[1])


@KERNEL
@given(st.data(), nvars_st)
def test_eq_matches_reference_and_refuses_untrusted_degrees(data, nvars):
    ra, rb = data.draw(raw_series(nvars)), data.draw(raw_series(nvars))
    a, b = build(nvars, ra), build(nvars, rb)
    cap = min(ra[0], rb[0])
    for k in range(cap + 1):
        assert a.eq(b, k) == (ref(k, ra[1]) == ref(k, rb[1]))
    assert a.eq(b) == a.eq(b, cap)
    with pytest.raises(InsufficientPrecision):
        a.eq(b, cap + 1)


# -- analytic operations ----------------------------------------------------

@KERNEL
@given(st.data(), nvars_st)
def test_exp_matches_reference(data, nvars):
    order, coeffs = data.draw(raw_series(nvars))
    coeffs.pop((0,) * nvars, None)
    got = fs_exp(FormalSeries(nvars, order, coeffs))
    weights = [Fraction(1, factorial(k)) for k in range(order + 1)]
    assert as_ref(got) == ref_power_series(ref(order, coeffs), nvars, weights)


@KERNEL
@given(st.data(), nvars_st, nonzero)
def test_inv_matches_reference(data, nvars, c):
    order, coeffs = data.draw(raw_series(nvars))
    coeffs[(0,) * nvars] = c
    got = fs_inv(FormalSeries(nvars, order, coeffs))
    # f = c (1 - u)  =>  1/f = (1/c) sum_k u^k
    u = ref_add(ref_one(nvars, order), ref_scale(ref(order, coeffs), -1 / c))
    want = ref_scale(ref_power_series(u, nvars, [1] * (order + 1)), 1 / c)
    assert as_ref(got) == want


linear_coeffs = st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                         min_size=3, max_size=3).filter(any)


@KERNEL
@given(st.data(), linear_coeffs)
def test_div_linear_of_a_multiple_returns_the_factor(data, form):
    order, coeffs = data.draw(raw_series(3, max_order=4))
    g = ref(order, coeffs)
    lin = ref(order + 1, {tuple(int(j == i) for j in range(3)): c for i, c in enumerate(form)})
    f = ref_mul(ref(order + 1, g[1]), lin)
    q = fs_div_linear(FormalSeries(3, order + 1, f[1]), LinearForm(form))
    assert as_ref(q) == g
    # multiply back
    assert ref_mul(ref(order + 1, dict(q.coeffs)), lin) == f


@KERNEL
@given(st.data(), linear_coeffs, nonzero, st.integers(1, 5))
def test_div_linear_rejects_a_remainder(data, form, c, d):
    order, coeffs = data.draw(raw_series(3, max_order=4))
    lin = ref(order + 1, {tuple(int(j == i) for j in range(3)): c for i, c in enumerate(form)})
    f = ref_mul(ref(order + 1, coeffs), lin)
    # y_k^d with form not a multiple of y_k: never divisible
    k = (next(i for i, a in enumerate(form) if a) + 1) % 3
    d = min(d, order + 1)
    f = ref_add(f, ref(order + 1, {tuple(d if j == k else 0 for j in range(3)): c}))
    with pytest.raises(NotDivisible):
        fs_div_linear(FormalSeries(3, order + 1, f[1]), LinearForm(form))


@KERNEL
@given(st.data(), nvars_st)
def test_weyl_matches_substitution(data, nvars):
    datum = data.draw(st.sampled_from(DATA[nvars]))
    w = data.draw(st.sampled_from(datum.weyl))
    raw = data.draw(raw_series(nvars))
    n = datum.rank
    images = []
    for i in range(n):
        image = apply(w, tuple(int(j == i) for j in range(n)))
        images.append(ref(raw[0], {tuple(int(j == k) for j in range(n + 1)): c
                                   for k, c in enumerate(image)}))
    got = fs_weyl(datum, w, build(nvars, raw))
    assert as_ref(got) == ref_substitute(ref(*raw), images, raw[0])


@KERNEL
@given(st.data(), nvars_st)
def test_r_maps_match_reference(data, nvars):
    raw = data.draw(raw_series(nvars))
    a = build(nvars, raw)
    order, coeffs = ref(*raw)
    assert as_ref(fs_negate_r(a)) == (order, {e: -c if e[-1] % 2 else c
                                              for e, c in coeffs.items()})
    assert as_ref(fs_set_r_zero(a)) == (order, {e: c for e, c in coeffs.items()
                                                if e[-1] == 0})


# -- boundaries ---------------------------------------------------------------

def test_eq_above_trusted_order_raises():
    with pytest.raises(InsufficientPrecision):
        FormalSeries(3, 2).eq(FormalSeries(3, 6, {(3, 0, 0): 1}), 6)
    assert FormalSeries(3, 2).eq(FormalSeries(3, 6, {(3, 0, 0): 1}), 2)


def test_graded_eq_above_trusted_order_raises():
    datum = DATA[3][0]
    low = GradedElement.one(datum, 2)
    high = GradedElement.one(datum, 6)
    assert low.eq(high, 2)
    with pytest.raises(InsufficientPrecision):
        low.eq(high, 6)


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        FormalSeries(2, 3, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        FormalSeries.const(2, 3, 1.0)
    with pytest.raises(TypeError):
        FormalSeries.one(2, 3).scale(0.5)
    with pytest.raises(TypeError):
        FormalSeries.one(2, 3).mul_monomial((1, 0), 2.0)
    with pytest.raises(TypeError):
        LinearForm([0.5, 0])


def test_coeffs_is_a_read_only_fraction_mapping():
    f = FormalSeries(2, 3, {(1, 0): Fraction(1, 2), (0, 2): 3})
    assert dict(f.coeffs) == {(1, 0): Fraction(1, 2), (0, 2): Fraction(3)}
    assert (f.den, f.nums) == (2, {(1, 0): 1, (0, 2): 6})
    with pytest.raises(TypeError):
        f.coeffs[(1, 0)] = 1


def test_negative_denominators_are_normalized():
    # a constant term of -1 and a pivot coefficient of -1 both give den = -1
    f = FormalSeries(2, 2, {(0, 0): -1, (1, 0): 1})
    inv = fs_inv(f)
    assert_canonical(inv)
    assert dict(inv.coeffs) == {(0, 0): -1, (1, 0): -1, (2, 0): -1}
    q = fs_div_linear(FormalSeries(2, 2, {(1, 0): 1, (1, 1): 1}), LinearForm([-1, 0]))
    assert_canonical(q)
    assert dict(q.coeffs) == {(0, 0): -1, (0, 1): -1}
