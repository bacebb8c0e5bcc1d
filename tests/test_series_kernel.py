"""Differential tests of the series kernel against a plain reference.

The reference below stores a truncated series as (order, {exponent:
Fraction}) and multiplies, sums power series and substitutes by the
textbook definitions.  It shares no code with ``formal_series``; the kernel
is checked against it on random series at mixed orders, and every result
is checked to be in canonical form, on which the structural ``==`` relies.
"""

import pathlib
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import heckeverify
from heckeverify.formal_series import (
    MAX_ORDER,
    FormalSeries,
    InsufficientPrecision,
    NotDivisible,
    OrderTooLarge,
    _exact,
    bernoulli_weights,
    fs_div_linear,
    fs_exp_sum,
    fs_negate_r,
    fs_pullback,
    fs_weyl,
    fs_weyl_demazure,
    quotient_weights,
)
from heckeverify.graded_hecke import GradedElement
from heckeverify.lusztig import unit_factor
from heckeverify.root_datum import apply, build_root_datum, cartan_matrix, read_cartan_file

from linear_series import (
    bernoulli,
    bernoulli_quotient,
    e_B,
    e_B_inverse,
    exp_linear,
    fs_exp_quotient,
)
from weyl_group import weyl_elements

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


def ref_linear(form, order):
    """The linear form sum_i form[i] x_i at ``order``."""
    n = len(form)
    return ref(order, {tuple(int(j == i) for j in range(n)): a for i, a in enumerate(form)})


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


def nums(s):
    """Exponent tuple to numerator over ``s.den``."""
    return {e: c * s.den for e, c in s.coeffs.items()}


def assert_canonical(s):
    assert type(s.den) is int and s.den > 0
    assert all(type(c) is int and c for c in s.terms.values())
    assert all(len(e) == s.nvars and sum(e) <= s.order for e in s.coeffs)
    if s.terms:
        assert gcd(s.den, *s.terms.values()) == 1
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
@given(st.data(), nvars_st, st.integers(0, 6))
def test_mul_by_the_unit_matches_the_general_product(data, nvars, k):
    ra = data.draw(raw_series(nvars))
    a, one = build(nvars, ra), FormalSeries.one(nvars, k)
    expected = ref_mul(ref(*ra), ref_one(nvars, k))
    # the constant 2 takes the general path; halving it back is exact
    general = (a * FormalSeries.one(nvars, k).scale(2)).scale(Fraction(1, 2))
    for product in (a * one, one * a):
        assert as_ref(product) == expected
        assert product == general == FormalSeries(nvars, *expected)
        assert product.order == min(a.order, k)


# term counts for the product tests: raw_series draws at most 6 terms,
# too few for the loop over the smaller operand to matter
SIZES = {"zero": (0, 0), "sparse": (1, 3), "dense": (24, 40), "any": (0, 40)}


@st.composite
def sized_series(draw, nvars, size):
    """(order 0-8, up to 40 terms); exponents reach degree 12 or 9, so some
    terms lie above the order and many pairs sum above it."""
    low, high = SIZES[size]
    order = draw(st.integers(0, 8))
    exps = st.tuples(*[st.integers(0, 6 if nvars == 2 else 3)] * nvars)
    return order, draw(st.dictionaries(exps, nonzero, min_size=low, max_size=high))


@KERNEL
@given(st.data(), nvars_st, st.sampled_from([
    ("dense", "sparse"), ("sparse", "dense"), ("dense", "dense"),
    ("dense", "zero"), ("zero", "sparse"), ("any", "any")]))
def test_mul_of_operands_of_unequal_size_matches_reference(data, nvars, sizes):
    ra, rb = (data.draw(sized_series(nvars, size)) for size in sizes)
    a, b = build(nvars, ra), build(nvars, rb)
    want = ref_mul(ref(*ra), ref(*rb))
    ab, ba = a * b, b * a
    assert as_ref(ab) == want           # as_ref also checks the canonical form
    assert as_ref(ba) == want
    assert ab == ba


def test_mul_of_a_dense_and_a_smaller_operand_matches_reference():
    # every monomial of degree <= 6 in y1, y2, r (84 terms) against every
    # one in y1, y2 (28 terms), at orders where most pairs lie above the cut
    dense = {(i, j, k): i - 2 * j + 3 * k + 1 for i in range(7) for j in range(7)
             for k in range(7) if i + j + k <= 6}
    small = {(i, j, 0): Fraction(j - i, i + 1) or 5 for i in range(7) for j in range(7)
             if i + j <= 6}
    assert (len(dense), len(small)) == (84, 28)
    for da, db in [(6, 6), (6, 3), (2, 6), (0, 4)]:
        a, b = FormalSeries(3, da, dense), FormalSeries(3, db, small)
        want = ref_mul(ref(da, dense), ref(db, small))
        assert as_ref(a * b) == want
        assert as_ref(b * a) == want


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


def _fractions_up_to(s, degree):
    return {e: c for e, c in s.coeffs.items() if sum(e) <= degree}


@KERNEL
@given(st.data(), nvars_st, nonzero)
def test_eq_agrees_with_the_fractions_on_values_reached_two_ways(data, nvars, k):
    # eq compares canonical numerators and denominators, not Fractions; on
    # one value built along different paths both must agree at every degree
    f, g, h = (build(nvars, data.draw(raw_series(nvars))) for _ in range(3))
    cap = min(f.order, g.order)
    same = [(f * g, g * f), ((f + g) - g, f.truncate(cap)),
            (f.scale(k).scale(1 / k), f)]
    # equal numerators over different denominators
    y = FormalSeries.variable(nvars, f.order + 1, 0)
    differ = [(y, y.scale(Fraction(1, k.denominator + 1))), (f, h), (f, f.scale(k)),
              (f * g, f * h)]
    for a, b in same + differ:
        for degree in range(min(a.order, b.order) + 1):
            want = _fractions_up_to(a, degree) == _fractions_up_to(b, degree)
            assert a.eq(b, degree) == want
    assert all(a.eq(b) for a, b in same)


# -- analytic operations ----------------------------------------------------

def ref_exp_sum(nvars, order, pairs):
    """sum_t c_t exp(l_t) by the exponential series of each linear form."""
    weights = [Fraction(1, factorial(k)) for k in range(order + 1)]
    out = ref(order, {})
    for c, form in pairs:
        linear = ref(order, {tuple(int(j == i) for j in range(nvars)): a
                             for i, a in enumerate(form)})
        out = ref_add(out, ref_scale(ref_power_series(linear, nvars, weights), c))
    return out


@KERNEL
@given(st.data(), st.integers(2, 4), st.integers(0, 8))
def test_exp_sum_matches_per_term_exp_and_reference(data, nvars, order):
    # ranks 1-3 plus r; forms are drawn from a short list so weights repeat
    forms = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * nvars), min_size=1, max_size=3))
    pairs = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(forms)), max_size=4))
    got = fs_exp_sum(nvars, order, pairs)
    per_term = FormalSeries(nvars, order)
    for c, form in pairs:
        per_term = per_term + exp_linear(form, order).scale(c)
    assert got == per_term
    assert as_ref(got) == ref_exp_sum(nvars, order, pairs)


def test_exp_sum_edge_cases_and_refusals():
    form = (1, -2, 3)
    exp_form = exp_linear(form, 5)
    assert fs_exp_sum(3, 5, []) == FormalSeries(3, 5)
    assert fs_exp_sum(3, 5, [(0, form), (0, (4, 4, 4))]) == FormalSeries(3, 5)
    assert fs_exp_sum(3, 5, [(2, form), (-2, form)]) == FormalSeries(3, 5)
    assert fs_exp_sum(3, 5, [(2, form), (1, form)]) == exp_form.scale(3)
    assert fs_exp_sum(3, 5, [(5, (0, 0, 0))]) == FormalSeries.one(3, 5).scale(5)
    assert fs_exp_sum(3, 0, [(1, form), (2, (4, 0, 1))]) == FormalSeries.one(3, 0).scale(3)
    for c, bad in [(1.0, form), (Fraction(1), form), (1, (1, 0.5, 0)), (1, (Fraction(1, 2), 0, 0))]:
        with pytest.raises(TypeError):
            fs_exp_sum(3, 5, [(c, bad)])
    for short_or_long in [(1, 0), (1, 0, 0, 0)]:
        with pytest.raises(ValueError):
            fs_exp_sum(3, 5, [(1, form), (1, short_or_long)])


@KERNEL
@given(st.data(), st.integers(2, 4), st.integers(0, 8))
def test_exp_quotient_matches_the_general_exp(data, nvars, order):
    form = data.draw(st.tuples(*[st.integers(-3, 3)] * nvars).filter(any))
    got = fs_exp_sum(nvars, order, [(1, form)], quotient_weights(order))
    assert_canonical(got)
    assert got == fs_exp_quotient(form, order)


# (name, derivative weights W_k for fs_exp_sum, sign of the form fed to the
# walk, reference coefficient of l^k): exp, (e^l - 1)/l, l/(e^l - 1), and
# a/(1 - e^{-a}) as the Bernoulli weights on -a against B_k^+ = (-1)^k B_k
WEIGHT_FAMILIES = [
    ("exp", lambda order: None, 1, lambda k: Fraction(1, factorial(k))),
    ("quotient", quotient_weights, 1, lambda k: Fraction(1, factorial(k + 1))),
    ("bernoulli", bernoulli_weights, 1, lambda k: bernoulli(k)[k] / factorial(k)),
    ("todd", bernoulli_weights, -1, lambda k: (-1) ** k * bernoulli(k)[k] / factorial(k)),
]


@KERNEL
@given(st.data(), st.integers(2, 4), st.integers(0, 8), st.sampled_from(WEIGHT_FAMILIES))
def test_weighted_walk_matches_the_reference_power_series(data, nvars, order, family):
    _, weights, sign, coefficient = family
    forms = st.tuples(*[st.integers(-4, 4)] * nvars)
    pairs = data.draw(st.lists(st.tuples(st.integers(-3, 3), forms), min_size=1, max_size=2))
    got = fs_exp_sum(nvars, order, [(c, tuple(sign * a for a in form)) for c, form in pairs],
                     weights(order))
    assert_canonical(got)
    want = ref(order, {})
    for c, form in pairs:
        series = ref_power_series(ref_linear(form, order), nvars,
                                  [coefficient(k) for k in range(order + 1)])
        want = ref_add(want, ref_scale(series, c))
    assert as_ref(got) == want


def test_weighted_walk_needs_a_weight_per_degree():
    assert fs_exp_sum(2, 3, [(1, (1, 2))], [(1, 1)] * 4 + [(5, 1)]) == fs_exp_sum(
        2, 3, [(1, (1, 2))])
    with pytest.raises(ValueError):
        fs_exp_sum(2, 3, [(1, (1, 2))], [(1, 1)] * 3)
    with pytest.raises(TypeError):
        fs_exp_sum(2, 3, [(1, (1, 2))], [(1, 1), 0.5, (1, 1), (1, 1)])


@KERNEL
@given(st.data(), st.sampled_from([-2, 2, 3]), st.integers(0, 8))
def test_unit_factor_matches_the_general_exp(data, r_coeff, order):
    datum = data.draw(st.sampled_from(DATA[2] + DATA[3]))
    i = data.draw(st.integers(0, datum.rank - 1))
    alpha = datum.simple_roots[i]
    want = (fs_exp_quotient(alpha + (r_coeff,), order)
            * bernoulli_quotient(alpha + (0,), order))
    assert unit_factor(datum, i, order, r_coeff) == want


linear_coeffs = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)


@KERNEL
@given(st.data(), linear_coeffs)
def test_div_linear_of_a_multiple_returns_the_factor(data, form):
    order, coeffs = data.draw(raw_series(3, max_order=4))
    g = ref(order, coeffs)
    lin = ref(order + 1, {tuple(int(j == i) for j in range(3)): c for i, c in enumerate(form)})
    f = ref_mul(ref(order + 1, g[1]), lin)
    q = fs_div_linear(FormalSeries(3, order + 1, f[1]), form)
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
        fs_div_linear(FormalSeries(3, order + 1, f[1]), form)


@KERNEL
@given(st.data(), nvars_st)
def test_weyl_matches_substitution(data, nvars):
    datum = data.draw(st.sampled_from(DATA[nvars]))
    w = data.draw(st.sampled_from(weyl_elements(datum)))
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
@given(st.data(), st.integers(2, 9), st.integers(0, 8))
def test_pullback_matches_substitution(data, nvars, order):
    # f(a, r) at a = l, r kept: a^j r^k sits at (j, 0, .., 0, k) of the
    # wide series, and the reference substitutes y_1 -> l
    exps = st.tuples(st.integers(0, 8), st.integers(0, 8))
    coeffs = data.draw(st.dictionaries(exps, rationals, max_size=8))
    form = data.draw(st.tuples(*[st.integers(-3, 3)] * nvars))
    wide = ref(order, {(j,) + (0,) * (nvars - 2) + (k,): c for (j, k), c in coeffs.items()})
    got = fs_pullback(FormalSeries(2, order, coeffs), form)
    assert as_ref(got) == ref_substitute(wide, [ref_linear(form, order)], order)


def test_pullback_refuses_other_widths_and_non_int_forms():
    f = FormalSeries(2, 3, {(1, 1): 1})
    assert nums(fs_pullback(f, (2, -1, 0))) == {(1, 0, 1): 2, (0, 1, 1): -1}
    for nvars in (1, 3):
        with pytest.raises(ValueError):
            fs_pullback(FormalSeries.one(nvars, 3), (1, 0, 0))
    for bad in [(0.5, 0), (Fraction(1), 0)]:
        with pytest.raises(TypeError):
            fs_pullback(f, bad)


@pytest.mark.parametrize("family, rank", [("A", 1), ("B", 2), ("G", 2)])
def test_todd_series_match_reference_products(family, rank):
    # the tests' e_B, e_B^{-1} and S = e_B exp(-rho.) against products over
    # the positive roots of the reference power series, with Bernoulli
    # numbers from their recurrence
    datum = build_root_datum(cartan_matrix(family, rank))
    nvars = rank + 1
    for order in range(7):
        b = bernoulli(order)

        def over_roots(coefficient):
            out = ref_one(nvars, order)
            for alpha in datum.positive_roots:
                factor = ref_power_series(ref_linear([-a for a in alpha] + [0], order), nvars,
                                          [coefficient(k) for k in range(order + 1)])
                out = ref_mul(out, factor)
            return out

        eB = over_roots(lambda k: b[k] / factorial(k))      # l/(e^l - 1) at l = -alpha.
        exp_neg_rho = ref_power_series(ref_linear([-a for a in datum.rho] + [0], order), nvars,
                                       [Fraction(1, factorial(k)) for k in range(order + 1)])
        assert as_ref(e_B(datum, order)) == eB
        assert as_ref(e_B_inverse(datum, order)) == over_roots(
            lambda k: Fraction(1, factorial(k + 1)))
        s = e_B(datum, order) * exp_linear(tuple(-a for a in datum.rho) + (0,), order)
        assert as_ref(s) == ref_mul(eB, exp_neg_rho)
        assert all(fs_weyl(datum, datum.simple(i), s) == s for i in range(rank))


@KERNEL
@given(st.data(), nvars_st)
def test_r_maps_match_reference(data, nvars):
    raw = data.draw(raw_series(nvars))
    a = build(nvars, raw)
    order, coeffs = ref(*raw)
    assert as_ref(fs_negate_r(a)) == (order, {e: -c if e[-1] % 2 else c
                                              for e, c in coeffs.items()})


@pytest.fixture(scope="module")
def demazure_data(tmp_path_factory):
    """A1, A2, B2, G2, A3, C3 and the transpose of B2 read from a Cartan file."""
    data = [build_root_datum(cartan_matrix(t, r))
            for t, r in (("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3))]
    b2 = cartan_matrix("B", 2)
    path = tmp_path_factory.mktemp("cartan") / "b2t.txt"
    path.write_text("2\n" + "\n".join(" ".join(str(b2[j][i]) for j in range(2))
                                      for i in range(2)) + "\n")
    data.append(build_root_datum(read_cartan_file(str(path))))
    return data


@settings(KERNEL, max_examples=150)
@given(st.data())
def test_demazure_table_matches_the_division(demazure_data, data):
    # s_i(f) and 2r Dem_i(f) from the integer tables against fs_weyl and
    # the exact division (f - s_i(f)) / alpha_i-dot
    datum = data.draw(st.sampled_from(demazure_data))
    n = datum.rank
    i = data.draw(st.integers(0, n - 1))
    order = data.draw(st.integers(0, 8))
    exps = st.tuples(*[st.integers(0, 4)] * (n + 1))
    f = FormalSeries(n + 1, order, data.draw(st.dictionaries(exps, rationals, max_size=8)))
    sf, dem = fs_weyl_demazure(datum, i, f)
    assert_canonical(sf)
    assert_canonical(dem)
    assert sf == fs_weyl(datum, datum.simple(i), f)
    quotient = fs_div_linear(f - sf, datum.simple_roots[i] + (0,))
    assert dem == quotient.mul_monomial((0,) * n + (1,), 2)


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
        FormalSeries.one(2, 3).scale(0.5)
    with pytest.raises(TypeError):
        FormalSeries.one(2, 3).mul_monomial((1, 0), 2.0)
    f = FormalSeries(2, 3, {(1, 0): 1})
    for bad in [(0.5, 0), (1.0, 0), (Fraction(1, 2), 0), (Fraction(1), 0)]:
        with pytest.raises(TypeError):
            fs_div_linear(f, bad)
        with pytest.raises(TypeError):
            fs_exp_sum(3, 3, [(1, bad)], quotient_weights(3))


def test_series_of_different_widths_do_not_combine():
    a = FormalSeries(2, 3, {(1, 0): 1})
    b = FormalSeries(3, 3, {(1, 0, 0): 1})
    for combine in (lambda x, y: x + y, lambda x, y: x - y,
                    lambda x, y: x * y, lambda x, y: x.eq(y)):
        with pytest.raises(ValueError):
            combine(a, b)
        with pytest.raises(ValueError):
            combine(b, a)
    # the unit-product shortcut does not bypass the check
    with pytest.raises(ValueError):
        a * FormalSeries.one(3, 3)
    with pytest.raises(ValueError):
        FormalSeries.one(2, 3) * b
    with pytest.raises(ValueError):
        FormalSeries(2, 3).eq(FormalSeries(3, 3))
    assert FormalSeries(3, 3).eq(FormalSeries(3, 3))


def test_weyl_maps_refuse_a_series_of_the_wrong_width():
    datum = DATA[3][0]                  # A2: series in y1, y2, r
    w = datum.simple(0)
    assert nums(fs_weyl(datum, w, FormalSeries(3, 2, {(1, 0, 0): 1}))) == {
        (1, 0, 0): -1, (0, 1, 0): 1}            # s1: y1 -> y2 - y1
    for nvars in (2, 4):
        f = FormalSeries.variable(nvars, 3, 0)
        with pytest.raises(ValueError):
            fs_weyl(datum, w, f)
        with pytest.raises(ValueError):
            fs_weyl_demazure(datum, 0, f)


def test_width_checks_hold_under_python_dash_O():
    src = str(pathlib.Path(heckeverify.__file__).resolve().parent.parent)
    script = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % src,
        "from heckeverify.formal_series import FormalSeries, fs_weyl, fs_weyl_demazure",
        "from heckeverify.root_datum import build_root_datum, cartan_matrix",
        "assert False, 'asserts are stripped under -O'",
        "a2 = build_root_datum(cartan_matrix('A', 2))",
        "f2, f3, f4 = (FormalSeries.variable(n, 3, 0) for n in (2, 3, 4))",
        "cases = [lambda: f2 + f3, lambda: f2 * f3, lambda: f2.eq(f3),",
        "         lambda: fs_weyl(a2, a2.simple(0), f4),",
        "         lambda: fs_weyl_demazure(a2, 0, f4)]",
        "for case in cases:",
        "    try:",
        "        case()",
        "        print('accepted')",
        "    except Exception as exc:",
        "        print(type(exc).__name__)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 5


def test_forms_of_the_wrong_length_or_zero_are_refused():
    f = FormalSeries(3, 4, {(1, 0, 0): 1})
    for bad in [(1, 0), (1, 0, 0, 0), ()]:
        with pytest.raises(ValueError):
            fs_div_linear(f, bad)
    with pytest.raises(ZeroDivisionError):
        fs_div_linear(f, (0, 0, 0))
    # the oracle divides by the form; the closed form at the zero form is
    # the value W_0 of its series there, with no division to refuse
    with pytest.raises(ZeroDivisionError):
        fs_exp_quotient((0, 0, 0), 3)
    for weights in (quotient_weights(3), bernoulli_weights(3)):
        assert fs_exp_sum(3, 3, [(1, (0, 0, 0))], weights) == FormalSeries.one(3, 3)


def test_coeffs_is_a_read_only_fraction_mapping():
    f = FormalSeries(2, 3, {(1, 0): Fraction(1, 2), (0, 2): 3})
    assert dict(f.coeffs) == {(1, 0): Fraction(1, 2), (0, 2): Fraction(3)}
    assert (f.den, nums(f)) == (2, {(1, 0): 1, (0, 2): 6})
    with pytest.raises(TypeError):
        f.coeffs[(1, 0)] = 1


def test_negative_denominators_are_normalized():
    # a pivot coefficient of -1 gives den = -1
    q = fs_div_linear(FormalSeries(2, 2, {(1, 0): 1, (1, 1): 1}), (-1, 0))
    assert_canonical(q)
    assert dict(q.coeffs) == {(0, 0): -1, (0, 1): -1}


# -- packed monomial keys -----------------------------------------------------

@KERNEL
@given(st.data(), nvars_st)
def test_coeffs_are_keyed_by_exponent_tuples(data, nvars):
    raw = data.draw(raw_series(nvars))
    s = build(nvars, raw)
    order, coeffs = ref(*raw)
    assert set(s.coeffs) == set(coeffs) and len(s.terms) == len(coeffs)
    assert all(type(e) is tuple for e in s.coeffs)
    assert dict(s.coeffs) == coeffs
    assert sorted(Fraction(c, s.den) for c in s.terms.values()) == sorted(coeffs.values())
    assert FormalSeries(nvars, order, dict(s.coeffs)) == s
    assert (0,) * (nvars + 1) not in s.coeffs and (-1,) + (0,) * (nvars - 1) not in s.coeffs


def test_exponents_at_the_field_limit_round_trip():
    top = {(MAX_ORDER, 0, 0): 1, (0, MAX_ORDER, 0): 2, (0, 0, MAX_ORDER): 3,
           (1, MAX_ORDER - 2, 1): 4}
    f = FormalSeries(3, MAX_ORDER, top)
    assert nums(f) == top
    assert nums(f * FormalSeries.one(3, MAX_ORDER)) == top
    assert nums(fs_negate_r(f)) == {**top, (0, 0, MAX_ORDER): -3, (1, MAX_ORDER - 2, 1): -4}
    # a pair above the order is never formed, so no field can carry
    g = FormalSeries(3, MAX_ORDER, {(MAX_ORDER - 1, 0, 0): 1})
    assert (g * g).is_zero()


def test_order_beyond_the_exponent_field_is_refused():
    FormalSeries(3, MAX_ORDER)
    FormalSeries.one(3, MAX_ORDER)
    with pytest.raises(OrderTooLarge):
        FormalSeries(3, MAX_ORDER + 1)
    with pytest.raises(OrderTooLarge):
        FormalSeries.one(3, MAX_ORDER + 1)
    with pytest.raises(OrderTooLarge):
        FormalSeries.variable(3, MAX_ORDER + 1, 0)
    assert issubclass(OrderTooLarge, ValueError)


def test_mul_monomial_beyond_the_exponent_field_is_refused():
    f = FormalSeries.one(3, MAX_ORDER - 2)
    assert nums(f.mul_monomial((1, 0, 1))) == {(1, 0, 1): 1}
    with pytest.raises(OrderTooLarge):
        f.mul_monomial((1, 1, 1))
    with pytest.raises(OrderTooLarge):
        FormalSeries(2, MAX_ORDER).mul_monomial((0, 1), 0)


def test_malformed_exponents_are_refused():
    with pytest.raises(ValueError):
        FormalSeries(2, 3, {(-1, 2): 1})
    with pytest.raises(ValueError):
        FormalSeries(2, 3, {(1, 0, 0): 1})
    # whatever the degree of the key and whatever its coefficient; no
    # series holds a monomial above MAX_ORDER
    for bad in [{(1, 1, 1, 1): 1}, {(-1, 5, 0): 1}, {(1, 1, 1, 1): 0},
                {(MAX_ORDER, 1, 0): 1}]:
        with pytest.raises(ValueError):
            FormalSeries(3, 2, bad)
    with pytest.raises(ValueError):
        FormalSeries.one(2, 3).mul_monomial((2, -1))


# -- the boundaries that a clean run crosses without fractions ---------------

def fraction_repr(s):
    """The repr as written from Fraction coefficients, read from ``coeffs``."""
    if not s.coeffs:
        return "O(%d)" % (s.order + 1)
    names = ["y%d" % (i + 1) for i in range(s.nvars - 1)] + ["r"]
    parts = []
    for exp in sorted(s.coeffs, key=lambda e: (sum(e), e)):
        c = Fraction(s.coeffs[exp])
        mono = "*".join(n if p == 1 else "%s^%d" % (n, p) for n, p in zip(names, exp) if p)
        parts.append(str(c) if not mono else "%s*%s" % (c, mono))
    return " + ".join(parts) + " + O(%d)" % (s.order + 1)


@KERNEL
@given(st.data(), st.sampled_from([1, 2, 3]),
       st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12)))
def test_repr_writes_each_coefficient_as_its_fraction(data, nvars, scale):
    s = build(nvars, data.draw(raw_series(nvars))).scale(scale)
    assert repr(s) == fraction_repr(s)
    assert repr(-s) == fraction_repr(-s)


def test_exact_keeps_ints_and_reads_fractions_and_strings():
    src = str(pathlib.Path(heckeverify.__file__).resolve().parent.parent)
    script = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % src,
        "from heckeverify.formal_series import FormalSeries, _exact, fs_exp_sum, "
        "bernoulli_weights",
        "f = FormalSeries(2, 3, {(1, 0): 3, (0, 1): -2}).scale(4).mul_monomial((0, 1), -6)",
        "g = fs_exp_sum(2, 5, [(1, (1, -2))], bernoulli_weights(5))",
        "print(type(_exact(7)).__name__, _exact(7))",
        "print(repr(f))",
        "print(repr(g))",
        "print('fractions' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    f = FormalSeries(2, 3, {(1, 0): 3, (0, 1): -2}).scale(4).mul_monomial((0, 1), -6)
    g = fs_exp_sum(2, 5, [(1, (1, -2))], bernoulli_weights(5))
    assert proc.stdout.splitlines() == [
        "int 7", "48*r^2 + -72*y1*r + O(5)", fraction_repr(g), "False"]
    assert "-1/2*y1" in repr(g) and repr(f) == fraction_repr(f)
    assert _exact(Fraction(1, 2)) == Fraction(1, 2) == _exact("1/2")
    assert type(_exact("1/2")) is Fraction
    for bad in (0.5, 2.0):
        with pytest.raises(TypeError):
            _exact(bad)


def test_weights_are_pairs_ints_or_fractions():
    # weights are reduced (numerator, denominator) int pairs; an int, a
    # Fraction or a float in their place fails to unpack
    assert all(type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1
               for n, d in bernoulli_weights(6) + quotient_weights(6))
    for bad in (1, Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            fs_exp_sum(2, 4, [(1, (1, 1))], [(1, 1), bad, (1, 1), (1, 1), (1, 1)])
