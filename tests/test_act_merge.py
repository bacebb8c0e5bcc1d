"""Rule.act sums the terms with equal coefficients before it scales them.

sum_w a_w (T_w . v) = sum_c c (sum over {w : a_w == c} of T_w . v).  A
coefficient that is a scalar of the rule scales its term at once, unmerged.
Each case below, on the Bernstein rule and on Lusztig's graded rule, equals
the term-by-term sum written out from T_s . (c.1) = -s(c) + D_s(c).
"""

import pytest

from heckeverify.affine_hecke import LS_V2M1, HeckeElement, asph_act_left, ts_inverse
from heckeverify.formal_series import FormalSeries, fs_weyl
from heckeverify.graded_hecke import GradedElement, demazure_series, g_asph_act
from heckeverify.lattice_algebra import (
    GroupAlgebraElement,
    LaurentScalar,
    demazure_quotient,
    mul_by_scriptG,
)
from heckeverify.lusztig import difference_times_scriptG, lusztig_l, series_of_group_algebra
from heckeverify.normal_form import AsphElement
from heckeverify.root_datum import apply, build_root_datum, cartan_matrix

DATA = [build_root_datum(cartan_matrix(t, 2)) for t in ("A", "B", "G")]
IDS = ["A2", "B2", "G2"]
X = (2, -1)
ORDER = 4


def _ga(x, k=0, c=1):
    return GroupAlgebraElement.theta(x, LaurentScalar({k: c}))


def _k_move(datum, w, x):
    """T_w . (theta_x.1) for l(w) <= 1: theta_x, or
    -theta_{s x} + (v^2 - 1) Dem_s(theta_x)."""
    if not w.word:
        return _ga(x)
    i = w.word[0]
    return -_ga(apply(datum.simple(i), x)) + demazure_quotient(datum, x, i).scale(LS_V2M1)


def _k_sum(datum, coeffs, x):
    """sum_w a_w (T_w . (theta_x.1)), one term at a time."""
    out = GroupAlgebraElement()
    for w, c in coeffs.items():
        out = out + c * _k_move(datum, w, x)
    return out


def _g_move(datum, w, f):
    """t_w . (f.1) for l(w) <= 1: f, or -s(f) + 2r Dem_s(f), Dem_s by
    exact division, so at one order below f's."""
    if not w.word:
        return f
    i = w.word[0]
    n = datum.rank + 1
    two_r = FormalSeries(n, f.order, {(0,) * (n - 1) + (1,): 2})
    return -fs_weyl(datum, w, f) + two_r * demazure_series(datum, f, i)


def _g_sum(datum, coeffs, f):
    """sum_w a_w (t_w . (f.1)), one term at a time."""
    out = FormalSeries(datum.rank + 1, f.order)
    for w, c in coeffs.items():
        out = out + c * _g_move(datum, w, f)
    return out


def _distinct_copy(f):
    """A series equal to ``f`` that is not ``f``."""
    g = f + FormalSeries(f.nvars, f.order)
    assert g == f and g is not f
    return g


@pytest.mark.parametrize("datum", DATA, ids=IDS)
def test_k_side_ts_plus_one_on_theta_x(datum):
    one = HeckeElement.one(datum)
    for i in range(datum.rank):
        h = HeckeElement.Ts(datum, i) + one
        got = asph_act_left(h, AsphElement(datum, _ga(X))).value
        assert got == _k_sum(datum, h.coeffs, X) == mul_by_scriptG(datum, X, i)


@pytest.mark.parametrize("datum", DATA, ids=IDS)
def test_k_side_scalar_coefficients_are_not_merged(datum, monkeypatch):
    # T_s + 1, and T_s^{-1} = v^-2 T_s + (v^-2 - 1) with v^-2 on T_t too: each
    # term scales its image at once, so no two images are summed first
    cases = []
    for i in range(datum.rank):
        k_coeffs = dict(ts_inverse(datum, i).coeffs)
        k_coeffs[datum.simple(1 - i)] = _ga((0, 0), -2)
        assert k_coeffs[datum.simple(1 - i)] == k_coeffs[datum.simple(i)]
        cases += [k_coeffs, (HeckeElement.Ts(datum, i) + HeckeElement.one(datum)).coeffs]
    wants = [_k_sum(datum, coeffs, X) for coeffs in cases]
    sums = []
    add = GroupAlgebraElement.__add__
    monkeypatch.setattr(GroupAlgebraElement, "__add__", lambda a, b: sums.append(1) or add(a, b))
    for coeffs, want in zip(cases, wants):
        assert asph_act_left(HeckeElement(datum, coeffs), AsphElement(datum, _ga(X))).value == want
    assert sums == []


@pytest.mark.parametrize("datum", DATA, ids=IDS)
def test_graded_lusztig_of_ts_plus_one(datum):
    # L_l(1 + T_s) = u(alpha) (t_s + 1): two coefficients, equal, not identical
    one = HeckeElement.one(datum)
    f = series_of_group_algebra(datum, _ga(X), ORDER)
    for i in range(datum.rank):
        img = lusztig_l(HeckeElement.Ts(datum, i) + one, ORDER)
        e, s = datum.identity, datum.simple(i)
        assert img.coeffs[e] == img.coeffs[s] and img.coeffs[e] is not img.coeffs[s]
        got = g_asph_act(img, AsphElement(datum, f)).value
        assert got.eq(_g_sum(datum, img.coeffs, f), ORDER - 1)
        assert got.eq(difference_times_scriptG(datum, i, X, ORDER))


@pytest.mark.parametrize("datum", DATA, ids=IDS)
def test_equal_coefficients_that_are_distinct_objects(datum):
    s1, s2 = datum.simple(0), datum.simple(1)
    c = _ga((1, 0), 2, -3) + _ga((0, -1))
    k_coeffs = {s1: c, s2: _ga((1, 0), 2, -3) + _ga((0, -1))}
    assert k_coeffs[s1] == k_coeffs[s2] and k_coeffs[s1] is not k_coeffs[s2]
    got = asph_act_left(HeckeElement(datum, k_coeffs), AsphElement(datum, _ga(X))).value
    assert got == _k_sum(datum, k_coeffs, X)
    f = series_of_group_algebra(datum, _ga(X), ORDER)
    g = series_of_group_algebra(datum, c, ORDER)
    g_coeffs = {s1: g, s2: _distinct_copy(g)}
    got = g_asph_act(GradedElement(datum, ORDER, g_coeffs), AsphElement(datum, f)).value
    assert got.eq(_g_sum(datum, g_coeffs, f), ORDER - 1)


@pytest.mark.parametrize("datum", DATA, ids=IDS)
def test_three_terms_two_of_them_equal(datum):
    e, s1, s2 = datum.identity, datum.simple(0), datum.simple(1)
    for equal in ((e, s1), (e, s2), (s1, s2)):
        other, = {e, s1, s2} - set(equal)
        k_coeffs = {w: _ga((1, -1), 1) for w in equal}
        k_coeffs[other] = _ga((0, 2), -1, 2)
        got = asph_act_left(HeckeElement(datum, k_coeffs), AsphElement(datum, _ga(X))).value
        assert got == _k_sum(datum, k_coeffs, X), equal
        f = series_of_group_algebra(datum, _ga(X), ORDER)
        g = series_of_group_algebra(datum, _ga((1, -1), 1), ORDER)
        g_coeffs = {equal[0]: g, equal[1]: _distinct_copy(g),
                    other: series_of_group_algebra(datum, _ga((0, 2), -1, 2), ORDER)}
        got = g_asph_act(GradedElement(datum, ORDER, g_coeffs), AsphElement(datum, f)).value
        assert got.eq(_g_sum(datum, g_coeffs, f), ORDER - 1), equal


@pytest.mark.parametrize("datum", DATA, ids=IDS)
def test_a_closed_form_case_makes_one_product_of_the_datum_width(datum, monkeypatch):
    # one case of the modules closed-form loop: u(alpha) scales t_s . m + m
    # in one product, where a term-by-term sum made two
    one = HeckeElement.one(datum)
    images = [lusztig_l(HeckeElement.Ts(datum, i) + one, ORDER) for i in range(datum.rank)]
    widths = []
    mul = FormalSeries.__mul__
    monkeypatch.setattr(FormalSeries, "__mul__", lambda a, b: widths.append(a.nvars) or mul(a, b))
    for i in range(datum.rank):
        del widths[:]
        m = AsphElement(datum, series_of_group_algebra(datum, _ga(X), ORDER))
        got = g_asph_act(images[i], m)
        assert got.eq(AsphElement(datum, difference_times_scriptG(datum, i, X, ORDER)), ORDER)
        assert widths == [datum.rank + 1]
