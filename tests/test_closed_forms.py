"""The closed-form constants against the naive sums and the division route.

``unit_factor`` is a two-variable product of weighted walks of
``fs_exp_sum`` pulled back along a |-> alpha-dot, and
``difference_times_scriptG`` is one walk; neither divides.  The oracle
here builds each from naive sums of Fraction coefficients and exact
division by the form (:mod:`linear_series`); e_B, which no run builds, is
their product over the roots, and S = e_B exp(-rho.) is checked
W-invariant as a series.
"""

import sys

import pytest

from heckeverify import formal_series
from heckeverify.formal_series import FormalSeries, diff, fs_div_linear, fs_weyl
from heckeverify.lusztig import difference_times_scriptG, unit_factor
from heckeverify.root_datum import apply, build_root_datum, cartan_matrix
from heckeverify.verify import check_diagram

from linear_series import bernoulli_quotient, e_B, exp_linear, fs_exp_quotient

DATA = [("A", 2, 6), ("B", 2, 6), ("G", 2, 5), ("A", 3, 4)]


def scriptG_weights(rank, i):
    """Weights x with m = x[i] > 0, = 0 and < 0."""
    return [tuple(m if j == i else (j + 1) * (-1) ** j for j in range(rank)) for m in (3, 0, -2)]


def scriptG_by_division(datum, i, x, order):
    """(exp(x.) - exp(sx.))/a * a/(exp(a) - 1) * (exp(a + 2r) - 1), a = alpha_i-dot:
    the difference one degree high divided exactly by a, then two products."""
    alpha = datum.simple_roots[i]
    sx = apply(datum.simple(i), x)
    difference = exp_linear(diff(x), order + 1) - exp_linear(diff(sx), order + 1)
    last = exp_linear(alpha + (2,), order) - FormalSeries.one(datum.rank + 1, order)
    return (fs_div_linear(difference, diff(alpha)) * bernoulli_quotient(diff(alpha), order)
            * last)


@pytest.mark.parametrize("family, rank, top", DATA)
def test_constants_match_the_division_route(family, rank, top):
    datum = build_root_datum(cartan_matrix(family, rank))
    neg_rho = diff(-a for a in datum.rho)
    for order in range(top + 1):
        for i, alpha in enumerate(datum.simple_roots):
            bern = bernoulli_quotient(diff(alpha), order)
            for r in (2, -2, 3):
                want = fs_exp_quotient(alpha + (r,), order) * bern
                assert unit_factor(datum, i, order, r) == want
            for x in scriptG_weights(rank, i):
                assert difference_times_scriptG(datum, i, x, order) == scriptG_by_division(
                    datum, i, x, order)
        # S = e_B exp(-rho.), which diagram and display read central off the
        # positive roots, is W-invariant as a series too
        s = e_B(datum, order) * exp_linear(neg_rho, order)
        assert all(fs_weyl(datum, datum.simple(i), s) == s for i in range(rank))


def test_no_constant_divides_or_inverts(monkeypatch):
    # the package has no series inverse; no closed form divides either
    def refuse(*args):
        raise AssertionError("a closed form divided a series")

    original = formal_series.fs_div_linear
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("heckeverify")
                and getattr(module, "fs_div_linear", None) is original):
            monkeypatch.setattr(module, "fs_div_linear", refuse)
    for family, rank, order in DATA:
        datum = build_root_datum(cartan_matrix(family, rank))
        assert check_diagram(datum, order=order).status == "pass"
        for i in range(rank):
            for r in (2, -2, 3):
                unit_factor(datum, i, order, r)
            for x in scriptG_weights(rank, i):
                difference_times_scriptG(datum, i, x, order)


def test_cold_constants_multiply_no_series_of_the_datum_width(monkeypatch):
    # a unit factor multiplies only in the two variables (a, r), before its
    # pullback: one product per (order, r-coefficient), which the roots of
    # the datum share
    widths = []
    mul = FormalSeries.__mul__
    monkeypatch.setattr(FormalSeries, "__mul__", lambda a, b: widths.append(a.nvars) or mul(a, b))
    datum = build_root_datum(cartan_matrix("B", 2))
    for _ in range(2):
        for i in range(datum.rank):
            for r in (2, -2, 3):
                unit_factor(datum, i, 5, r)
        assert widths == [2] * 3
