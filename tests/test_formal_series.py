import random
from fractions import Fraction

import pytest

from heckeverify.formal_series import (
    FormalSeries,
    NotDivisible,
    diff,
    fs_div_linear,
    fs_exp_sum,
    fs_negate_r,
    fs_weyl,
)
from heckeverify.root_datum import apply, build_root_datum, cartan_matrix

from linear_series import exp_linear, linear
from weyl_group import mul, weyl_elements

A1 = build_root_datum([[2]])
A2 = build_root_datum(cartan_matrix("A", 2))


def test_diff_examples():
    assert diff((1,)) == (1, 0)
    assert diff([2]) == (2, 0)
    x, y = (1, -2), (0, 3)
    s = tuple(a + b for a, b in zip(x, y))
    assert tuple(a + b for a, b in zip(diff(x), diff(y))) == diff(s)


def test_exp_of_r():
    got = fs_exp_sum(2, 3, [(1, (0, 1))])
    want = FormalSeries(2, 3, {
        (0, 0): 1, (0, 1): 1, (0, 2): Fraction(1, 2), (0, 3): Fraction(1, 6)})
    assert got == want


def test_exp_of_zero_and_error():
    assert fs_exp_sum(2, 4, [(1, (0, 0))]) == FormalSeries.one(2, 4)
    assert fs_exp_sum(2, 4, []) == FormalSeries(2, 4)
    with pytest.raises(TypeError):
        fs_exp_sum(2, 4, [(1, (Fraction(1, 2), 0))])


def test_exp_homomorphism_order6():
    rng = random.Random(1)
    for _ in range(20):
        x = tuple(rng.randint(-3, 3) for _ in range(2))
        y = tuple(rng.randint(-3, 3) for _ in range(2))
        s = tuple(a + b for a, b in zip(x, y))
        ex = exp_linear(diff(x), 6)
        ey = exp_linear(diff(y), 6)
        es = exp_linear(diff(s), 6)
        assert (ex * ey).eq(es, 6)


def test_div_linear_examples():
    # (exp(r) - 1)/r at order 3 -> 1 + r/2 + r^2/6, order drops to 2
    f = exp_linear((1,), 3) - FormalSeries.one(1, 3)
    got = fs_div_linear(f, (1,))
    assert got.order == 2
    assert got == FormalSeries(1, 2, {(0,): 1, (1,): Fraction(1, 2),
                                      (2,): Fraction(1, 6)})
    # 0/L = 0
    assert fs_div_linear(FormalSeries(2, 4), (1, 0)).is_zero()
    # A1: (exp(alpha-dot) - 1)/alpha-dot with alpha-dot = 2y, at order 2
    alpha = diff((2,))
    f = exp_linear(alpha, 3) - FormalSeries.one(2, 3)
    got = fs_div_linear(f, alpha)
    assert got == FormalSeries(2, 2, {(0, 0): 1, (1, 0): 1,
                                      (2, 0): Fraction(2, 3)})


def test_div_linear_not_divisible():
    y1 = FormalSeries.variable(3, 4, 0)
    with pytest.raises(NotDivisible):
        fs_div_linear(y1 + FormalSeries.variable(3, 4, 1), (1, 0, 0))
    with pytest.raises(NotDivisible):
        fs_div_linear(FormalSeries.one(3, 4), (1, 0, 0))


def test_div_linear_multiterm_form():
    # (y1 + y2)^2 / (y1 + y2)
    form = (1, 1, 0)
    sq = linear(form, 5) * linear(form, 5)
    assert fs_div_linear(sq, form).eq(linear(form, 4), 4)


def test_precision_rules():
    a = FormalSeries.one(2, 5)
    b = FormalSeries.one(2, 3)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert fs_exp_sum(2, 4, [(1, (0, 1))]).order == 4
    assert fs_negate_r(a).order == 5
    assert a.mul_monomial((0, 1), 2).order == 6


def test_weyl_action_examples():
    # A1: s(y) = -y
    y = FormalSeries.variable(2, 4, 0)
    assert fs_weyl(A1, A1.simple(0), y) == -y
    # identity fixes everything
    f = FormalSeries(2, 4, {(1, 1): Fraction(1, 2), (0, 2): 3})
    assert fs_weyl(A1, A1.identity, f) == f
    # A2: s_1 fixes the second fundamental coordinate
    y2 = FormalSeries.variable(3, 4, 1)
    assert fs_weyl(A2, A2.simple(0), y2) == y2
    # r is always fixed
    r = FormalSeries.variable(3, 4, 2)
    assert fs_weyl(A2, A2.simple(1), r) == r


def test_weyl_action_group_law():
    rng = random.Random(3)
    for _ in range(20):
        coeffs = {}
        for _ in range(4):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            coeffs[e] = Fraction(rng.randint(-8, 8) or 1, rng.randint(1, 8))
        f = FormalSeries(3, 6, coeffs)
        v = rng.choice(weyl_elements(A2))
        w = rng.choice(weyl_elements(A2))
        assert fs_weyl(A2, v, fs_weyl(A2, w, f)) == fs_weyl(A2, mul(A2, v, w), f)


def test_demazure_divisibility():
    # phi - s(phi) is always exactly divisible by the root differential
    rng = random.Random(4)
    for datum in (A1, A2):
        n = datum.rank
        for _ in range(200):
            coeffs = {}
            for _ in range(3):
                e = [0] * (n + 1)
                for _ in range(rng.randint(0, 5)):
                    e[rng.randrange(n + 1)] += 1
                coeffs[tuple(e)] = Fraction(rng.randint(-8, 8) or 1, rng.randint(1, 8))
            f = FormalSeries(n + 1, 6, coeffs)
            i = rng.randrange(n)
            g = f - fs_weyl(datum, datum.simple(i), f)
            fs_div_linear(g, diff(datum.simple_roots[i]))  # must not raise


def test_negate_r():
    r = FormalSeries.variable(2, 4, 1)
    assert fs_negate_r(r) == -r
    y = FormalSeries.variable(2, 4, 0)
    assert fs_negate_r(y) == y
    f = exp_linear((0, 2), 4)
    assert fs_negate_r(fs_negate_r(f)) == f
