import random

import pytest

from heckeverify.lattice_algebra import (
    GroupAlgebraElement,
    LaurentScalar,
    LS_ONE,
    LS_V,
    LS_V2,
    demazure_quotient,
    mul_by_scriptG,
)
from heckeverify.root_datum import apply, build_root_datum, cartan_matrix

A1 = build_root_datum([[2]])
A2 = build_root_datum(cartan_matrix("A", 2))
B2 = build_root_datum(cartan_matrix("B", 2))
G2 = build_root_datum(cartan_matrix("G", 2))


def theta(x, scalar=LS_ONE):
    return GroupAlgebraElement.theta(x, scalar)


def rand_weight(rng, n):
    return tuple(rng.randint(-3, 3) for _ in range(n))


def test_theta_multiplication():
    assert theta((1, 2)) * theta((3, -1)) == theta((4, 1))
    a = theta((2, 0), LS_V) + theta((0, 1))
    assert GroupAlgebraElement.one(2) * a == a


def test_a1_difference_of_squares():
    lhs = (theta((1,)) + theta((-1,))) * (theta((1,)) - theta((-1,)))
    assert lhs == theta((2,)) - theta((-2,))


def test_demazure_closed_forms():
    # m = 1: single telescoping term
    assert demazure_quotient(A1, (1,), 0) == theta((1,))
    # m = 0: numerator vanishes
    assert not demazure_quotient(A2, (0, 2), 0)
    # m = 2
    assert demazure_quotient(A1, (2,), 0) == theta((2,)) + theta((0,))


def test_demazure_multiply_back_m2():
    q = demazure_quotient(A1, (2,), 0)
    denom = GroupAlgebraElement.one(1) - theta((-2,))
    assert q * denom == theta((2,)) - theta((-2,))


@pytest.mark.parametrize("datum", [A1, A2, B2])
def test_demazure_multiply_back_random(datum):
    rng = random.Random(3)
    n = datum.rank
    for _ in range(200):
        x = rand_weight(rng, n)
        i = rng.randrange(n)
        q = demazure_quotient(datum, x, i)
        alpha = datum.simple_roots[i]
        denom = GroupAlgebraElement.one(n) - theta(tuple(-a for a in alpha))
        sx = apply(datum.simple(i), x)
        assert q * denom == theta(x) - theta(sx)


def test_scriptG_a1_examples():
    assert mul_by_scriptG(A1, (1,), 0) == theta((1,), LS_V2) - theta((-1,))
    assert not mul_by_scriptG(A2, (0, 1), 0)
    got = mul_by_scriptG(A1, (2,), 0)
    want = theta((2,), LS_V2) + theta((0,), LS_V2) - theta((0,)) - theta((-2,))
    assert got == want


def scriptG_by_products(datum, x, i):
    """(v^2 theta_alpha - 1) * theta_{-alpha} * demazure_quotient(x, i), two products."""
    alpha = datum.simple_roots[i]
    factor = theta(alpha, LS_V2) - GroupAlgebraElement.one(datum.rank)
    return factor * theta(tuple(-a for a in alpha)) * demazure_quotient(datum, x, i)


@pytest.mark.parametrize("datum", [A1, A2, B2, G2], ids=["A1", "A2", "B2", "G2"])
def test_scriptG_sum_equals_the_product_formula(datum):
    rng = random.Random(13)
    n = datum.rank
    for _ in range(100):
        x, i = rand_weight(rng, n), rng.randrange(n)
        # m = <x, alpha_i^vee> > 0, = 0 and < 0 at each draw
        for m in (rng.randint(1, 4), 0, -rng.randint(1, 4)):
            y = x[:i] + (m,) + x[i + 1:]
            assert mul_by_scriptG(datum, y, i) == scriptG_by_products(datum, y, i)


@pytest.mark.parametrize("datum", [A1, A2, B2])
def test_scriptG_multiply_back_random(datum):
    rng = random.Random(11)
    n = datum.rank
    v2theta_m1 = lambda alpha: theta(alpha, LS_V2) - GroupAlgebraElement.one(n)
    for _ in range(200):
        x = rand_weight(rng, n)
        i = rng.randrange(n)
        alpha = datum.simple_roots[i]
        sx = apply(datum.simple(i), x)
        lhs = mul_by_scriptG(datum, x, i) * (theta(alpha) - GroupAlgebraElement.one(n))
        rhs = (theta(x) - theta(sx)) * v2theta_m1(alpha)
        assert lhs == rhs


def test_mul_commutative_associative():
    rng = random.Random(5)

    def rand_elt():
        out = GroupAlgebraElement()
        for _ in range(rng.randint(1, 3)):
            c = LaurentScalar({rng.randint(-2, 2): rng.randint(-3, 3) or 1})
            out = out + theta(rand_weight(rng, 2), c)
        return out

    for _ in range(30):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_substitutions():
    a = theta((1, 0), LS_V)
    assert a.substitute(sign=-1) == theta((1, 0), -LS_V)
    # v -> v^-1, theta_x -> theta_{-x} applied twice is the identity
    b = theta((2, -1), LaurentScalar({3: 2, -1: 1})) + theta((0, 0), LS_V2)
    twice = b.substitute(vexp_image=-1, negate_weights=True).substitute(
        vexp_image=-1, negate_weights=True)
    assert twice == b
    # v -> -v fixes even powers
    assert theta((0, 0), LS_V2).substitute(sign=-1) == theta((0, 0), LS_V2)
