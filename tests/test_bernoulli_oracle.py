"""Bernoulli-number oracles for e_B and the unit factor on A1.

Bernoulli numbers come from their recurrence, and the expected series are
assembled from them by binomial expansion, coefficient by coefficient.
The code under test builds both series in closed form from its own
Bernoulli numbers and the weighted walk of ``fs_exp_sum``, with no
division or inversion (e_B on A1 is one walk at -alpha-dot); these checks
share neither that walk nor any series product with it.
"""

from fractions import Fraction
from math import comb, factorial

from heckeverify.formal_series import bernoulli_weights, fs_exp_sum
from heckeverify.lusztig import unit_factor
from heckeverify.root_datum import build_root_datum

from linear_series import bernoulli

ORDER = 8
A1 = build_root_datum([[2]])      # alpha-dot = 2 y_1


def test_bernoulli_recurrence():
    assert bernoulli(8) == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30),
                            0, Fraction(1, 42), 0, Fraction(-1, 30)]
    # the package's numbers, asked for out of order: the cache only grows;
    # each is a (numerator, denominator) pair, read here as a Fraction
    assert [Fraction(*w) for w in bernoulli_weights(3)] == bernoulli(3)
    assert [Fraction(*w) for w in bernoulli_weights(20)] == bernoulli(20)
    assert [Fraction(*w) for w in bernoulli_weights(0)] == [1]


def test_todd_eB_a1_is_the_bernoulli_series():
    # a/(1 - e^{-a}) = sum_k B_k^+ a^k / k!  with B_k^+ = (-1)^k B_k, a = 2 y_1
    b = bernoulli(ORDER)
    want = {(k, 0): (-1) ** k * b[k] * 2 ** k / factorial(k)
            for k in range(ORDER + 1) if b[k]}
    got = fs_exp_sum(2, ORDER, [(1, (-2, 0))], bernoulli_weights(ORDER))
    assert got.order == ORDER
    assert dict(got.coeffs) == want


def test_unit_factor_a1_from_bernoulli_numbers():
    # u = (e^x - 1)/x * a/(e^a - 1)  with x = a + 2r, a = 2 y_1:
    #   (e^x - 1)/x = sum_j x^j/(j+1)!,  a/(e^a - 1) = sum_k B_k a^k/k!
    b = bernoulli(ORDER)
    want = {}
    for j in range(ORDER + 1):
        for i in range(j + 1):          # (2y)^i (2r)^(j-i) from x^j
            x_term = Fraction(comb(j, i) * 2 ** j, factorial(j + 1))
            for k in range(ORDER + 1 - j):
                key = (i + k, j - i)
                want[key] = want.get(key, 0) + x_term * b[k] * 2 ** k / factorial(k)
    want = {e: c for e, c in want.items() if c}
    got = unit_factor(A1, 0, ORDER)
    assert got.order == ORDER
    assert dict(got.coeffs) == want
