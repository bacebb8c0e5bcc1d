"""Bernoulli-number oracles for e_B and the unit factor on A1.

Bernoulli numbers come from their recurrence, and the expected series are
assembled from them by binomial expansion.  Nothing here inverts or
divides a series, so these checks share no code path with ``fs_inv`` or
``fs_div_linear``, which both functions under test rely on.
"""

from fractions import Fraction
from math import comb, factorial

from heckeverify.graded_hecke import todd_eB
from heckeverify.lusztig import unit_factor
from heckeverify.root_datum import build_root_datum

ORDER = 8
A1 = build_root_datum([[2]])      # alpha-dot = 2 y_1


def bernoulli(n):
    """B_0 .. B_n with B_1 = -1/2, from sum_{j=0..m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def test_bernoulli_recurrence():
    assert bernoulli(8) == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30),
                            0, Fraction(1, 42), 0, Fraction(-1, 30)]


def test_todd_eB_a1_is_the_bernoulli_series():
    # a/(1 - e^{-a}) = sum_k B_k^+ a^k / k!  with B_k^+ = (-1)^k B_k, a = 2 y_1
    b = bernoulli(ORDER)
    want = {(k, 0): (-1) ** k * b[k] * 2 ** k / factorial(k)
            for k in range(ORDER + 1) if b[k]}
    got = todd_eB(A1, ORDER)
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
