"""Series of linear forms built the long way, as oracles for the closed forms.

The package builds exp(l), (exp(l) - 1)/l and l/(exp(l) - 1) of an int
linear form l in closed form (``fs_exp_sum`` with derivative weights).
These helpers write exp(l) and l/(exp(l) - 1) as naive sums of Fraction
coefficients, sum_k F^(k)(0) l^k/k! expanded monomial by monomial, with
Bernoulli numbers from their recurrence, and (exp(l) - 1)/l by exact
division by the form (``fs_div_linear``), so they share no code path with
the weighted walk.  e_B and e_B^{-1} are their products over the positive
roots, so no oracle inverts a series.
"""

from fractions import Fraction
from math import comb, factorial

from heckeverify.formal_series import FormalSeries, fs_div_linear


def linear(form, order):
    """The series c_1 x_1 + ... + c_n x_n at ``order``, for the tuple ``form`` = (c_i)."""
    n = len(form)
    return FormalSeries(n, order, {tuple(int(j == i) for j in range(n)): c
                                   for i, c in enumerate(form)})


def _exponents(nvars, order):
    """Every exponent tuple of length ``nvars`` and degree at most ``order``."""
    if not nvars:
        yield ()
        return
    for e in range(order + 1):
        for rest in _exponents(nvars - 1, order - e):
            yield (e,) + rest


def _power_series(form, order, weights):
    """sum_k weights[k] l^k/k! at ``order``, l the linear form ``form``, summed
    coefficient by coefficient: l^k/k! = sum over |m| = k of prod_i l_i^m_i/m_i!."""
    coeffs = {}
    for m in _exponents(len(form), order):
        num, den = 1, 1
        for a, e in zip(form, m):
            num *= a ** e
            den *= factorial(e)
        coeffs[m] = weights[sum(m)] * Fraction(num, den)
    return FormalSeries(len(form), order, coeffs)


def exp_linear(form, order):
    """exp of the linear form at ``order``, as the multinomial sum."""
    return _power_series(form, order, [1] * (order + 1))


def fs_exp_quotient(form, order):
    """(exp(l) - 1)/l at ``order``: exp one degree high, divided by l."""
    n = len(form)
    return fs_div_linear(exp_linear(form, order + 1) - FormalSeries.one(n, order + 1), form)


def bernoulli_quotient(form, order):
    """l/(exp(l) - 1) at ``order``, as sum_k B_k l^k/k!."""
    return _power_series(form, order, bernoulli(order))


def _over_roots(datum, order, factor):
    """The product over alpha > 0 of ``factor`` at l = -alpha-dot."""
    out = FormalSeries.one(datum.rank + 1, order)
    for alpha in datum.positive_roots:
        out = out * factor(tuple(-a for a in alpha) + (0,), order)
    return out


def e_B(datum, order):
    """e_B = prod over alpha > 0 of alpha-dot/(1 - exp(-alpha-dot)), from
    :func:`bernoulli_quotient`."""
    return _over_roots(datum, order, bernoulli_quotient)


def e_B_inverse(datum, order):
    """e_B^{-1} = prod over alpha > 0 of (1 - exp(-alpha-dot))/alpha-dot, from
    :func:`fs_exp_quotient`."""
    return _over_roots(datum, order, fs_exp_quotient)


def bernoulli(n):
    """B_0 .. B_n with B_1 = -1/2, from sum_{j=0..m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b
