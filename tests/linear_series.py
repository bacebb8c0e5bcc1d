"""Series of linear forms built the long way, as oracles for the closed forms.

The package builds exp(l), (exp(l) - 1)/l and l/(exp(l) - 1) of an int
linear form l in closed form (``fs_exp_sum`` with derivative weights).
These helpers build the same values with the general ``fs_exp``, exact
division by the form (``fs_div_linear``) and inversion (``fs_inv``), and
Bernoulli numbers by their recurrence, so they share no code path with the
weighted walk.
"""

from fractions import Fraction
from math import comb

from heckeverify.formal_series import FormalSeries, fs_div_linear, fs_exp, fs_inv


def linear(form, order):
    """The series c_1 x_1 + ... + c_n x_n at ``order``, for the tuple ``form`` = (c_i)."""
    n = len(form)
    return FormalSeries(n, order, {tuple(int(j == i) for j in range(n)): c
                                   for i, c in enumerate(form)})


def exp_linear(form, order):
    """exp of the linear form at ``order``, by ``fs_exp``."""
    return fs_exp(linear(form, order))


def fs_exp_quotient(form, order):
    """(exp(l) - 1)/l at ``order``: the general exp one degree high, divided by l."""
    n = len(form)
    return fs_div_linear(exp_linear(form, order + 1) - FormalSeries.one(n, order + 1), form)


def bernoulli_quotient(form, order):
    """l/(exp(l) - 1) at ``order``, as the inverse of :func:`fs_exp_quotient`."""
    return fs_inv(fs_exp_quotient(form, order))


def bernoulli(n):
    """B_0 .. B_n with B_1 = -1/2, from sum_{j=0..m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b
