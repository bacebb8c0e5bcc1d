"""Linear forms as series, for tests that exponentiate them by the general ``fs_exp``.

The package exponentiates int linear forms only through the closed form
``fs_exp_sum``; these helpers build the same values the long way, as the
independent oracle.
"""

from heckeverify.formal_series import FormalSeries, fs_exp


def linear(form, order):
    """The series c_1 x_1 + ... + c_n x_n at ``order``, for the tuple ``form`` = (c_i)."""
    n = len(form)
    return FormalSeries(n, order, {tuple(int(j == i) for j in range(n)): c
                                   for i, c in enumerate(form)})


def exp_linear(form, order):
    """exp of the linear form at ``order``, by ``fs_exp``."""
    return fs_exp(linear(form, order))
