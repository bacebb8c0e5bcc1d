"""A census of planted faults, each with the suite that must catch it.

Each row plants one fault by monkeypatch, runs the named suite on a fresh
datum, and expects it to fail with the recorded witness.  A fault that a
pass could hide is a suite that covers less than it claims.
"""

import pytest

from heckeverify import graded_hecke
from heckeverify.formal_series import fs_exp_sum, log_todd_weights
from heckeverify.root_datum import build_root_datum, cartan_matrix
from heckeverify.verify import check_diagram


def _flipped_linear_weight(order):
    """The log-Todd weights with +1/2 in place of -1/2 at degree one."""
    return [-w if k == 1 else w for k, w in enumerate(log_todd_weights(order))]


def _last_root_dropped(nvars, order, pairs, weights=None):
    """The walk without its last term: G, the one walk of ``graded_hecke``,
    misses the last positive root."""
    return fs_exp_sum(nvars, order, pairs[:-1], weights)


def _not_invariant(i):
    return "S = e_B exp(-rho.) is not invariant under s%d" % (i + 1)


# (fault, name patched in graded_hecke, replacement, the suite that catches
# it, its witness on the datum); S = exp(G - rho.) moves under s_i when
# G's linear part is not rho., and, without the factor of a positive root
# beta, exactly when <beta, alpha_i^v> != 0
CENSUS = [
    ("linear-log-weight-plus-half", "log_todd_weights", _flipped_linear_weight, check_diagram,
     lambda datum: _not_invariant(0)),
    ("G-misses-a-positive-root", "fs_exp_sum", _last_root_dropped, check_diagram,
     lambda datum: _not_invariant(min(i for i, c in enumerate(datum.positive_roots[-1]) if c))),
]


@pytest.mark.parametrize("family, rank, order", [("B", 2, 5), ("G", 2, 3)])
@pytest.mark.parametrize("fault, name, plant, suite, witness", CENSUS,
                         ids=[row[0] for row in CENSUS])
def test_planted_fault_fails_its_suite(fault, name, plant, suite, witness, family, rank, order,
                                       monkeypatch):
    datum = build_root_datum(cartan_matrix(family, rank))
    monkeypatch.setattr(graded_hecke, name, plant)
    rep = suite(datum, order=order)
    assert (rep.status, rep.witness) == ("fail", witness(datum)), fault
