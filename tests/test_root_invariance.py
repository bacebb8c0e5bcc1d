"""The S step of ``diagram`` and ``display`` against its series form.

Both suites decide s_i(S) = S, S = e_B exp(-rho.), on the positive roots
alone (``verify._invariance_failure``): each s_i must keep alpha_i among
them and permute the others.  The reference here is the series form,
S = e_B exp(-rho.) with e_B the product over the roots of naive Bernoulli
sums (:mod:`linear_series`), fixed by each ``fs_weyl(s_i)`` up to the
order.  Both must give the same verdict and the same witness, on
clean data and on faults planted in the datum's construction.
"""

import pytest

from heckeverify.formal_series import fs_weyl
from heckeverify.root_datum import RootDatum, build_root_datum, cartan_matrix
from heckeverify.verify import _invariance_failure

from datum_plants import (
    RELABELLED,
    moved_by,
    negated,
    positive_roots_changed,
    rows_as_simple_roots,
    without,
)
from linear_series import e_B, exp_linear


def series_failure(datum, order):
    """The witness of the series form: the first s_i that moves e_B exp(-rho.)
    up to ``order``, or None."""
    s = e_B(datum, order) * exp_linear(tuple(-a for a in datum.rho) + (0,), order)
    for i in range(datum.rank):
        if not fs_weyl(datum, datum.simple(i), s).eq(s, order):
            return "S = e_B exp(-rho.) is not invariant under s%d" % (i + 1)
    return None


SMALL = [cartan_matrix(family, rank) for family, rank in (
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2))]
MATRICES = SMALL + [cartan for cartan, _ in RELABELLED.values()]


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "rows-as-simple-roots"])
def test_the_roots_decide_what_the_series_decides(planted, monkeypatch):
    if planted:
        monkeypatch.setattr(RootDatum, "__init__", rows_as_simple_roots(RootDatum.__init__))
    verdicts = []
    for cartan in MATRICES:
        got = _invariance_failure(build_root_datum(cartan))
        for order in (2, 3):
            assert got == series_failure(build_root_datum(cartan), order), (cartan, order)
        # at order 1 the series sees only sigma/2 - rho., which is 0 whenever
        # the roots are right; the roots check reads the reflections too
        assert series_failure(build_root_datum(cartan), 1) is None
        verdicts.append(got)
    if planted:
        # the row convention is a fault exactly where the matrix is not symmetric
        assert [got is None for got in verdicts] == [
            [list(row) for row in zip(*cartan)] == [list(row) for row in cartan]
            for cartan in MATRICES]
    else:
        assert verdicts == [None] * len(MATRICES)


@pytest.mark.parametrize("family, rank", [
    ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_a_dropped_or_negated_root_fails_both_forms_alike(family, rank, monkeypatch):
    # s_i fixes beta exactly when <beta, alpha_i^v> = 0, and then it still
    # permutes the planted set; the first s_i that moves beta fails both
    cartan = cartan_matrix(family, rank)
    for beta in build_root_datum(cartan).positive_roots:
        want = "S = e_B exp(-rho.) is not invariant under s%d" % (moved_by(beta) + 1)
        for plant in (without(beta), negated(beta)):
            with monkeypatch.context() as m:
                m.setattr(RootDatum, "_compute_positive_roots", positive_roots_changed(plant))
                assert _invariance_failure(build_root_datum(cartan)) == want, beta
                for order in (1, 2, 3, 5):
                    assert series_failure(build_root_datum(cartan), order) == want, (
                        beta, order)
