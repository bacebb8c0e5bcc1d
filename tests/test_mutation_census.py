"""A census of planted faults, each with the suite that must catch it.

Each row plants one fault by monkeypatch, runs the named suite on a datum
built after the plant, so that a fault of the construction is in it, and
expects it to fail with the recorded witness.  A fault that a
pass could hide is a suite that covers less than it claims.
"""

import pytest

from heckeverify import formal_series, normal_form, root_datum
from heckeverify.formal_series import _unpack
from heckeverify.root_datum import build_root_datum, cartan_matrix
from heckeverify.verify import (
    check_diagram,
    check_display_identity,
    check_modules,
    check_morphisms,
    check_presentation,
)

from datum_plants import moved_by, positive_roots_changed, rows_as_simple_roots


def _not_invariant(i):
    return "S = e_B exp(-rho.) is not invariant under s%d" % (i + 1)


def _rekeyed(rekey):
    """RootDatum.memo with ``rekey`` applied to every key of the store."""
    memo = root_datum.RootDatum.memo
    return lambda datum, key, build: memo(datum, rekey(key), build)


def _unit_product_without_r(key):
    """The (a, r) product of the unit factors stored under its order alone."""
    return key[:2] if isinstance(key, tuple) and key[0] == "unit_product" else key


def _ch_by_weights(key):
    """A ch image stored under its weights alone: v^k theta_x under x, so
    v, v^-1 and 1 share an entry."""
    if isinstance(key, tuple) and key[0] == "ch":
        return key[:2] + (frozenset(form[:-1] for _, form in key[2]),)
    return key


def _merged_into_first(act):
    """Rule.act that merges every term into the first coefficient's."""
    def merged(rule, a, value, zero):
        first = next(iter(a.values()), None)
        return act(rule, dict.fromkeys(a, first), value, zero)
    return merged


# (fault, module the plant patches, name patched in it, replacement, the
# suite that catches it, its witness on the clean datum and the order).
# s_i permutes the positive roots other than alpha_i, and so fixes
# S = e_B exp(-rho.), until a root beta is dropped or negated: then the
# first s_i with <beta, alpha_i^v> != 0 fails, and with the simple roots
# read from the rows of the Cartan matrix, s1 already does.  A witness
# that ends in ":" is the head of one that goes on to print the two sides.  Of the reuse in the store: display reads the unit factors at r =
# -2 before those at r = 2; diagram evaluates v^-1 in the K-route before v
# in the H-route; morphisms evaluates 1 after v^2; and L_l(T_s) has the
# coefficients u(alpha) and u(alpha) - 1, which merged into one give 0.
CENSUS = [
    ("positive-roots-miss-the-last", root_datum, "RootDatum._compute_positive_roots",
     positive_roots_changed(lambda roots: roots[:-1]), check_diagram,
     lambda datum, order: _not_invariant(moved_by(datum.positive_roots[-1]))),
    ("first-positive-root-negated", root_datum, "RootDatum._compute_positive_roots",
     positive_roots_changed(lambda roots: (tuple(-c for c in roots[0]),) + roots[1:]),
     check_diagram, lambda datum, order: _not_invariant(moved_by(datum.positive_roots[0]))),
    ("simple-roots-from-rows", root_datum, "RootDatum.__init__",
     rows_as_simple_roots(root_datum.RootDatum.__init__), check_diagram,
     lambda datum, order: _not_invariant(0)),
    ("unit-product-stored-without-r", root_datum, "RootDatum.memo",
     _rekeyed(_unit_product_without_r), check_display_identity,
     lambda datum, order: "display identity fails for s1:"),
    ("ch-keyed-by-weights-alone", root_datum, "RootDatum.memo", _rekeyed(_ch_by_weights),
     check_diagram, lambda datum, order: "diagram routes disagree on v:"),
    ("ch-keyed-by-weights-alone-morphisms", root_datum, "RootDatum.memo",
     _rekeyed(_ch_by_weights), check_morphisms,
     lambda datum, order: "L_r image of quadratic relation nonzero for s1:"),
    ("act-merges-unequal-coefficients", normal_form, "Rule.act",
     _merged_into_first(normal_form.Rule.act), check_modules,
     lambda datum, order: "L_l(T(s1)).1 is (O(%d)).1, not -1" % (order + 1)),
]


@pytest.mark.parametrize("family, rank, order", [("B", 2, 5), ("G", 2, 3)])
@pytest.mark.parametrize("fault, module, name, plant, suite, witness", CENSUS,
                         ids=[row[0] for row in CENSUS])
def test_planted_fault_fails_its_suite(fault, module, name, plant, suite, witness, family, rank,
                                       order, monkeypatch):
    want = witness(build_root_datum(cartan_matrix(family, rank)), order)
    owner, _, attr = name.rpartition(".")
    monkeypatch.setattr(getattr(module, owner) if owner else module, attr, plant)
    rep = suite(build_root_datum(cartan_matrix(family, rank)), order=order)
    assert rep.status == "fail", fault
    if want.endswith(":"):
        assert rep.witness.startswith((want + "\n", want + " ")), fault
    else:
        assert rep.witness == want, fault


def _demazure_negated_above_degree_4(dem_of):
    """``_WeylSubstitution.dem_of`` with Dem_i negated on every y-monomial of
    degree 5 or more."""
    def faulty(table, key):
        got = dem_of(table, key)
        return got if sum(_unpack(key, table.nvars)) < 5 else {e: -c for e, c in got.items()}
    return faulty


@pytest.mark.parametrize("family, rank, order", [("A", 2, 6), ("B", 2, 5)])
def test_a_demazure_table_wrong_above_degree_4_fails_presentation(family, rank, order,
                                                                  monkeypatch):
    # the graded loop draws degrees up to the order, so it compares the
    # table entries above degree 4 with the division route too
    table = formal_series._WeylSubstitution
    monkeypatch.setattr(table, "dem_of", _demazure_negated_above_degree_4(table.dem_of))
    rep = check_presentation(build_root_datum(cartan_matrix(family, rank)), order=order)
    assert rep.status == "fail"
    assert rep.witness.startswith("graded commutation fails at i=")
