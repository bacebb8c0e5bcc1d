"""L_l proved from L_r through the anti-involution iota.

iota fixes v, theta_x, the series and each T_s, and reverses products, so
L_l = iota o L_r o iota once iota is an anti-automorphism of both algebras.
``morphisms`` checks that through the reversed relation lists and on the
generators, and never evaluates L_l's relation list; these tests pin the
reversal, iota itself and that saving.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heckeverify import verify
from heckeverify.affine_hecke import HeckeElement
from heckeverify.formal_series import FormalSeries
from heckeverify.graded_hecke import GradedElement
from heckeverify.lattice_algebra import LS_V2
from heckeverify.lusztig import DEFAULT_GUARD, _LusztigMap, context
from heckeverify.root_datum import build_root_datum, cartan_matrix
from heckeverify.verify import check_morphisms, hecke_generators, rand_polynomial

DATA = {"%s%d" % (t, n): build_root_datum(cartan_matrix(t, n))
        for t, n in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]}


@pytest.mark.parametrize("name", sorted(DATA))
def test_the_reversed_lists_read_every_product_backwards(name):
    datum = DATA[name]
    for relation_list in (verify.k_relations(datum), verify.graded_relations(datum, 3)):
        factors, relations = relation_list
        got_factors, reversed_relations = verify._reversed(relation_list)
        assert got_factors is factors
        assert [label for label, _, _ in reversed_relations] == [
            label for label, _, _ in relations]
        for (_, lhs, rhs), (_, rlhs, rrhs) in zip(relations, reversed_relations):
            assert rlhs == [tuple(reversed(p)) for p in lhs]
            assert rrhs == [tuple(reversed(p)) for p in rhs]
        # some product is not its own reversal, so a list returned unchanged fails
        assert any(p != p[::-1] for _, lhs, rhs in relations for p in lhs + rhs)


def _on_e_and_s(rng, datum, i, order):
    """A random graded element supported on T_e and T_{s_i}."""
    return GradedElement(datum, order, {w: rand_polynomial(rng, datum.rank, order)
                                        for w in (datum.identity, datum.simple(i))
                                        if rng.random() < 0.8})


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(DATA)), st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
def test_iota_reverses_products_and_is_an_involution(name, seed, order):
    datum = DATA[name]
    rng = random.Random(seed)
    i = rng.randrange(datum.rank)
    a, b = _on_e_and_s(rng, datum, i, order), _on_e_and_s(rng, datum, i, order)
    assert verify._iota(a * b).eq(verify._iota(b) * verify._iota(a), order)
    assert verify._iota(verify._iota(a)).eq(a, order)


def test_iota_refuses_a_longer_t_w():
    datum = DATA["A2"]
    w = datum.left_mul(0, datum.simple(1))
    with pytest.raises(ValueError, match="iota is evaluated on T_e and the T_s"):
        verify._iota(GradedElement(datum, 3, {w: FormalSeries.one(3, 3)}))


def test_a_reversed_relation_that_fails_is_named():
    # T_s theta_x = (T_s theta_x) holds, and theta_x T_s = (T_s theta_x) does not
    datum, order = DATA["A2"], 3
    ts, theta = HeckeElement.Ts(datum, 0), HeckeElement.theta(datum, (1, 0))
    factors = {"T": ts, "th": theta, "T th": ts * theta}
    one_sided = (factors, [("T th", [("T", "th")], [("T th",)])])
    assert verify._relation_failure(one_sided, lambda h: h, lambda a, b: a == b) is None
    got = verify._iota_failure(context(datum, order + DEFAULT_GUARD), order, one_sided,
                               verify.graded_relations(datum, order))
    assert got.startswith("reversed T th fails in the Hecke algebra: lhs - rhs = "), got


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_a_warm_morphisms_check_maps_no_relation_factor_under_l_l_but_generators(
        name, monkeypatch):
    datum, order = DATA[name], 3
    assert check_morphisms(datum, order=order).status == "pass"
    l_map = context(datum, order + DEFAULT_GUARD).lusztig_l
    mapped = []
    call = _LusztigMap.__call__
    monkeypatch.setattr(_LusztigMap, "__call__", lambda self, h, o: (
        self is l_map and mapped.append(repr(h))) or call(self, h, o))
    assert check_morphisms(datum, order=order).status == "pass"
    generators = {repr(g) for _, g in hecke_generators(datum)}
    # besides the generators, the quadratic residue reads L_l(v^2), and the
    # construction check maps T_e and c T_w, none of them another factor
    v2 = repr(HeckeElement.scalar(datum, LS_V2))
    factors = set(verify.k_relations(datum)[0])
    assert set(mapped) & factors <= generators | {v2}
    assert len(factors - generators - {v2}) > 2 * datum.rank
    assert generators <= set(mapped)
