"""The K-route and the display's short form against their literal products.

``pipeline_K`` evaluates e_B L_r(parity(duality(koszul(h)))) e_B^{-1} as
L_r(m(h)), from cached images L_r(T_w): the route is Ad(S) o L_r o m with
S = e_B exp(-rho.), and S is W-invariant, hence central.  The oracle here
applies the literal Koszul chain and multiplies the three factors out
with ``gh_mul`` on a second copy of the datum, with e_B and e_B^{-1} as
products over the roots of the naive sums of :mod:`linear_series`, so it
shares no cache with the code under test, and the results must be equal
in canonical form.  The K-route cases include A3 and C3: S must commute
with the reflections of both root lengths at rank three.

``display`` compares the short form exp(-2r) X, X = (t_s + 1) u_plus - 1,
where the paper conjugates X by e_B between exp(-rho. - 2r) and
exp(rho.); the long form lives on here as the oracle of the short one.
"""

import random

import pytest

from heckeverify.affine_hecke import HeckeElement, pipeline_K_h
from heckeverify.graded_hecke import GradedElement, gh_mul
from heckeverify.lusztig import DEFAULT_GUARD, lusztig_r, pipeline_K, unit_factor
from heckeverify.root_datum import build_root_datum, cartan_matrix
from heckeverify.verify import hecke_generators

from linear_series import e_B, e_B_inverse, exp_linear
from random_elements import rand_group_algebra
from weyl_group import weyl_elements

CASES = [("A", 4), ("B", 4), ("G", 3)]
# the K-route also at rank three, on words of length up to six (A3) and nine (C3)
K_ROUTE_CASES = [pytest.param(family, 2, order, id="%s-%d" % (family, order))
                 for family, order in CASES] + [pytest.param("A", 3, 3, id="A3-3"),
                                                pytest.param("C", 3, 3, id="C3-3")]


def canonical(a):
    """An element as {Weyl key: series}, comparable across datum copies."""
    return {w.key: f for w, f in a.coeffs.items()}


def literal_conjugate(a, eB, eB_inverse):
    """gh_mul(gh_mul(e_B, a), e_B^{-1}), multiplied out."""
    datum = a.datum
    return gh_mul(gh_mul(GradedElement.series(datum, eB), a),
                  GradedElement.series(datum, eB_inverse))


def two_term_hecke(rng, datum):
    w1, w2 = rng.sample(weyl_elements(datum), 2)
    return HeckeElement(datum, {w1: rand_group_algebra(rng, datum.rank),
                                w2: rand_group_algebra(rng, datum.rank)})


def hecke_cases(datum, seed):
    rng = random.Random(seed)
    return ([h for _, h in hecke_generators(datum)]
            + [two_term_hecke(rng, datum) for _ in range(20)])


@pytest.mark.parametrize("family,rank,order", K_ROUTE_CASES)
def test_k_route_is_the_literal_conjugate(family, rank, order):
    cartan = cartan_matrix(family, rank)
    datum, oracle = build_root_datum(cartan), build_root_datum(cartan)
    work = order + DEFAULT_GUARD
    eB, eB_inverse = e_B(oracle, work), e_B_inverse(oracle, work)
    for h, g in zip(hecke_cases(datum, 5), hecke_cases(oracle, 5)):
        got = pipeline_K(h, order)
        expected = literal_conjugate(lusztig_r(pipeline_K_h(oracle, g), work), eB, eB_inverse)
        assert canonical(got) == canonical(expected.truncate(order)), g


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)],
                         ids=["A1", "A2", "B2", "G2", "A3"])
def test_display_short_form_is_the_long_form(family, rank):
    # S = e_B exp(-rho.) is central, so conjugating by e_B between exp(-+rho.)
    # is the identity, and between exp(+-rho.) it is conjugation by exp(2 rho.)
    order = 5
    datum = build_root_datum(cartan_matrix(family, rank))
    rho, none = list(datum.rho), [0] * rank

    def exp(*form):
        return GradedElement.series(datum, exp_linear(sum(form, []), order))

    one = GradedElement.one(datum, order)
    eB, eB_inverse = e_B(datum, order), e_B_inverse(datum, order)
    for i in range(rank):
        u_plus = GradedElement.series(datum, unit_factor(datum, i, order))
        x = (GradedElement.ts(datum, i, order) + one) * u_plus - one
        conjugate = literal_conjugate(x, eB, eB_inverse)
        long_form = exp([-a for a in rho], [-2]) * conjugate * exp(rho, [0])
        assert canonical(long_form) == canonical(exp(none, [-2]) * x)
        flipped = exp(rho, [-2]) * conjugate * exp([-a for a in rho], [0])
        by_exp_2rho = exp([2 * a for a in rho], [0]) * x * exp([-2 * a for a in rho], [0])
        assert canonical(flipped) == canonical(exp(none, [-2]) * by_exp_2rho)
