import functools
import json
import operator
import pathlib
import random
from fractions import Fraction

import pytest

from heckeverify import lusztig, verify
from heckeverify.affine_hecke import (
    BernsteinRule,
    HeckeElement,
    _GeneratorMap,
    k_side_maps,
    ts_inverse,
    twist,
)
from heckeverify.formal_series import (
    FormalSeries,
    _WeylSubstitution,
    fs_exp_sum,
    fs_negate_r,
)
from heckeverify.graded_hecke import (
    GradedElement,
    GradedRule,
    fourier_map,
    gh_mul,
)
from heckeverify.lattice_algebra import GroupAlgebraElement, LS_V2
from heckeverify.lusztig import _LusztigMap, context
from heckeverify.normal_form import GeneratorImages
from heckeverify.root_datum import RootDatum, build_root_datum, cartan_matrix
from heckeverify.verify import (
    CheckReport,
    check_diagram,
    check_display_identity,
    check_modules,
    check_morphisms,
    check_presentation,
    report_json,
    report_text,
    run_suites,
    SUITES,
)

from construction_walk import walk_failure
from datum_plants import moved_by, positive_roots_changed, without
from linear_series import exp_linear
from weyl_group import mul

A1 = build_root_datum([[2]])
A2 = build_root_datum(cartan_matrix("A", 2))
DESC = {"type": "A", "rank": 1}
CONTROLS = {c["control"]: c for c in json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "golden"
     / "controls.json").read_text())}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_suite_passes_on_rank_one(suite):
    (rep,) = run_suites(A1, [suite], order=5, guard=2, seed=0)
    assert rep.status == "pass", rep.witness
    assert rep.witness is None
    assert rep.name == suite


# G2 at order 3, B3 and C3 at order 2: non-simply-laced and rank three,
# where the row/column convention of the Cartan matrix matters.  A4 and D4
# at order 2: rank four, with 120 and 192 Weyl group elements.  F4 (1,152
# elements), D6 (23,040), E6 (51,840), E7 (2,903,040) and E8 (696,729,600)
# at order 2: no suite walks W, and the datum makes only the elements a
# suite touches, so each builds in milliseconds.
OTHER_TYPES = [("G", 2, 3), ("B", 3, 2), ("C", 3, 2), ("A", 4, 2), ("D", 4, 2),
               ("F", 4, 2), ("D", 6, 2), ("E", 6, 2), ("E", 7, 2), ("E", 8, 2)]
OTHER_CASES = [(family, rank, order, suite) for family, rank, order in OTHER_TYPES
               for suite in sorted(SUITES)]


@pytest.mark.parametrize("family, rank, order, suite", OTHER_CASES)
def test_suite_passes_on_other_types(family, rank, order, suite):
    datum = build_root_datum(cartan_matrix(family, rank))
    (rep,) = run_suites(datum, [suite], order=order, guard=2, seed=0)
    assert rep.status == "pass", rep.witness


def test_run_all_is_every_suite_sorted():
    reps = run_suites(A1, ["all"], order=4, guard=2, seed=0)
    assert [rep.name for rep in reps] == sorted(SUITES)
    assert all(rep.status == "pass" for rep in reps)


# -- negative controls: each corruption must produce a fail with a witness --

@pytest.mark.parametrize("count", [20, 100])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_distinct_cases_keep_first_draws_and_make_every_draw(n, count):
    for seed in range(20):
        raw = random.Random(seed)
        draws = [(tuple(raw.randint(-3, 3) for _ in range(n)), raw.randrange(n))
                 for _ in range(count)]
        rng = random.Random(seed)
        assert verify._distinct_cases(rng, n, count) == list(dict.fromkeys(draws))
        assert rng.getstate() == raw.getstate()


@pytest.mark.parametrize("datum, distinct", [(A1, 7), (A2, 64)], ids=["A1", "A2"])
@pytest.mark.parametrize("check", [check_presentation, check_modules])
def test_each_distinct_sampled_case_runs_once(monkeypatch, check, datum, distinct):
    # the presentation K loop and the modules antispherical loop each call
    # mul_by_scriptG once per case: every distinct case runs, and no repeat
    cases = verify._distinct_cases(random.Random(0), datum.rank, 100)
    calls = []
    scriptG = verify.mul_by_scriptG
    monkeypatch.setattr(verify, "mul_by_scriptG",
                        lambda d, x, i: calls.append((x, i)) or scriptG(d, x, i))
    rep = check(datum, seed=0)
    assert rep.status == "pass", rep.witness
    assert len(cases) == distinct
    assert calls == cases


@pytest.mark.parametrize("check, per_s", [(check_presentation, 2), (check_modules, 3)])
def test_each_t_s_is_built_a_fixed_number_of_times(monkeypatch, check, per_s):
    # the K loops read T_s and T_s + 1 from lists built once per check, so
    # the T_s built do not grow with the 64 sampled cases on A2: the rest
    # are the relation list's (presentation) and the L_l images (modules)
    built = []
    ts = verify.HeckeElement.Ts
    monkeypatch.setattr(verify.HeckeElement, "Ts",
                        lambda datum, i: built.append(i) or ts(datum, i))
    rep = check(A2, seed=0)
    assert rep.status == "pass", rep.witness
    assert sorted(built) == [0] * per_s + [1] * per_s


def _fraction_polynomial(rng, n, order):
    """The draw of ``verify.rand_polynomial``, built from Fraction coefficients."""
    coeffs = {}
    for _ in range(rng.randint(2, 4)):
        deg = rng.randint(0, order)
        exp = [0] * (n + 1)
        for _ in range(deg):
            exp[rng.randrange(n + 1)] += 1
        c = Fraction(rng.randint(-8, 8) or 1, rng.randint(1, 8))
        exp = tuple(exp)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + c
    f = FormalSeries(n + 1, order, coeffs)
    return f if not f.is_zero() else FormalSeries.one(n + 1, order)


@pytest.mark.parametrize("seed, n, order",
                         [(0, 1, 0), (1, 1, 3), (2, 2, 6), (3, 2, 1), (4, 3, 4), (5, 8, 5)])
def test_rand_polynomial_equals_its_fraction_built_draw(seed, n, order):
    # same draws in the same order, same canonical series, same term order
    rng, oracle = random.Random(seed), random.Random(seed)
    for _ in range(334):
        got, want = verify.rand_polynomial(rng, n, order), _fraction_polynomial(oracle, n, order)
        assert (got.nvars, got.order, got.den) == (want.nvars, want.order, want.den)
        assert list(got.terms.items()) == list(want.terms.items())
        assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("datum", [A1, A2, build_root_datum(cartan_matrix("B", 2))],
                         ids=["A1", "A2", "B2"])
def test_modules_builds_each_closed_form_image_once(monkeypatch, datum):
    # n sign checks L_l(T_s).1 and n images L_l(1 + T_s), however many
    # distinct closed-form cases the suite draws
    rng = random.Random(0)
    verify._distinct_cases(rng, datum.rank, 100)
    cases = verify._distinct_cases(rng, datum.rank, 20)
    assert len(cases) > datum.rank
    calls = []
    lusztig_l = verify.lusztig_l
    monkeypatch.setattr(verify, "lusztig_l",
                        lambda h, *args: calls.append(h) or lusztig_l(h, *args))
    assert check_modules(datum, order=3, seed=0).status == "pass"
    assert len(calls) == 2 * datum.rank


def test_corrupted_bernstein_sign_fails():
    rep = check_presentation(A1, order=5, _bernstein_sign=-1)
    assert rep.status == "fail"
    assert rep.witness


def test_corrupted_unit_r_coefficient_fails():
    rep = check_morphisms(A1, order=5, _unit_r_coeff=3)
    assert rep.status == "fail"
    assert rep.witness


def test_dropped_conjugation_fails():
    rep = check_diagram(A1, order=5, _conjugate=False)
    assert rep.status == "fail"
    assert rep.witness


def _permuted(cartan, perm):
    return [[cartan[i][j] for j in perm] for i in perm]


# S = e_B exp(-rho.) must be W-invariant under reflections of both root
# lengths, on relabelled nodes and on a reducible datum as well
INVARIANT_S = [
    ("B2", cartan_matrix("B", 2), 5),
    ("G2", cartan_matrix("G", 2), 3),
    ("G2-transposed", [list(row) for row in zip(*cartan_matrix("G", 2))], 3),
    ("C3-permuted", _permuted(cartan_matrix("C", 3), (2, 0, 1)), 3),
    ("A1+G2", [[2, 0, 0], [0, 2, -1], [0, -3, 2]], 3),
]


@pytest.mark.parametrize("name, cartan, order", INVARIANT_S, ids=[c[0] for c in INVARIANT_S])
def test_diagram_passes_with_an_invariant_S(name, cartan, order):
    rep = check_diagram(build_root_datum(cartan), order=order)
    assert (rep.status, rep.witness) == ("pass", None), name


@pytest.mark.parametrize("name, cartan, order", INVARIANT_S[:2], ids=["B2", "G2"])
def test_a_non_invariant_S_fails_diagram_before_any_route(name, cartan, order, monkeypatch):
    # the diagram check proves the step that lets the K-route drop Ad(S):
    # a set of positive roots that some s_i does not permute, bar alpha_i,
    # fails with that s_i, and no route is evaluated
    routes = []
    for route in ("pipeline_K", "pipeline_H"):
        monkeypatch.setattr(verify, route, lambda *args, _r=route: routes.append(_r))
    positive_roots = build_root_datum(cartan).positive_roots
    # no roots at all: alpha_1 is missing
    plants = [(lambda roots: (), 0)]
    # s_i fixes beta, and then the set without beta, exactly when <beta, alpha_i^v> = 0
    plants += [(without(beta), moved_by(beta)) for beta in positive_roots]
    for change, moved in plants:
        # the roots are made with the datum: each plant runs on a fresh one
        with monkeypatch.context() as m:
            m.setattr(RootDatum, "_compute_positive_roots", positive_roots_changed(change))
            rep = check_diagram(build_root_datum(cartan), order=order)
        assert (rep.status, rep.witness) == (
            "fail", "S = e_B exp(-rho.) is not invariant under s%d" % (moved + 1)), name
    assert routes == []


def test_diagram_fails_when_it_compares_fewer_generators(monkeypatch):
    # a generator list that skips T(s_n) would leave the routes unchecked
    # there; the suite counts what it compared against 1 + 3n
    generators = verify.hecke_generators
    monkeypatch.setattr(verify, "hecke_generators", lambda datum: generators(datum)[:-1])
    for datum in (A1, A2):
        rep = check_diagram(datum, order=3)
        n = datum.rank
        assert (rep.status, rep.witness) == ("fail", "diagram compared %d generators, "
                                             "not 1 + 3n = %d for rank %d" % (3 * n, 3 * n + 1, n))


def test_flipped_display_weight_fails():
    rep = check_display_identity(A1, order=5, _flip_rho=True)
    assert rep.status == "fail"
    assert rep.witness


@pytest.mark.parametrize("guard", [0, 1, 2])
def test_flipped_display_weight_gives_its_golden_witness(guard):
    # the display products run at the compared order at every guard; the
    # witness is the one recorded for B2 at order 5
    want = CONTROLS["_flip_rho=True"]
    rep = check_display_identity(build_root_datum(cartan_matrix("B", 2)), order=5,
                                 guard=guard, _flip_rho=True)
    assert (rep.name, rep.status, rep.witness) == (want["check"], "fail", want["witness"])


@pytest.mark.parametrize("family, order", [("A", 4), ("G", 3)])
def test_rho_controls_give_the_witnesses_of_their_definitions(family, order):
    # _conjugate=False compares exp(-rho.) K exp(rho.) with the H-route, and
    # _flip_rho=True puts exp(2 rho.) X exp(-2 rho.) for X in the display;
    # the exponentials here are naive sums, not the controls' fs_exp_sum
    datum = build_root_datum(cartan_matrix(family, 2))

    def exp(c, r=0):
        """exp(c rho. + r r) as a graded element at ``order``."""
        return GradedElement.series(
            datum, exp_linear(tuple(c * a for a in datum.rho) + (r,), order))

    routes = ((name, exp(-1) * lusztig.pipeline_K(h, order) * exp(1),
               lusztig.pipeline_H(h, order)) for name, h in verify.hecke_generators(datum))
    want = "diagram routes disagree on %s:\n  K-route: %r\n  H-route: %r" % next(
        (name, k, h) for name, k, h in routes if not k.eq(h, order))
    rep = check_diagram(datum, order=order, _conjugate=False)
    assert (rep.status, rep.witness) == ("fail", want)

    one = GradedElement.one(datum, order)

    def display(i):
        ts = GradedElement.ts(datum, i, order)
        u_minus, u_plus = (GradedElement.series(datum, lusztig.unit_factor(datum, i, order, c))
                           for c in (-2, 2))
        x = (ts + one) * u_plus - one
        return i + 1, u_minus * (one - ts), one - exp(0, -2) * (exp(2) * x * exp(-2))

    want = "display identity fails for s%d:\n  lhs: %r\n  rhs: %r" % next(
        (i, lhs, rhs) for i, lhs, rhs in map(display, range(datum.rank))
        if not lhs.eq(rhs, order))
    rep = check_display_identity(datum, order=order, _flip_rho=True)
    assert (rep.status, rep.witness) == ("fail", want)


def test_corrupted_module_sign_fails():
    rep = check_modules(A1, order=5, _sign_value=1)
    assert rep.status == "fail"
    assert rep.witness


@pytest.mark.parametrize("rank", [7, 8])
@pytest.mark.parametrize("check, fault", [
    (check_presentation, {"_bernstein_sign": -1}),
    (check_morphisms, {"_unit_r_coeff": 3}),
    (check_diagram, {"_conjugate": False}),
    (check_display_identity, {"_flip_rho": True}),
    (check_modules, {"_sign_value": 1}),
], ids=["bernstein-sign", "unit-r-coeff", "conjugate", "flip-rho", "module-sign"])
def test_negative_controls_fail_on_e7_and_e8(check, fault, rank):
    rep = check(build_root_datum(cartan_matrix("E", rank)), order=2, **fault)
    assert rep.status == "fail"
    assert rep.witness


def _plant_graded_sign(datum, order):
    GradedRule(datum, sign=1).install()


def _plant_k_sign(datum, order):
    BernsteinRule(datum, sign=1).install()


def _plant_unit_r_coeff_3(datum, order):
    work = order + lusztig.DEFAULT_GUARD
    context(datum, work).units.update(
        {i: lusztig.unit_factor(datum, i, work, r_coeff=3) for i in range(datum.rank)})


@pytest.mark.parametrize("family, order", [("A", 6), ("B", 5), ("G", 3)])
@pytest.mark.parametrize("plant, expected", [
    (_plant_graded_sign, "L_l(T(s1)).1 is "),
    (_plant_k_sign, "antispherical action fails at "),
    (_plant_unit_r_coeff_3, "closed-form action fails at "),
], ids=["graded-sign", "k-sign", "unit-r-coeff-3"])
def test_module_fault_fails_its_loop(family, order, plant, expected):
    # the sign check, the antispherical loop and the closed-form loop each
    # catch a fault the other two pass; each is planted in a private datum
    datum = build_root_datum(cartan_matrix(family, 2))
    plant(datum, order)
    rep = check_modules(datum, order=order)
    assert rep.status == "fail"
    assert rep.witness.startswith(expected), rep.witness


# -- faults in the K-side maps and the Fourier map ---------------------------
#
# Each fault is planted in the maps of a private datum, so the shared store
# of A2 is never touched; check_morphisms must fail and name the map and
# the relation, factorization or construction step that breaks.  A fault
# that shows only on T_w with l(w) >= 2, where no suite evaluates a map,
# must fail the construction walk of the library maps instead.

def _morphisms_witness(datum):
    rep = check_morphisms(datum, order=3)
    assert rep.status == "fail"
    return rep.witness


def _walk_witness(datum):
    return walk_failure(datum, 3)


def _koszul_ts(datum, scalar, right_shift=True):
    rho = datum.rho

    def ts_image(i, order):
        core = ts_inverse(datum, i).scale_left(
            GroupAlgebraElement.one(datum.rank).scale(scalar))
        img = HeckeElement.theta(datum, rho) * core
        if right_shift:
            img = img * HeckeElement.theta(datum, tuple(-a for a in rho))
        return img
    return ts_image


def _letter_times_prefix(self, w, order=None):
    """image(T_w) as image(T_s) image(T_{ws}), s the last letter of w: the
    factors in the wrong order."""
    img = self._images.get((w, order))
    if img is None and len(w.word) > 1:
        i = w.word[-1]
        prefix = mul(self.datum, w, self.datum.simple(i))
        img = self._images[(w, order)] = \
            self.image(self.datum.simple(i), order) * self.image(prefix, order)
    return img if img is not None else GeneratorImages.image(self, w, order)


class _LetterTimesPrefix(_GeneratorMap):
    image = _letter_times_prefix


class _WeightsNotNegated(_GeneratorMap):
    def __call__(self, elem):
        out = HeckeElement(self.datum)
        for w, c in elem.coeffs.items():
            cimg = c.substitute(self.vexp_image, self.sign, False)
            out = out + self.image(w).scale_left(cimg)
        return out


def _plant_koszul_plus_v2(datum, maps):
    maps[0].ts_image = _koszul_ts(datum, LS_V2)


def _plant_koszul_without_right_shift(datum, maps):
    maps[0].ts_image = _koszul_ts(datum, -LS_V2, right_shift=False)


def _plant_duality_fixing_ts(datum, maps):
    maps[1].ts_image = lambda i, order: HeckeElement.Ts(datum, i)


def _plant_letter_times_prefix(datum, maps):
    # the walk evaluates m on every T_w; the Koszul chain it factors is
    # evaluated only on generators
    twist(datum).__class__ = _LetterTimesPrefix


def _plant_twist_plus_v2(datum, maps):
    # T_s |-> -v^2 T_s: the Koszul chain no longer factors through m
    twist(datum).ts_image = lambda i, order: HeckeElement.Ts(datum, i).scale_left(
        GroupAlgebraElement.one(datum.rank).scale(-LS_V2))


def _plant_weights_not_negated(datum, maps):
    for fmap in maps:
        fmap.__class__ = _WeightsNotNegated


@pytest.mark.parametrize("plant, check, expected", [
    pytest.param(_plant_koszul_plus_v2, _morphisms_witness,
                 "koszul image of quadratic relation for s1 fails", id="koszul-plus-v2"),
    pytest.param(_plant_koszul_without_right_shift, _morphisms_witness,
                 "koszul image of quadratic relation for s1 fails", id="koszul-no-right-shift"),
    pytest.param(_plant_duality_fixing_ts, _morphisms_witness,
                 "duality image of quadratic relation for s1 fails", id="duality-fixes-ts"),
    pytest.param(_plant_letter_times_prefix, _walk_witness,
                 "twist map m: image of T(s1.s2) is not the product along its word",
                 id="letter-times-prefix"),
    pytest.param(_plant_twist_plus_v2, _morphisms_witness,
                 "factorization of the Koszul chain through m fails on T(s1)",
                 id="twist-plus-v2"),
    pytest.param(_plant_weights_not_negated, _morphisms_witness,
                 "koszul image of Bernstein relation for s1 and th(+w1) fails",
                 id="weights-not-negated"),
])
def test_faulty_k_side_map_fails_by_name(plant, check, expected):
    datum = build_root_datum(A2.cartan)
    plant(datum, k_side_maps(datum))
    witness = check(datum)
    assert witness is not None and witness.startswith(expected), witness


def _fourier_without_r(a):
    return GradedElement(a.datum, a.order, {w: -f if w.length % 2 else f
                                            for w, f in a.coeffs.items()})


def _fourier_sign_off_identity(a):
    return GradedElement(a.datum, a.order, {w: fs_negate_r(f) if w.length == 0
                                            else -fs_negate_r(f)
                                            for w, f in a.coeffs.items()})


@pytest.mark.parametrize("fault, walk, expected", [
    pytest.param(_fourier_without_r, False,
                 "fourier image of commutation rule for s1 and y1 fails", id="r-kept"),
    pytest.param(_fourier_sign_off_identity, True,
                 "fourier map: image of T(s1.s2) is not the product along its word",
                 id="sign-off-identity"),
])
def test_faulty_fourier_map_fails_by_name(monkeypatch, fault, walk, expected):
    datum = build_root_datum(A2.cartan)
    if walk:
        witness = walk_failure(datum, 3, fourier=fault)
    else:
        monkeypatch.setattr(verify, "fourier_map", fault)
        witness = _morphisms_witness(datum)
    assert witness is not None and witness.startswith(expected), witness


class _LusztigLetterTimesPrefix(_LusztigMap):
    image = _letter_times_prefix


@pytest.mark.parametrize("side", ["r", "l"])
def test_faulty_lusztig_map_fails_by_name(side):
    # T_s and theta images stay right, so only the construction walk sees it
    datum = build_root_datum(A2.cartan)
    lmap = getattr(context(datum, 3 + 2), "lusztig_" + side)
    lmap.__class__ = _LusztigLetterTimesPrefix
    witness = walk_failure(datum, 3, guard=2)
    assert witness is not None and witness.startswith(
        "L_%s map: image of T(s1.s2) is not the product along its word" % side), witness


def _on_identity_only(self, h, order, coeff_image):
    """``GeneratorImages.evaluate`` that maps the coefficient of T_e only:
    c T_w goes to image(T_w) for w != e."""
    one = GroupAlgebraElement.one(self.datum.rank)
    h = HeckeElement(self.datum, {w: c if w.length == 0 else one for w, c in h.coeffs.items()})
    return GeneratorImages.evaluate(self, h, order, coeff_image)


class _TwistDroppingCoefficients(_GeneratorMap):
    evaluate = _on_identity_only


class _LusztigDroppingCoefficients(_LusztigMap):
    evaluate = _on_identity_only


def _plant_twist_dropping_coefficients(datum):
    twist(datum).__class__ = _TwistDroppingCoefficients


def _plant_lusztig_dropping_coefficients(side):
    def plant(datum):
        getattr(context(datum, 3 + 2), "lusztig_" + side).__class__ = \
            _LusztigDroppingCoefficients
    return plant


@pytest.mark.parametrize("plant, name", [
    pytest.param(_plant_twist_dropping_coefficients, "twist map m", id="m"),
    pytest.param(_plant_lusztig_dropping_coefficients("r"), "L_r map", id="r"),
    pytest.param(_plant_lusztig_dropping_coefficients("l"), "L_l map", id="l"),
])
def test_map_dropping_coefficients_off_identity_fails_morphisms_by_name(plant, name):
    # generators and relation factors carry coefficient 1 on T_s, so only
    # the scoped construction check, at c = v theta_{w1}, sees it
    datum = build_root_datum(A2.cartan)
    plant(datum)
    rep = check_morphisms(datum, order=3, guard=2)
    assert rep.status == "fail"
    assert rep.witness.startswith(
        "%s: image of c*T(s1) is not image(c)*image(T(s1))" % name), rep.witness


def _ch_of_negated_weights(datum, ga, order):
    """ch with theta_x -> exp(-x-dot); the images of v and of each T_s are kept."""
    return fs_exp_sum(datum.rank + 1, order, [
        (c, tuple(-a for a in x) + (k,)) for x, laurent in ga.coeffs.items()
        for k, c in laurent.coeffs.items()])


def test_faulty_lusztig_theta_images_fail_the_bernstein_relation(monkeypatch):
    # the quadratic relation sees only v and T_s, so the relation list must catch it
    monkeypatch.setattr(lusztig, "series_of_group_algebra", _ch_of_negated_weights)
    rep = check_morphisms(build_root_datum(A2.cartan), order=3)
    assert rep.status == "fail"
    assert rep.witness.startswith(
        "L_r image of Bernstein relation for s1 and th(+w1) fails"), rep.witness


def _untwisted_dem_of(self, key):
    """Dem(m y_j) = Dem(m) y_j + m Dem(y_j): the Leibniz rule without s(m)."""
    got = self.dems.get(key)
    if got is None:
        j = self._last(key)
        parent = key - self.units[j]
        got = {e + self.units[j]: c for e, c in _untwisted_dem_of(self, parent).items()}
        if j == self.simple:
            got[parent] = got.get(parent, 0) + 1
        got = self.dems[key] = {e: c for e, c in got.items() if c}
    return got


@pytest.mark.parametrize("cartan", [A2.cartan, cartan_matrix("B", 2)])
def test_faulty_demazure_table_fails_presentation_by_name(monkeypatch, cartan):
    # gh_mul reads Dem_s from the tables; the battery divides by alpha-dot
    monkeypatch.setattr(_WeylSubstitution, "dem_of", _untwisted_dem_of)
    rep = check_presentation(build_root_datum(cartan), order=4)
    assert rep.status == "fail"
    assert rep.witness.startswith("graded commutation fails at"), rep.witness


@pytest.mark.parametrize("cartan", [A1.cartan, cartan_matrix("B", 2)], ids=["A1", "B2"])
def test_faulty_graded_quadratic_relation_fails_presentation_by_name(cartan):
    # t_s^2 = t_s + 1 in a private datum's graded rule; the random loops
    # never multiply t_s by t_s, so the graded relation list must see it
    datum = build_root_datum(cartan)
    rule = GradedRule(datum)
    rule.a = 1
    rule.install()
    rep = check_presentation(datum, order=4)
    assert rep.status == "fail"
    assert rep.witness.startswith("t_s^2 = 1 for s1 fails in the graded algebra"), rep.witness


@pytest.mark.parametrize("family", ["A", "B", "G"])
def test_no_two_relation_factors_are_equal(family):
    # each factor is mapped once per map, so equal factors (on A2,
    # s1(th(-w1)) = s2(th(+w2)) = th(1,-1)) must share one name
    datum = build_root_datum(cartan_matrix(family, 2))
    # 2 quadratic, 1 braid and 2 x 4 Bernstein (th(+-w1), th(+-w2)) or
    # 2 x 3 commutation (y1, y2, r) relations
    for (factors, relations), equal, count in (
            (verify.k_relations(datum), lambda a, b: a == b, 11),
            (verify.graded_relations(datum, 3), lambda a, b: a.eq(b), 9)):
        elements = list(factors.values())
        for k, a in enumerate(elements):
            assert not any(equal(a, b) for b in elements[k + 1:]), a
        assert {name for _, lhs, rhs in relations for p in lhs + rhs for name in p} == set(factors)
        assert len(relations) == count


def _relation_maps(datum, order):
    """(name, relation list, image, equal) for each map the suites evaluate
    a relation list under, and for the identity of each algebra."""
    k_rels, g_rels = verify.k_relations(datum), verify.graded_relations(datum, order)
    guard = lusztig.DEFAULT_GUARD

    def g_equal(a, b):
        return a.eq(b, order)

    maps = [("identity", k_rels, lambda h: h, operator.eq),
            ("L_r", k_rels, lambda h: lusztig.lusztig_r(h, order, guard), g_equal),
            ("L_l", k_rels, lambda h: lusztig.lusztig_l(h, order, guard), g_equal)]
    maps += [(name, k_rels, fmap, operator.eq)
             for name, fmap in zip(("koszul", "duality", "parity"), k_side_maps(datum))]
    return maps + [("graded identity", g_rels, lambda g: g, g_equal),
                   ("fourier", g_rels, fourier_map, g_equal)]


@pytest.mark.parametrize("family, rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)],
                         ids=["A1", "A2", "B2", "G2"])
def test_relation_sides_do_not_depend_on_the_nesting(family, rank):
    # _relation_failure nests products right to left; left to right gives
    # the same value of every side, under every map
    datum = build_root_datum(cartan_matrix(family, rank))
    for name, (factors, relations), image, equal in _relation_maps(datum, 3):
        images = {key: image(h) for key, h in factors.items()}
        for label, lhs, rhs in relations:
            for products in (lhs, rhs):
                left = right = None
                for names in products:
                    operands = [images[key] for key in names]
                    p = functools.reduce(operator.mul, operands)
                    q = functools.reduce(lambda acc, f: f * acc, reversed(operands))
                    left = p if left is None else left + p
                    right = q if right is None else right + q
                assert equal(left, right), (name, label)


def test_lusztig_braid_products_take_one_factor_image_on_the_left(monkeypatch):
    # a product pushes each term of its left operand, so the 4-term
    # L_r(T1) L_r(T2) must never stand on the left
    order = 6
    factors, relations = verify.k_relations(A2)
    braid = [rel for rel in relations if rel[0].startswith("braid")]
    images = {id(h): lusztig.lusztig_r(h, order, lusztig.DEFAULT_GUARD)
              for h in factors.values()}
    lefts = []
    mul = GradedElement.__mul__
    monkeypatch.setattr(GradedElement, "__mul__", lambda a, b: lefts.append(a) or mul(a, b))
    assert verify._relation_failure(
        (factors, braid), lambda h: images[id(h)], lambda a, b: a.eq(b, order)) is None
    assert len(braid) == 1 and len(lefts) == 4
    for a in lefts:
        assert any(a is img for img in images.values()) and len(a.coeffs) <= 2


def _dropping(relations, label):
    """``relations`` without the relations whose label starts with ``label``."""
    def wrapper(*args):
        factors, rels = relations(*args)
        return factors, [rel for rel in rels if not rel[0].startswith(label)]
    return wrapper


@pytest.mark.parametrize("family", ["A", "B", "G"])
def test_relation_list_missing_a_relation_fails(monkeypatch, family):
    # every relation left in the lists holds, so only the count sees the gap
    datum = build_root_datum(cartan_matrix(family, 2))
    for target, label, want in (
            ("_relations", "braid", "Hecke relation list has 10 relations, not 11"),
            ("graded_relations", "commutation rule for s2 and r",
             "graded relation list has 8 relations, not 9")):
        with monkeypatch.context() as patch:
            patch.setattr(verify, target, _dropping(getattr(verify, target), label))
            for check in (check_presentation, check_morphisms):
                rep = check(datum, order=3)
                assert (rep.status, rep.witness) == ("fail", "the %s for rank 2" % want)


def test_negative_controls_fail_on_rank_two_as_well():
    assert check_presentation(A2, order=4, _bernstein_sign=-1).status == "fail"
    assert check_diagram(A2, order=4, _conjugate=False).status == "fail"


# -- reports ---------------------------------------------------------------

def strip_timing(payload):
    doc = json.loads(payload)
    for chk in doc["checks"]:
        chk.pop("elapsed_ms")
    return doc


def test_json_report_schema_and_determinism():
    reps = run_suites(A1, ["presentation", "diagram"], order=4)
    payload = report_json(DESC, 4, 2, 0, reps)
    doc = json.loads(payload)
    assert set(doc) == {"artifact_version", "datum", "order", "guard", "seed", "checks"}
    assert doc["datum"] == DESC
    assert doc["order"] == 4 and doc["guard"] == 2 and doc["seed"] == 0
    assert [chk["name"] for chk in doc["checks"]] == ["diagram", "presentation"]
    for chk in doc["checks"]:
        assert chk["status"] == "pass"
        assert "elapsed_ms" in chk
    reps2 = run_suites(A1, ["presentation", "diagram"], order=4)
    payload2 = report_json(DESC, 4, 2, 0, reps2)
    assert strip_timing(payload) == strip_timing(payload2)


def test_check_report_as_dict_with_and_without_witness():
    assert CheckReport("diagram", "pass").as_dict() == {
        "name": "diagram", "status": "pass", "elapsed_ms": 0.0}
    rep = CheckReport("modules", "fail", 12.34567, "lhs - rhs = 1")
    assert (rep.name, rep.status, rep.elapsed_ms, rep.witness) == (
        "modules", "fail", 12.34567, "lhs - rhs = 1")
    assert rep.as_dict() == {"name": "modules", "status": "fail",
                             "elapsed_ms": 12.346, "witness": "lhs - rhs = 1"}
    kw = CheckReport(name="presentation", status="error", witness="E: x", elapsed_ms=1)
    assert list(kw.as_dict().items()) == [
        ("name", "presentation"), ("status", "error"), ("elapsed_ms", 1), ("witness", "E: x")]


def test_failed_check_records_witness_in_report():
    rep = check_modules(A1, order=4, _sign_value=1)
    doc = json.loads(report_json(DESC, 4, 2, 0, [rep]))
    chk = doc["checks"][0]
    assert chk["status"] == "fail"
    assert chk["witness"]


def test_text_report_mentions_every_check():
    reps = run_suites(A1, ["presentation", "modules"], order=4)
    text = report_text(DESC, 4, 2, 0, reps)
    assert "presentation" in text and "modules" in text
    assert "pass" in text
