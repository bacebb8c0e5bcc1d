"""Soundness of the per-(datum, order) context and the per-datum store.

Values built once and shared must not change what any check computes:
not across controls and clean runs, not across orders, not by a caller
mutating a shared value, and the store must die with its datum.
"""

import gc
import json
import pathlib
import random
import sys
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heckeverify import affine_hecke, formal_series, graded_hecke, lusztig, verify
from heckeverify.affine_hecke import HeckeElement, h_mul
from heckeverify.lusztig import DEFAULT_GUARD, context, pipeline_H, pipeline_K
from heckeverify.root_datum import RootDatum, build_root_datum, cartan_matrix
from heckeverify.verify import (
    check_diagram,
    check_display_identity,
    check_modules,
    check_morphisms,
    check_presentation,
    hecke_generators,
    run_suites,
)

from random_elements import rand_hecke

CONTROLS = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "golden"
     / "controls.json").read_text())

ORDER = 5


def _snapshot(value):
    """The reprs of everything reachable from a stored value, as nested data."""
    if isinstance(value, dict):
        return {repr(k): _snapshot(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_snapshot(v) for v in value]
    if (hasattr(value, "__dict__") and not isinstance(value, RootDatum)
            and type(value).__module__.startswith("heckeverify.")):
        return {k: _snapshot(v) for k, v in vars(value).items()}
    return repr(value)


# the kinds of key a clean ``all`` run stores (:func:`_kinds`): the two
# rules, ch images, contexts, Weyl tables, the Koszul chain, the map m and
# the (a, r) unit products; not G, S, e_B, its inverse nor exp(+-rho.)
STORE_KINDS = {("rule", affine_hecke.BernsteinRule), ("rule", graded_hecke.GradedRule),
               "ch", "context", "fs_weyl", "k_side_maps", "twist", "unit_product"}


def _kinds(datum):
    """The kind of each key in the datum's store: a string key, the first
    entry of a tuple key, or the pair ("rule", class)."""
    return {key if isinstance(key, str) else key[:2] if key[0] == "rule" else key[0]
            for key in datum._memo}


def _controls():
    """(control name, clean run, corrupted run) on B2 at order 5, seed 0."""
    return [
        ("_bernstein_sign=-1",
         lambda d: check_presentation(d, seed=0, order=ORDER),
         lambda d: check_presentation(d, seed=0, order=ORDER, _bernstein_sign=-1)),
        ("_unit_r_coeff=3",
         lambda d: check_morphisms(d, order=ORDER, seed=0),
         lambda d: check_morphisms(d, order=ORDER, seed=0, _unit_r_coeff=3)),
        ("_conjugate=False",
         lambda d: check_diagram(d, order=ORDER, seed=0),
         lambda d: check_diagram(d, order=ORDER, seed=0, _conjugate=False)),
        ("_flip_rho=True",
         lambda d: check_display_identity(d, order=ORDER),
         lambda d: check_display_identity(d, order=ORDER, _flip_rho=True)),
        ("_sign_value=1",
         lambda d: check_modules(d, order=ORDER, seed=0),
         lambda d: check_modules(d, order=ORDER, seed=0, _sign_value=1)),
    ]


def test_controls_and_clean_runs_share_a_datum():
    datum = build_root_datum(cartan_matrix("B", 2))
    golden = {c["control"]: c for c in CONTROLS}

    def control(name, corrupted):
        want = golden[name]
        store = _snapshot(datum._memo)
        rep = corrupted(datum)
        assert (rep.name, rep.status, rep.witness) == (
            want["check"], "fail", want["witness"]), name
        # a control builds on its own copy of the datum: the shared store
        # neither grows nor changes
        assert _snapshot(datum._memo) == store, name

    for name, clean, corrupted in _controls():
        control(name, corrupted)
        rep = clean(datum)
        assert rep.status == "pass", (name, rep.witness)
        control(name, corrupted)


def test_controls_leave_the_store_of_a_fresh_datum_empty():
    for name, _, corrupted in _controls():
        datum = build_root_datum(cartan_matrix("B", 2))
        assert corrupted(datum).status == "fail", name
        assert datum._memo == {}, name


def _cases(datum):
    gens = hecke_generators(datum)
    return [h for _, h in gens] + [h_mul(gens[-1][1], g) for _, g in gens]


def test_pipelines_across_orders_equal_a_fresh_datum():
    datum = build_root_datum(cartan_matrix("B", 2))
    for order in (3, 5, 3):
        fresh = build_root_datum(cartan_matrix("B", 2))
        for h, h_fresh in zip(_cases(datum), _cases(fresh)):
            for route in (pipeline_K, pipeline_H):
                got, want = route(h, order), route(h_fresh, order)
                assert got.order == want.order == order
                assert repr(got) == repr(want)


def _same(a, b):
    """Graded elements with equal orders and equal coefficients, den and terms."""
    return a.order == b.order and a.coeffs == b.coeffs


@pytest.mark.parametrize("family, rank, order", [("A", 2, 4), ("B", 2, 4), ("G", 2, 3)])
def test_maps_at_the_compared_order_equal_the_work_order_truncated(family, rank, order):
    # per-case products run at the compared order; only the unit factors and
    # the T_s images are built at order + guard, and the guard changes nothing
    datum = build_root_datum(cartan_matrix(family, rank))
    rng = random.Random(7)
    cases = [h for _, h in hecke_generators(datum)]
    cases += [rand_hecke(rng, datum) for _ in range(10)]
    routes = []
    for guard in (0, 1, 2):
        ctx = context(datum, order + guard)
        for h in cases:
            for evaluate in (ctx.lusztig_r, ctx.lusztig_l):
                top = evaluate(h, ctx.order)
                # two compared orders on one context, each with its own T_w
                for compared in (order, order - 1):
                    got = evaluate(h, compared)
                    assert got.order == compared
                    assert _same(got, top.truncate(compared))
        routes.append([(pipeline_K(h, order, guard), pipeline_H(h, order, guard))
                       for h in cases])
        rep = check_display_identity(datum, order=order, guard=guard)
        assert (rep.status, rep.witness) == ("pass", None)
    for by_guard in zip(*routes):
        for (k0, h0), (k, h) in zip(by_guard, by_guard[1:]):
            assert _same(k0, k) and _same(h0, h)
            assert k.order == h.order == order


TRUNCATION = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                      suppress_health_check=[HealthCheck.too_slow])

TRUNCATION_DATA = {"%s%d" % (t, n): build_root_datum(cartan_matrix(t, n))
                   for t, n in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]}


@TRUNCATION
@given(st.sampled_from(sorted(TRUNCATION_DATA)), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 4), st.integers(0, 2), st.integers(0, DEFAULT_GUARD))
def test_a_route_at_a_higher_order_truncates_to_the_route_at_the_order(name, seed, n, k,
                                                                       guard):
    # truncation commutes with every step of both routes, so a run at n + k
    # says nothing at degree <= n that the run at n does not
    datum = TRUNCATION_DATA[name]
    h = rand_hecke(random.Random(seed), datum)
    for route in (pipeline_K, pipeline_H):
        low, high = route(h, n, guard), route(h, n + k, guard).truncate(n)
        assert low.order == high.order == n
        assert _same(high, low)


def test_a_context_refuses_orders_above_its_work_order():
    datum = build_root_datum(cartan_matrix("A", 2))
    ctx = context(datum, 3)
    ts = HeckeElement.Ts(datum, 0)
    for evaluate in (ctx.lusztig_r, ctx.lusztig_l):
        with pytest.raises(ValueError, match="compared order 5 is above the work order 3"):
            evaluate(ts, 5)
        assert evaluate(ts, 3).order == 3


def test_a_corrupted_rule_is_installed_only_before_any_product():
    # a control that installed its rule after a product ran would check
    # half of its case on the clean rule
    datum = build_root_datum(cartan_matrix("A", 2))
    h_mul(HeckeElement.Ts(datum, 0), HeckeElement.Ts(datum, 1))
    with pytest.raises(ValueError, match="already runs on a BernsteinRule"):
        affine_hecke.BernsteinRule(datum, sign=1).install()
    fresh = build_root_datum(datum.cartan)
    flipped = affine_hecke.BernsteinRule(fresh, sign=1)
    flipped.install()
    assert affine_hecke.BernsteinRule.of(fresh) is flipped


def _assert_kept(before, after, path="store"):
    """Every value in ``before`` is unchanged in ``after``; caches may grow."""
    if isinstance(before, dict):
        for k, v in before.items():
            assert k in after, "%s[%s] disappeared" % (path, k)
            _assert_kept(v, after[k], "%s[%s]" % (path, k))
    elif isinstance(before, list):
        assert len(before) == len(after), path
        for i, (u, v) in enumerate(zip(before, after)):
            _assert_kept(u, v, "%s[%d]" % (path, i))
    else:
        assert before == after, path


def test_no_caller_mutates_a_shared_value():
    datum = build_root_datum(cartan_matrix("A", 2))
    run_suites(datum, ["all"], order=3)
    before = _snapshot(datum._memo)
    # the context is built at order + guard; no suite stores G or S
    assert ("context", 5) in datum._memo
    assert _kinds(datum) == STORE_KINDS
    reps = run_suites(datum, ["all"], order=3, seed=1)
    assert all(rep.status == "pass" for rep in reps)
    _assert_kept(before, _snapshot(datum._memo))


def test_store_dies_with_its_datum():
    datum = build_root_datum(cartan_matrix("A", 2))
    assert check_diagram(datum, order=3).status == "pass"
    # the K-route runs through its context, and its unit factors are
    # pullbacks of the (a, r) product kept in the datum's store
    refs = [weakref.ref(datum), weakref.ref(context(datum, 5)),
            weakref.ref(context(datum, 5).lusztig_r)]
    # series take no weak references: a stored one may be referred to by
    # the store alone, which the datum owns
    stored = [datum._memo[("unit_product", 5, 2)]]
    assert [[r for r in gc.get_referrers(f) if r is not stored] for f in stored] == [
        [datum._memo]]
    del datum
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert [[r for r in gc.get_referrers(f) if r is not stored] for f in stored] == [[]]


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the builders the context and the store are meant to
    run once, and of the one no clean suite runs: ``_by_exp_rho``, the
    conjugation by exp(c rho.) of the negative controls."""
    counts = {}
    for module, name in ((verify, "_by_exp_rho"), (lusztig, "unit_factor"),
                         (affine_hecke, "koszul_map"), (affine_hecke, "duality_map"),
                         (affine_hecke, "parity_map")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_each_constant_is_built_once_per_datum_and_order(calls, monkeypatch):
    datum = build_root_datum(cartan_matrix("B", 2))
    ctx = context(datum, 5)
    assert context(datum, 5) is ctx
    # the K-route is L_r o m: S = e_B exp(-rho.) is central, so the context
    # holds the unit factors and the two Lusztig maps and conjugates nothing;
    # each L_r(T_s) is built once per (s, compared order), and every longer
    # T_w image is a product of them
    assert sorted(vars(ctx)) == ["datum", "lusztig_l", "lusztig_r", "order", "units"]
    r_built = []
    ts_image = ctx.lusztig_r.ts_image
    monkeypatch.setattr(ctx.lusztig_r, "ts_image",
                        lambda i, o: r_built.append((i, o)) or ts_image(i, o))
    for order, guard in ((3, 2), (4, 1)):
        for _ in range(2):
            assert check_diagram(datum, order=order, seed=0, guard=guard).status == "pass"
        assert [o for _, o in r_built].count(order) == datum.rank
    assert sorted(r_built) == [(i, o) for i in range(datum.rank) for o in (3, 4)]
    # the diagram check reads S central off the positive roots: it stores
    # what a clean run stores, less the Koszul chain
    assert _kinds(datum) == STORE_KINDS - {"k_side_maps"}
    # the unit factors stay at the work order; every image is per compared order
    assert {u.order for u in ctx.units.values()} == {5}
    assert {order for _, order in ctx.lusztig_r._images} == {3, 4}
    assert {(img.order, order) for (_, order), img in ctx.lusztig_r._images.items()} == {
        (3, 3), (4, 4)}
    # no exp(rho.), and the K-route goes through m alone: the Koszul chain
    # is never built
    assert calls == {"unit_factor": 2}
    assert "twist" in datum._memo and "k_side_maps" not in datum._memo
    # the closed form of the modules check is one exp-sum per case: it
    # stores nothing and builds no constant
    for _ in range(2):
        assert check_modules(datum, order=3, seed=0).status == "pass"
        for i in range(datum.rank):
            lusztig.difference_times_scriptG(datum, i, (1, -1), 4)
    assert not [key for key in datum._memo if key[0] == "scriptG"]
    assert calls == {"unit_factor": 2}
    # display checks S central as diagram does and builds neither e_B nor e_B^{-1}
    for _ in range(2):
        assert check_display_identity(datum, order=3).status == "pass"
    assert calls == {"unit_factor": 2}


@pytest.mark.parametrize("family, rank, order", [("A", 2, 3), ("B", 2, 5), ("A", 2, 6),
                                                 ("G", 2, 3)])
def test_no_suite_builds_e_B_or_exp_rho(calls, family, rank, order):
    # the package has no e_B; a clean run builds no exp(rho.) and stores
    # exactly the kinds of STORE_KINDS
    datum = build_root_datum(cartan_matrix(family, rank))
    assert all(rep.status == "pass" for rep in run_suites(datum, ["all"], order=order))
    assert _kinds(datum) == STORE_KINDS
    assert "_by_exp_rho" not in calls


def test_a_warm_diagram_check_builds_nothing(monkeypatch):
    # every constant and image of the K- and H-routes is cached: a second
    # run on the same datum multiplies no graded elements, adds nothing to
    # the store and rebuilds or divides nothing
    datum = build_root_datum(cartan_matrix("B", 2))
    assert check_diagram(datum, order=4).status == "pass"
    stored = set(datum._memo)
    called = []
    for module, name in ((graded_hecke, "gh_mul"), (lusztig, "unit_factor"),
                         (formal_series, "fs_div_linear")):
        original = getattr(module, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            called.append(_name)
            return _fn(*args, **kwargs)
        # rebind the name in every module that imported it by value
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("heckeverify")
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counted)
    assert check_diagram(datum, order=4).status == "pass"
    assert called == [] and set(datum._memo) == stored
    # the counters see a cold run
    assert check_diagram(build_root_datum(cartan_matrix("B", 2)), order=4).status == "pass"
    assert set(called) == {"gh_mul", "unit_factor"}


def _ch_entries(datum):
    """{(order, terms): image} of the ch images in the datum's store."""
    return {(key[1], key[2]): value for key, value in datum._memo.items()
            if isinstance(key, tuple) and key[0] == "ch"}


def test_ch_is_walked_once_per_coefficient_not_once_per_map(monkeypatch):
    # L_r and L_l are the same map ch on coefficients: a cold diagram walks
    # each distinct coefficient once, and a warm one walks none
    datum = build_root_datum(cartan_matrix("B", 2))
    walks, asked = [], []
    walk, ch = lusztig.fs_exp_sum, lusztig.series_of_group_algebra
    monkeypatch.setattr(lusztig, "fs_exp_sum", lambda nvars, order, pairs, weights=None: (
        nvars == datum.rank + 1 and walks.append((order, frozenset(pairs)))
        or walk(nvars, order, pairs, weights)))
    monkeypatch.setattr(lusztig, "series_of_group_algebra", lambda d, ga, order: (
        asked.append(ga) or ch(d, ga, order)))
    assert check_diagram(datum, order=ORDER).status == "pass"
    assert len(set(walks)) == len(walks) == len({repr(ga) for ga in asked})
    assert set(walks) == set(_ch_entries(datum))
    # each theta_{+-omega_j} reaches both routes, and 1 and -v^-2 reach
    # one map once per simple reflection
    assert len(asked) > len(walks)
    del walks[:]
    assert check_diagram(datum, order=ORDER).status == "pass"
    assert walks == []


def test_every_stored_ch_image_is_its_uncached_walk():
    datum = build_root_datum(cartan_matrix("B", 2))
    assert all(rep.status == "pass" for rep in run_suites(datum, ["all"], order=ORDER))
    entries = _ch_entries(datum)
    assert entries
    for (order, terms), image in entries.items():
        assert image.order == order
        assert image == formal_series.fs_exp_sum(datum.rank + 1, order, list(terms))


def test_a_ch_image_of_a_lower_order_is_never_served_at_a_higher_one():
    datum = build_root_datum(cartan_matrix("B", 2))
    fresh = build_root_datum(cartan_matrix("B", 2))
    run_suites(datum, ["all"], order=3)
    reps = run_suites(datum, ["all"], order=5)
    assert all(rep.status == "pass" for rep in reps)
    assert [(r.name, r.status, r.witness) for r in reps] == [
        (r.name, r.status, r.witness) for r in run_suites(fresh, ["all"], order=5)]

    def at(d, order):
        return {key: image for key, image in _ch_entries(d).items() if key[0] == order}
    assert at(datum, 3) and at(datum, 5) == at(fresh, 5)
    assert all(image.order == order for (order, _), image in _ch_entries(datum).items())


def test_the_store_stops_growing_after_one_run():
    # a second run of every suite adds no key, and no coefficient is stored
    # twice, so a key that depended on dict order could not grow it
    datum = build_root_datum(cartan_matrix("A", 2))
    run_suites(datum, ["all"], order=6)
    keys = set(datum._memo)
    run_suites(datum, ["all"], order=6)
    assert set(datum._memo) == keys
    terms = [(order, tuple(sorted(pairs))) for order, pairs in _ch_entries(datum)]
    assert terms and len(set(terms)) == len(terms)
