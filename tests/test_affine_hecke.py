import gc
import random

import pytest

from heckeverify.affine_hecke import (
    AsphElement,
    HeckeElement,
    asph_act_left,
    duality_map,
    h_mul,
    koszul_map,
    parity_map,
    pipeline_K_h,
    ts_inverse,
)
from heckeverify.formal_series import FormalSeries
from heckeverify.graded_hecke import GradedElement, fourier_map, g_asph_act, gh_mul
from heckeverify.lattice_algebra import (
    GroupAlgebraElement,
    LaurentScalar,
    LS_V,
    LS_V2,
    demazure_quotient,
    mul_by_scriptG,
)
from heckeverify.root_datum import apply, build_root_datum, cartan_matrix

from random_elements import rand_graded
from weyl_group import weyl_elements

A1 = build_root_datum([[2]])
A2 = build_root_datum(cartan_matrix("A", 2))
B2 = build_root_datum(cartan_matrix("B", 2))
G2 = build_root_datum(cartan_matrix("G", 2))

LS_V2M1 = LaurentScalar({2: 1, 0: -1})


def rand_hecke(rng, datum, nterms=2):
    out = HeckeElement(datum)
    for _ in range(nterms):
        w = rng.choice(weyl_elements(datum))
        x = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
        c = LaurentScalar({rng.randint(-2, 2): rng.randint(-3, 3) or 1})
        out = out + HeckeElement(datum, {w: GroupAlgebraElement.theta(x, c)})
    return out


def test_quadratic_relation():
    ts = HeckeElement.Ts(A1, 0)
    want = ts.scale_left(GroupAlgebraElement.one(1).scale(LS_V2M1)) + \
        HeckeElement.scalar(A1, LS_V2)
    assert h_mul(ts, ts) == want


def test_unit():
    a = rand_hecke(random.Random(0), A2)
    one = HeckeElement.one(A2)
    assert h_mul(one, a) == a
    assert h_mul(a, one) == a


def test_bernstein_relation_a1():
    ts = HeckeElement.Ts(A1, 0)
    got = h_mul(ts, HeckeElement.theta(A1, (1,)))
    want = HeckeElement.theta(A1, (-1,)) * ts + \
        HeckeElement.theta(A1, (1,), LS_V2M1)
    assert got == want


@pytest.mark.parametrize("datum", [A1, A2, B2])
def test_bernstein_relation_random(datum):
    rng = random.Random(2)
    n = datum.rank
    for _ in range(100):
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        i = rng.randrange(n)
        sx = apply(datum.simple(i), x)
        got = h_mul(HeckeElement.Ts(datum, i), HeckeElement.theta(datum, x))
        want = HeckeElement.theta(datum, sx) * HeckeElement.Ts(datum, i) + \
            HeckeElement(datum, {datum.identity:
                                 demazure_quotient(datum, x, i).scale(LS_V2M1)})
        assert got == want


@pytest.mark.parametrize("datum", [A2, B2, build_root_datum(cartan_matrix("A", 3))])
def test_braid_relations(datum):
    for i in range(datum.rank):
        for j in range(i + 1, datum.rank):
            m = datum.braid_order(i, j)
            a = HeckeElement.one(datum)
            b = HeckeElement.one(datum)
            for k in range(m):
                a = h_mul(a, HeckeElement.Ts(datum, i if k % 2 == 0 else j))
                b = h_mul(b, HeckeElement.Ts(datum, j if k % 2 == 0 else i))
            assert a == b


def test_ts_inverse():
    for datum in (A1, A2):
        for i in range(datum.rank):
            assert h_mul(ts_inverse(datum, i), HeckeElement.Ts(datum, i)) == \
                HeckeElement.one(datum)
            # T_s - (v^2 - 1) = v^2 T_s^{-1}
            lhs = HeckeElement.Ts(datum, i) - HeckeElement.scalar(datum, LS_V2M1)
            assert lhs == ts_inverse(datum, i).scale_left(
                GroupAlgebraElement.one(datum.rank).scale(LS_V2))


def test_comm_relation_script_g():
    rng = random.Random(4)
    for datum in (A1, A2, B2):
        n = datum.rank
        one = HeckeElement.one(datum)
        for _ in range(100):
            x = tuple(rng.randint(-3, 3) for _ in range(n))
            i = rng.randrange(n)
            sx = apply(datum.simple(i), x)
            ts1 = HeckeElement.Ts(datum, i) + one
            lhs = h_mul(ts1, HeckeElement.theta(datum, x)) - \
                HeckeElement.theta(datum, sx) * ts1
            rhs = HeckeElement(datum, {datum.identity: mul_by_scriptG(datum, x, i)})
            assert lhs == rhs


def test_maps_on_generators():
    k = koszul_map(A1)
    assert k(HeckeElement.theta(A1, (3,))) == HeckeElement.theta(A1, (-3,))
    assert k(HeckeElement.scalar(A1, LS_V)) == HeckeElement.scalar(A1, -LS_V)
    d = duality_map(A1)
    assert d(HeckeElement.scalar(A1, LS_V)) == \
        HeckeElement.scalar(A1, LaurentScalar({-1: 1}))
    assert d(HeckeElement.Ts(A1, 0)) == ts_inverse(A1, 0)
    p = parity_map(A1)
    assert p(HeckeElement.scalar(A1, LS_V)) == HeckeElement.scalar(A1, -LS_V)
    assert p(HeckeElement.Ts(A1, 0).scale_left(
        GroupAlgebraElement.one(1).scale(LS_V2))) == \
        HeckeElement.Ts(A1, 0).scale_left(GroupAlgebraElement.one(1).scale(LS_V2))


def test_koszul_ts_normal_form_a1():
    # theta_rho (-v^2 T_s^{-1}) theta_{-rho} assembled by an explicit
    # product, against the map's own image
    core = ts_inverse(A1, 0).scale_left(GroupAlgebraElement.one(1).scale(-LS_V2))
    want = HeckeElement.theta(A1, (1,)) * core * HeckeElement.theta(A1, (-1,))
    assert koszul_map(A1)(HeckeElement.Ts(A1, 0)) == want
    # and the image respects the quadratic relation
    img = koszul_map(A1)(h_mul(HeckeElement.Ts(A1, 0), HeckeElement.Ts(A1, 0)))
    assert img == h_mul(want, want)


# The random-pair battery that check_morphisms ran before its relation
# check; kept as an independent cross-check of both.
@pytest.mark.parametrize("datum", [A1, A2, B2])
def test_maps_are_ring_morphisms(datum):
    rng = random.Random(6)
    maps = [koszul_map(datum), duality_map(datum), parity_map(datum)]
    for _ in range(20):
        a = rand_hecke(rng, datum)
        b = rand_hecke(rng, datum)
        for f in maps:
            assert f(h_mul(a, b)) == h_mul(f(a), f(b))


@pytest.mark.parametrize("datum", [A2, B2])
def test_fourier_map_is_a_ring_morphism(datum):
    rng = random.Random(7)
    for _ in range(20):
        a = rand_graded(rng, datum, 6)
        b = rand_graded(rng, datum, 6)
        assert fourier_map(gh_mul(a, b)).eq(gh_mul(fourier_map(a), fourier_map(b)), 6)


def _engine_calls():
    """One call of each normal-form entry point on A2, with factors of
    length 3 so that every call walks suffixes of a reduced word."""
    ts = [HeckeElement.Ts(A2, i) for i in range(2)]
    h = (ts[0] + HeckeElement.theta(A2, (1, -1))) * ts[1] * ts[0]
    gs = [GradedElement.ts(A2, i, 4) for i in range(2)]
    y1 = GradedElement.series(A2, FormalSeries(3, 4, {(1, 0, 0): 1}))
    g = (gs[0] + y1) * gs[1] * gs[0]
    return {
        "h_mul": lambda: h_mul(h, h),
        "gh_mul": lambda: gh_mul(g, g),
        "asph_act_left": lambda: asph_act_left(
            h, AsphElement(A2, GroupAlgebraElement.theta((1, -1)))),
        "g_asph_act": lambda: g_asph_act(g, AsphElement(A2, FormalSeries.one(3, 4))),
    }


@pytest.mark.parametrize("name", ["h_mul", "gh_mul", "asph_act_left", "g_asph_act"])
def test_engine_call_leaves_no_reference_cycle(name):
    # the suffix walk of Rule.product and Rule.act keeps its images in a
    # dict; a recursive closure over that dict would leave it in a cycle
    # that only the collector frees, after every call
    call = _engine_calls()[name]
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_duality_parity_are_involutions():
    rng = random.Random(8)
    d = duality_map(A2)
    p = parity_map(A2)
    for _ in range(50):
        a = rand_hecke(rng, A2)
        assert d(d(a)) == a
        assert p(p(a)) == a


def test_composite_pipeline_is_morphism():
    rng = random.Random(9)
    for _ in range(20):
        a = rand_hecke(rng, A2)
        b = rand_hecke(rng, A2)
        assert pipeline_K_h(A2, h_mul(a, b)) == \
            h_mul(pipeline_K_h(A2, a), pipeline_K_h(A2, b))


def test_antispherical_action():
    one = HeckeElement.one(A1)
    ts = HeckeElement.Ts(A1, 0)
    base = AsphElement(A1, GroupAlgebraElement.one(1))
    # T_s . 1 = -1
    assert asph_act_left(ts, base) == -base
    # (1+T_s).(theta_0 . 1) = 0
    assert not asph_act_left(ts + one, base).value
    # (1+T_s).(theta_w . 1) = (v^2 theta_w - theta_{-w}) . 1
    got = asph_act_left(ts + one, AsphElement(A1, GroupAlgebraElement.theta((1,))))
    want = AsphElement(A1, GroupAlgebraElement.theta((1,), LS_V2)
                       - GroupAlgebraElement.theta((-1,)))
    assert got == want
    assert got == AsphElement(A1, mul_by_scriptG(A1, (1,), 0))


@pytest.mark.parametrize("datum", [A1, A2])
def test_module_law(datum):
    rng = random.Random(10)
    for _ in range(50):
        a = rand_hecke(rng, datum)
        b = rand_hecke(rng, datum)
        x = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
        m = AsphElement(datum, GroupAlgebraElement.theta(x))
        assert asph_act_left(h_mul(a, b), m) == \
            asph_act_left(a, asph_act_left(b, m))


@pytest.mark.parametrize("datum", [A1, A2, B2, G2], ids=["A1", "A2", "B2", "G2"])
def test_action_equals_the_product_collapsed(datum):
    # T_s |-> -1 is a character of the finite Hecke algebra, so the
    # letter-by-letter action equals the product a * (m T_e) followed by
    # T_w |-> (-1)^{l(w)}.  T_s |-> +1 is not one: T_s^2 = (v^2-1) T_s + v^2.
    rng = random.Random(11)
    longest = datum.element(tuple(-c for c in datum.rho))     # w0(rho) = -rho
    for _ in range(8):
        a = rand_hecke(rng, datum, nterms=3) + HeckeElement(
            datum, {longest: GroupAlgebraElement.theta((1,) + (0,) * (datum.rank - 1), LS_V)})
        x = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
        m = AsphElement(datum, GroupAlgebraElement.theta(x, LS_V2))
        want = GroupAlgebraElement()
        for w, c in h_mul(a, HeckeElement(datum, {datum.identity: m.value})).coeffs.items():
            want = want - c if w.length % 2 else want + c
        assert asph_act_left(a, m).value == want
