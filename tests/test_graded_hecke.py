import random
from fractions import Fraction

import pytest

from heckeverify.formal_series import (
    FormalSeries,
    bernoulli_weights,
    diff,
    fs_exp_sum,
    fs_weyl,
)
from heckeverify.graded_hecke import (
    GradedElement,
    GradedRule,
    demazure_series,
    fourier_map,
    g_asph_act,
    gh_mul,
)
from heckeverify.normal_form import AsphElement
from heckeverify.root_datum import build_root_datum, cartan_matrix

from linear_series import e_B, e_B_inverse, exp_linear
from weyl_group import weyl_elements

A1 = build_root_datum([[2]])
A2 = build_root_datum(cartan_matrix("A", 2))
B2 = build_root_datum(cartan_matrix("B", 2))
G2 = build_root_datum(cartan_matrix("G", 2))
A3 = build_root_datum(cartan_matrix("A", 3))


def rand_graded(rng, datum, order):
    out = GradedElement(datum, order)
    n = datum.rank
    for _ in range(2):
        w = rng.choice(weyl_elements(datum))
        coeffs = {}
        for _ in range(2):
            e = [0] * (n + 1)
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(n + 1)] += 1
            coeffs[tuple(e)] = Fraction(rng.randint(-8, 8) or 1, rng.randint(1, 8))
        out = out + GradedElement(datum, order, {w: FormalSeries(n + 1, order, coeffs)})
    return out if out.coeffs else GradedElement.one(datum, order)


def test_ts_squared_is_one():
    ts = GradedElement.ts(A1, 0, 5)
    assert gh_mul(ts, ts).eq(GradedElement.one(A1, 5))


def test_commutation_rule_a1():
    # t_s y = -y t_s + 2r
    ts = GradedElement.ts(A1, 0, 5)
    y = GradedElement.series(A1, FormalSeries.variable(2, 5, 0))
    got = gh_mul(ts, y)
    want = GradedElement(A1, 5, {
        A1.simple(0): -FormalSeries.variable(2, 5, 0),
        A1.identity: FormalSeries.variable(2, 5, 1, 2),
    })
    assert got.eq(want)
    # t_s r = r t_s
    r = GradedElement.series(A1, FormalSeries.variable(2, 5, 1))
    assert gh_mul(ts, r).eq(gh_mul(r, ts))


@pytest.mark.parametrize("datum", [A1, A2, B2])
def test_graded_commutation_random(datum):
    rng = random.Random(1)
    n = datum.rank
    order = 6
    r_exp = (0,) * n + (1,)
    for _ in range(100):
        phi = rand_graded(rng, datum, order).coeffs
        phi = next(iter(phi.values())) if phi else FormalSeries.one(n + 1, order)
        i = rng.randrange(n)
        s = datum.simple(i)
        ts = GradedElement.ts(datum, i, order)
        lhs = gh_mul(ts, GradedElement.series(datum, phi))
        want = GradedElement(datum, order, {s: fs_weyl(datum, s, phi)}) + \
            GradedElement.series(datum,
                                 demazure_series(datum, phi, i).mul_monomial(r_exp, 2))
        assert lhs.eq(want, order)


@pytest.mark.parametrize("datum", [A1, A2])
def test_gh_mul_associative(datum):
    rng = random.Random(2)
    for _ in range(30):
        a = rand_graded(rng, datum, 5)
        b = rand_graded(rng, datum, 5)
        c = rand_graded(rng, datum, 5)
        assert gh_mul(gh_mul(a, b), c).eq(gh_mul(a, gh_mul(b, c)), 5)


def _add(acc, u, f):
    acc[u] = acc[u] + f if u in acc else f


def _push_by_definition(datum, i, coeffs):
    """t_{s_i} * sum_u f_u t_u, as t_s f t_u = s(f) t_{s u} + 2r Dem_s(f) t_u.

    Dem_s divides by alpha-dot (:func:`demazure_series`), where the
    product reads integer tables.
    """
    r_exp = (0,) * datum.rank + (1,)
    out = {}
    for u, f in coeffs.items():
        _add(out, datum.left_mul(i, u), fs_weyl(datum, datum.simple(i), f))
        _add(out, u, demazure_series(datum, f, i).mul_monomial(r_exp, 2))
    return out


def _letter_by_letter(a, b):
    """a * b with every letter of every w pushed through b on its own."""
    acc = {}
    for w, aw in a.coeffs.items():
        tw_b = b.coeffs
        for i in reversed(w.word):
            tw_b = _push_by_definition(a.datum, i, tw_b)
        for u, g in tw_b.items():
            _add(acc, u, aw * g)
    return GradedElement(a.datum, min(a.order, b.order), acc)


def _many_terms(rng, datum, order):
    """A graded element with up to six Weyl terms, long elements included."""
    out = GradedElement(datum, order)
    for _ in range(rng.randint(3, 6)):
        out = out + rand_graded(rng, datum, order)
    return out


@pytest.mark.parametrize("datum", [A2, B2, G2, A3], ids=["A2", "B2", "G2", "A3"])
def test_suffix_shared_product_equals_the_letter_by_letter_product(datum):
    # gh_mul pushes t_w b once per w, from t_{s_i w} b; the reference
    # pushes each letter of each w through b from scratch
    rng = random.Random(23)
    longest = datum.element(tuple(-c for c in datum.rho))     # w0(rho) = -rho
    for _ in range(6):
        a_order, b_order = rng.randint(1, 4), rng.randint(1, 4)
        a = _many_terms(rng, datum, a_order) + GradedElement(datum, a_order, {
            longest: FormalSeries.variable(datum.rank + 1, a_order, 0)})
        b = _many_terms(rng, datum, b_order)
        got = gh_mul(a, b)
        assert got.order == min(a_order, b_order)
        assert got.coeffs == _letter_by_letter(a, b).coeffs


def test_fourier_generators():
    ts = GradedElement.ts(A1, 0, 4)
    assert fourier_map(ts).eq(-ts)
    r = GradedElement.series(A1, FormalSeries.variable(2, 4, 1))
    assert fourier_map(r).eq(-r)
    # two sign flips cancel on r t_s
    rts = gh_mul(r, ts)
    assert fourier_map(rts).eq(rts)


def test_fourier_is_involution_and_morphism():
    rng = random.Random(3)
    for _ in range(50):
        a = rand_graded(rng, A2, 5)
        b = rand_graded(rng, A2, 5)
        assert fourier_map(fourier_map(a)).eq(a, 5)
        assert fourier_map(gh_mul(a, b)).eq(
            gh_mul(fourier_map(a), fourier_map(b)), 5)


def test_todd_a1_order2():
    # alpha-dot/(1 - exp(-alpha-dot)), alpha-dot = 2y, as the Bernoulli walk at -alpha-dot
    got = fs_exp_sum(2, 2, [(1, (-2, 0))], bernoulli_weights(2))
    assert got == FormalSeries(2, 2, {(0, 0): 1, (1, 0): 1,
                                      (2, 0): Fraction(1, 3)})


@pytest.mark.parametrize("datum", [A1, A2, B2])
def test_todd_unit(datum):
    # the oracles: Bernoulli sums over the roots against the division route
    eB = e_B(datum, 8)
    assert eB.constant_term() == 1
    assert (eB * e_B_inverse(datum, 8)).eq(FormalSeries.one(datum.rank + 1, 8), 8)


def conj_eB(a):
    """e_B a e_B^{-1}, multiplied out with ``gh_mul``."""
    datum, order = a.datum, a.order
    return gh_mul(gh_mul(GradedElement.series(datum, e_B(datum, order)), a),
                  GradedElement.series(datum, e_B_inverse(datum, order)))


def test_conj_eB():
    # series are central among coefficients: conjugation fixes them
    f = GradedElement.series(A1, exp_linear((1, 0), 5))
    assert conj_eB(f).eq(f, 5)
    assert conj_eB(GradedElement.one(A1, 5)).eq(GradedElement.one(A1, 5))
    # e_B t_s e_B^{-1} against the graded rule applied by hand
    order = 4
    eB = e_B(A1, order)
    eBinv = e_B_inverse(A1, order)
    ts = GradedElement.ts(A1, 0, order)
    s = A1.simple(0)
    r_exp = (0, 1)
    want = GradedElement(A1, order, {s: eB * fs_weyl(A1, s, eBinv)}) + \
        GradedElement.series(
            A1, eB * demazure_series(A1, eBinv, 0).mul_monomial(r_exp, 2))
    assert conj_eB(ts).eq(want, order)


def test_graded_antispherical():
    order = 5
    ts = GradedElement.ts(A1, 0, order)
    one = GradedElement.one(A1, order)
    base = AsphElement(A1, FormalSeries.one(2, order))
    # t_s . 1 = -1
    assert g_asph_act(ts, base).value.eq(-base.value)
    # (t_s + 1).(y . 1) = (2y + 2r) . 1
    m = AsphElement(A1, FormalSeries.variable(2, order, 0))
    got = g_asph_act(ts + one, m)
    want = FormalSeries(2, order, {(1, 0): 2, (0, 1): 2})
    assert got.value.eq(want)
    # (t_s + 1).(r . 1) = 0
    mr = AsphElement(A1, FormalSeries.variable(2, order, 1))
    assert g_asph_act(ts + one, mr).value.is_zero()


def test_graded_module_law():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_graded(rng, A2, 5)
        b = rand_graded(rng, A2, 5)
        m = AsphElement(A2, FormalSeries(
            3, 5, {(rng.randint(0, 2), rng.randint(0, 1), 0):
                   Fraction(rng.randint(-8, 8) or 1, rng.randint(1, 8))}))
        lhs = g_asph_act(gh_mul(a, b), m)
        rhs = g_asph_act(a, g_asph_act(b, m))
        assert lhs.value.eq(rhs.value, 5)


def _act_by_collapse(a, m, sign_value):
    """a.(g.1) as the literal product a * g, then t_u |-> sign_value^l(u) (or 1)."""
    datum = a.datum
    lifted = GradedElement(datum, min(a.order, m.value.order), {datum.identity: m.value})
    prod = gh_mul(a, lifted)
    total = FormalSeries(datum.rank + 1, prod.order)
    for w, f in prod.coeffs.items():
        total = total - f if sign_value == -1 and w.length % 2 else total + f
    return total


@pytest.mark.parametrize("sign_value", [-1, 1])
def test_action_equals_the_product_collapsed(sign_value):
    # t_s^2 = 1, so t_s |-> +1 is a character as well as t_s |-> -1; the
    # +1 rule is the one the corrupted modules control runs
    rng = random.Random(11)
    for datum in (A1, A2, B2, G2):
        n = datum.rank
        rule = GradedRule(datum, sign=sign_value)
        for _ in range(12):
            a_order, m_order = rng.randint(0, 5), rng.randint(0, 5)
            a = rand_graded(rng, datum, a_order)
            m = AsphElement(datum, FormalSeries(n + 1, m_order, {
                tuple(rng.randint(0, 2) for _ in range(n + 1)):
                Fraction(rng.randint(-8, 8) or 1, rng.randint(1, 8)) for _ in range(3)}))
            order = min(a_order, m_order)
            got = rule.act(a.coeffs, m.value.truncate(order),
                           lambda: FormalSeries(n + 1, order))
            if sign_value == -1:
                assert g_asph_act(a, m).value == got
            assert got == _act_by_collapse(a, m, sign_value)
