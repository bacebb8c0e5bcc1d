"""Differential tests of the lattice and Hecke kernels against a plain reference.

The reference stores an element of Z[v,v^-1][X] as a dict {weight: {v-exponent:
int}} with no zero entries and computes by the textbook definitions: the
Weyl group acts through the reflections s_i(x) = x - x_i alpha_i along the
stored reduced word, and the linear Demazure step is checked by multiplying
back by 1 - theta_{-alpha_i} (the quotient is unique in this domain).  It
shares no code with ``lattice_algebra``.  Every kernel result is also
checked to be in canonical form: no zero Laurent term and no empty
coefficient is ever stored, on which the structural ``==`` relies.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heckeverify.affine_hecke import LS_V2M1, BernsteinRule, HeckeElement, h_mul
from heckeverify.lattice_algebra import GroupAlgebraElement, LaurentScalar
from heckeverify.root_datum import build_root_datum, cartan_matrix

from weyl_group import weyl_elements

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
HECKE = settings(KERNEL, max_examples=25)

DATA = [build_root_datum(cartan_matrix(t, r)) for t, r in (("A", 1), ("A", 2), ("B", 2))]


# -- reference --------------------------------------------------------------

def ref_clean(terms):
    out = {}
    for x, poly in terms.items():
        poly = {k: c for k, c in poly.items() if c}
        if poly:
            out[x] = poly
    return out


def ref_add(a, b, sign=1):
    out = {x: dict(p) for x, p in a.items()}
    for x, poly in b.items():
        slot = out.setdefault(x, {})
        for k, c in poly.items():
            slot[k] = slot.get(k, 0) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for x, px in a.items():
        for y, py in b.items():
            slot = out.setdefault(tuple(p + q for p, q in zip(x, y)), {})
            for k1, c1 in px.items():
                for k2, c2 in py.items():
                    slot[k1 + k2] = slot.get(k1 + k2, 0) + c1 * c2
    return ref_clean(out)


def ref_reflect(datum, i, x):
    return tuple(a - x[i] * b for a, b in zip(x, datum.simple_roots[i]))


def ref_weyl(datum, w, a):
    out = {}
    for x, poly in a.items():
        for i in reversed(w.word):
            x = ref_reflect(datum, i, x)
        out[x] = dict(poly)
    return out


def ref_substitute(a, vexp_image, sign, negate_weights):
    out = {}
    for x, poly in a.items():
        y = tuple(-p for p in x) if negate_weights else x
        slot = out.setdefault(y, {})
        for k, c in poly.items():
            e = k * vexp_image
            slot[e] = slot.get(e, 0) + (sign ** (k % 2)) * c
    return ref_clean(out)


def ref_demazure(datum, i, a):
    """Dem_{s_i}(a) = (a - s_i(a)) / (1 - theta_{-alpha_i}), term by term.

    With m = x_i, (theta_x - theta_{x - m alpha}) / (1 - theta_{-alpha}) is
    theta_x + theta_{x - alpha} + ... + theta_{x - (m-1) alpha} for m > 0
    and -(theta_{x + alpha} + ... + theta_{x - m alpha}) for m < 0.
    """
    alpha = datum.simple_roots[i]
    out = {}
    for x, poly in a.items():
        m = x[i]
        steps = [(-k, 1) for k in range(m)] + [(k, -1) for k in range(1, -m + 1)]
        for k, sign in steps:
            y = tuple(p + k * q for p, q in zip(x, alpha))
            out = ref_add(out, {y: {e: sign * c for e, c in poly.items()}})
    return out


def ref_scale(datum, a, poly):
    return ref_mul(a, {(0,) * datum.rank: poly})


def ref_push(datum, i, h):
    """T_{s_i} * sum_u c_u T_u by the Bernstein rule, h = {u: c_u}.

    T_s c T_u = s(c) T_s T_u + (v^2-1) Dem_s(c) T_u, and T_s T_u = T_{su}
    if su is longer, else (v^2-1) T_u + v^2 T_{su}.
    """
    out = {}

    def add(w, c):
        out[w] = ref_add(out.get(w, {}), c)

    for u, c in h.items():
        sc = ref_weyl(datum, datum.simple(i), c)
        su = datum.left_mul(i, u)
        if su.length > u.length:
            add(su, sc)
        else:
            add(u, ref_scale(datum, sc, {2: 1, 0: -1}))
            add(su, ref_scale(datum, sc, {2: 1}))
        add(u, ref_scale(datum, ref_demazure(datum, i, c), {2: 1, 0: -1}))
    return {w: c for w, c in out.items() if c}


def ref_h_mul(datum, a, b):
    """a * b with every letter of every w of a pushed through b on its own."""
    out = {}
    for w, aw in a.items():
        tw_b = b
        for i in reversed(w.word):
            tw_b = ref_push(datum, i, tw_b)
        for u, c in tw_b.items():
            out[u] = ref_add(out.get(u, {}), ref_mul(aw, c))
    return {u: c for u, c in out.items() if c}


def plain(g):
    """The kernel element as a reference dict, after checking canonical form."""
    assert type(g) is GroupAlgebraElement
    for x, c in g.coeffs.items():
        assert type(x) is tuple and all(type(p) is int for p in x)
        assert type(c) is LaurentScalar and c.coeffs
        assert all(type(k) is int and type(v) is int and v for k, v in c.coeffs.items())
    return {x: dict(c.coeffs) for x, c in g.coeffs.items()}


def kernel(a):
    return GroupAlgebraElement({x: LaurentScalar(p) for x, p in a.items()})


# -- strategies ---------------------------------------------------------------

small = st.integers(-3, 3)
laurent = st.dictionaries(st.integers(-3, 3), small, max_size=3)


def elements(datum, max_size=4):
    weights = st.tuples(*[small] * datum.rank)
    return st.dictionaries(weights, laurent, max_size=max_size).map(ref_clean)


def hecke_elements(datum):
    terms = st.dictionaries(st.sampled_from(weyl_elements(datum)), elements(datum, 2), max_size=2)
    return terms.map(lambda d: HeckeElement(datum, {w: kernel(a) for w, a in d.items()}))


datums = st.sampled_from(DATA)


# -- Z[v,v^-1][X] ---------------------------------------------------------------

@KERNEL
@given(st.data(), datums)
def test_ring_operations_match_reference(data, datum):
    a, b = data.draw(elements(datum)), data.draw(elements(datum))
    ka, kb = kernel(a), kernel(b)
    assert plain(ka) == a
    assert plain(ka * kb) == ref_mul(a, b)
    assert plain(ka + kb) == ref_add(a, b)
    assert plain(ka - kb) == ref_add(a, b, -1)
    assert plain(ka - ka) == {}


@KERNEL
@given(st.data(), datums, laurent)
def test_scale_matches_reference(data, datum, poly):
    a = data.draw(elements(datum))
    got = kernel(a).scale(LaurentScalar(poly))
    assert plain(got) == ref_mul(a, ref_clean({(0,) * datum.rank: poly}))


@KERNEL
@given(st.data(), datums)
def test_weyl_apply_matches_reflections(data, datum):
    a = data.draw(elements(datum))
    w = data.draw(st.sampled_from(weyl_elements(datum)))
    assert plain(kernel(a).weyl_apply(w)) == ref_weyl(datum, w, a)


@KERNEL
@given(st.data(), datums, st.sampled_from([1, -1, 2]), st.sampled_from([1, -1]),
       st.booleans())
def test_substitute_matches_reference(data, datum, vexp_image, sign, negate):
    a = data.draw(elements(datum))
    got = kernel(a).substitute(vexp_image, sign, negate)
    assert plain(got) == ref_substitute(a, vexp_image, sign, negate)


@KERNEL
@given(st.data(), datums, laurent)
def test_linear_demazure_step_multiplies_back(data, datum, poly):
    a = data.draw(elements(datum))
    i = data.draw(st.integers(0, datum.rank - 1))
    scalar = ref_clean({(0,) * datum.rank: poly})
    _, dem = BernsteinRule(datum, dem_scalar=LaurentScalar(poly)).commute(i, kernel(a))
    got = {}
    for y, c in dem:
        got = ref_add(got, {y: dict(c.coeffs)})
    s = datum.simple(i)
    alpha = datum.simple_roots[i]
    one_minus = ref_clean({(0,) * datum.rank: {0: 1}, tuple(-p for p in alpha): {0: -1}})
    want = ref_mul(ref_add(a, ref_weyl(datum, s, a), -1), scalar)
    assert ref_mul(got, one_minus) == want


# -- Hecke products ---------------------------------------------------------------

def assert_hecke_canonical(h):
    for c in h.coeffs.values():
        assert c.coeffs
        plain(c)


@HECKE
@given(st.data(), datums)
def test_h_mul_is_associative_and_distributive(data, datum):
    a, b, c = (data.draw(hecke_elements(datum)) for _ in range(3))
    ab = h_mul(a, b)
    for h in (ab, h_mul(b, c), h_mul(ab, c)):
        assert_hecke_canonical(h)
    assert h_mul(ab, c) == h_mul(a, h_mul(b, c))
    assert h_mul(a, b + c) == ab + h_mul(a, c)
    assert h_mul(a + b, c) == h_mul(a, c) + h_mul(b, c)


def test_bernstein_sign_changes_the_product():
    # the rule the corrupted presentation control stores on its datum copy
    for datum in DATA:
        flipped = BernsteinRule(datum, dem_scalar=-LS_V2M1)
        for i in range(datum.rank):
            x = tuple(int(j == i) for j in range(datum.rank))
            ts, theta = HeckeElement.Ts(datum, i), HeckeElement.theta(datum, x)
            corrupted = HeckeElement(datum, flipped.product(ts.coeffs, theta.coeffs))
            assert corrupted != h_mul(ts, theta)
            # the two differ by exactly twice the (v^2 - 1) Demazure term
            diff = h_mul(ts, theta) - corrupted
            assert list(diff.coeffs) == [datum.identity]
            assert plain(diff.coeffs[datum.identity]) == {x: {2: 2, 0: -2}}


def _rand_plain(rng, datum):
    return ref_clean({tuple(rng.randint(-2, 2) for _ in range(datum.rank)):
                      {rng.randint(-2, 2): rng.randint(-3, 3) or 1} for _ in range(2)})


@pytest.mark.parametrize("family, rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)],
                         ids=["A2", "B2", "G2", "A3"])
def test_suffix_shared_h_mul_equals_the_letter_by_letter_product(family, rank):
    # h_mul pushes T_w b once per w, from T_{s_i w} b; the reference pushes
    # each letter of each w through b from scratch, by the Bernstein rule
    datum = build_root_datum(cartan_matrix(family, rank))
    rng = random.Random(23)
    longest = datum.element(tuple(-c for c in datum.rho))     # w0(rho) = -rho
    for _ in range(3):
        a = {w: _rand_plain(rng, datum) for w in rng.sample(weyl_elements(datum), 4) + [longest]}
        b = {w: _rand_plain(rng, datum) for w in rng.sample(weyl_elements(datum), 3)}
        got = h_mul(HeckeElement(datum, {w: kernel(c) for w, c in a.items()}),
                    HeckeElement(datum, {w: kernel(c) for w, c in b.items()}))
        assert_hecke_canonical(got)
        assert {w: plain(c) for w, c in got.coeffs.items()} == ref_h_mul(datum, a, b)
