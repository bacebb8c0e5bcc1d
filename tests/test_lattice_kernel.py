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

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heckeverify.affine_hecke import HeckeElement, _demazure_linear, h_mul
from heckeverify.lattice_algebra import GroupAlgebraElement, LaurentScalar, from_plain
from heckeverify.root_datum import build_root_datum, cartan_matrix

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
    return st.dictionaries(st.sampled_from(datum.weyl), elements(datum, 2), max_size=2).map(
        lambda d: HeckeElement(datum, {w: kernel(a) for w, a in d.items()}))


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
    w = data.draw(st.sampled_from(datum.weyl))
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
    got = plain(from_plain(_demazure_linear(datum, kernel(a), i, {},
                                            LaurentScalar(poly))))
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
    for datum in DATA:
        for i in range(datum.rank):
            x = tuple(int(j == i) for j in range(datum.rank))
            ts, theta = HeckeElement.Ts(datum, i), HeckeElement.theta(datum, x)
            assert h_mul(ts, theta, bernstein_sign=-1) != h_mul(ts, theta)
            # the two differ by exactly twice the (v^2 - 1) Demazure term
            diff = h_mul(ts, theta) - h_mul(ts, theta, bernstein_sign=-1)
            assert list(diff.coeffs) == [datum.identity]
            assert plain(diff.coeffs[datum.identity]) == {x: {2: 2, 0: -2}}
