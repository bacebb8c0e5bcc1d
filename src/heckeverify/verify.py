"""
Named, reproducible check suites with structured pass/fail reports.

Each check is a pure function of the root datum, the order and such of
guard and seed as it takes (``presentation`` takes no guard, ``display``
no seed), plus private corruption hooks used by the negative-control
tests.  A failing check carries a witness: a rendering of the first
offending difference, which can be re-evaluated by hand.

All random sampling goes through a seeded ``random.Random`` with a fixed
recipe: weight coordinates uniform in -3..3, v-exponents in -2..2,
polynomials of degree <= order with rational coefficients of height at
most 8.  A loop over (weight x, simple index i) cases makes all its draws
and checks each distinct case once, in draw order (:func:`_distinct_cases`).
"""

import operator
import random
import time
from math import lcm

from .affine_hecke import (
    LS_V2M1,
    BernsteinRule,
    HeckeElement,
    asph_act_left,
    k_side_maps,
    pipeline_K_h,
    twist,
)
from .formal_series import FormalSeries, _pack, _series, fs_exp_sum, fs_weyl
from .graded_hecke import (
    GradedElement,
    GradedRule,
    demazure_series,
    fourier_map,
    g_asph_act,
)
from .lattice_algebra import (
    GroupAlgebraElement,
    LaurentScalar,
    LS_V,
    LS_V2,
    demazure_quotient,
    mul_by_scriptG,
)
from .lusztig import (
    DEFAULT_GUARD,
    context,
    difference_times_scriptG,
    lusztig_l,
    pipeline_H,
    pipeline_K,
    series_of_group_algebra,
    unit_factor,
)
from .normal_form import AsphElement
from .root_datum import apply, build_root_datum

# the version of the report format, not of the package: it moves only when
# the JSON report changes shape, independently of pyproject.toml and
# heckeverify.__version__
ARTIFACT_VERSION = "0.1.0"


class CheckReport:
    """The verdict of one check, with the witness of a fail or an error."""

    __slots__ = ("name", "status", "elapsed_ms", "witness")

    def __init__(self, name, status, elapsed_ms=0.0, witness=None):
        self.name = name
        self.status = status            # pass | fail | error
        self.elapsed_ms = elapsed_ms
        self.witness = witness

    def as_dict(self):
        d = {"name": self.name, "status": self.status, "elapsed_ms": round(self.elapsed_ms, 3)}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


def _run(name, body):
    """Run ``body`` (returns witness or None) and wrap it in a report."""
    t0 = time.perf_counter()
    try:
        witness = body()
        status = "pass" if witness is None else "fail"
    except Exception as exc:  # carrier error, not a verdict
        witness = "%s: %s" % (type(exc).__name__, exc)
        status = "error"
    elapsed = (time.perf_counter() - t0) * 1000.0
    return CheckReport(name, status, elapsed, witness)


def _private_copy(datum, *rules):
    """A fresh datum equal to ``datum``, for a negative control.

    Everything a corrupted run builds and caches hangs off the copy and is
    freed with it, so a control never reads or writes the shared context
    of ``datum``, and no clean check can see what a control built.  Each
    of ``rules`` makes a corrupted rule instance of the copy, which the
    normal-form engine then runs on (:meth:`Rule.install`).
    """
    copy = build_root_datum(datum.cartan)
    for make in rules:
        make(copy).install()
    return copy


def _by_exp_rho(datum, order, c):
    """a |-> exp(c rho.) a exp(-c rho.) at ``order``, as a product, for a
    negative control: both exponentials are built once, on ``datum``, the
    control's private copy, and stored nowhere."""
    left, right = (GradedElement.series(datum, fs_exp_sum(
        datum.rank + 1, order, [(1, tuple(s * c * a for a in datum.rho) + (0,))]))
        for s in (1, -1))
    return lambda a: left * a * right


# -- random sampling -------------------------------------------------------

def rand_weight(rng, n):
    return tuple(rng.randint(-3, 3) for _ in range(n))


def _distinct_cases(rng, n, count):
    """The distinct (x, i) among ``count`` draws of a weight x and a simple
    index i, in first-draw order.

    ``rng`` advances by all ``count`` draws.  Each case checks a
    deterministic identity, so a repeat could only pass again, and the
    first failure is always a first occurrence.
    """
    return list(dict.fromkeys((rand_weight(rng, n), rng.randrange(n)) for _ in range(count)))


def rand_polynomial(rng, n, order):
    """Random polynomial in y_1..y_n, r with height-bounded rationals, as
    int numerators over the lcm of the drawn denominators."""
    draws = []
    for _ in range(rng.randint(2, 4)):
        deg = rng.randint(0, order)
        exp = [0] * (n + 1)
        for _ in range(deg):
            exp[rng.randrange(n + 1)] += 1
        draws.append((_pack(exp, n + 1), rng.randint(-8, 8) or 1, rng.randint(1, 8)))
    den = lcm(*(d for _, _, d in draws))
    terms = {}
    for key, num, d in draws:
        terms[key] = terms.get(key, 0) + num * (den // d)
    f = _series(n + 1, order, den, terms)
    return f if not f.is_zero() else FormalSeries.one(n + 1, order)


def _fundamental_weights(n):
    """(label, x) for x = +omega_j, -omega_j, j = 1..n, in that order."""
    out = []
    for j in range(n):
        e_j = tuple(1 if k == j else 0 for k in range(n))
        out.append(("th(+w%d)" % (j + 1), e_j))
        out.append(("th(-w%d)" % (j + 1), tuple(-a for a in e_j)))
    return out


def hecke_generators(datum):
    """v.1, theta_{+-fundamental weights}, T_{s_i}."""
    n = datum.rank
    gens = [("v", HeckeElement.scalar(datum, LS_V))]
    gens += [(label, HeckeElement.theta(datum, x)) for label, x in _fundamental_weights(n)]
    gens += [("T(s%d)" % (i + 1), HeckeElement.Ts(datum, i)) for i in range(n)]
    return gens


# -- relations of the two presentations -------------------------------------
#
# A relation list is (factors, relations): ``factors`` maps a name to an
# element, and a relation is (label, lhs, rhs), each side a list of
# products, each product a tuple of factor names.  A map given on
# generators extends to an algebra homomorphism exactly when the images of
# the generators satisfy the defining relations (Bernstein presentation;
# Lusztig, "Affine Hecke algebras and their graded version", J. AMS 2,
# 1989).  That the library evaluators give that extension is checked where
# the suites evaluate them, on T_e and the T_s (:func:`_construction_failure`).

def _relations(datum, ts, a, b, words, coefficients):
    """The relation list of a presentation by T_s and coefficients.

    T_s^2 = a T_s + b for each s (``a`` None when it is zero), the braid
    relation for each pair, and T_s c = s(c) T_s + D_s(c) for each
    (label, c, s(c), D_s(c)) in ``coefficients(i)``, s = s_i.  ``ts`` are
    the T_s, and ``words`` name the quadratic and the commutation
    relations in the labels.  Factors are named by their repr, so equal
    ones (theta_{sx} from two (s, x), a zero D_s(c)) are mapped once.
    """
    n = datum.rank
    factors = {}

    def name(h):
        key = repr(h)
        factors.setdefault(key, h)
        return key

    names = [name(t) for t in ts]
    relations = [("%s for s%d" % (words[0], i + 1), [(t, t)],
                  ([] if a is None else [(name(a), t)]) + [(name(b),)])
                 for i, t in enumerate(names)]
    for i in range(n):
        for j in range(i + 1, n):
            m = datum.braid_order(i, j)
            lhs = tuple(names[i if k % 2 == 0 else j] for k in range(m))
            rhs = tuple(names[j if k % 2 == 0 else i] for k in range(m))
            relations.append(("braid relation for (s%d,s%d)" % (i + 1, j + 1), [lhs], [rhs]))
    for i, t in enumerate(names):
        for label, c, sc, dc in coefficients(i):
            relations.append(("%s for s%d and %s" % (words[1], i + 1, label),
                              [(t, name(c))], [(name(sc), t), (name(dc),)]))
    return factors, relations


def k_relations(datum):
    """The defining relations of the affine Hecke algebra.

    The quadratic relation T_s^2 = (v^2-1) T_s + v^2 for each s, the braid
    relation for each pair, and the Bernstein relation
    T_s theta_x = theta_{sx} T_s + (v^2-1) Dem_s(theta_x) for every s and
    x = +-omega_j.  The twisted Leibniz rule
    Dem_s(ab) = Dem_s(a) b + s(a) Dem_s(b) carries the Bernstein relation
    from the theta_{+-omega_j} to every theta_x.
    """
    def coefficients(i):
        for label, x in _fundamental_weights(datum.rank):
            dem = demazure_quotient(datum, x, i).scale(LS_V2M1)
            yield (label, HeckeElement.theta(datum, x),
                   HeckeElement.theta(datum, apply(datum.simple(i), x)),
                   HeckeElement(datum, {datum.identity: dem}))

    return _relations(
        datum, [HeckeElement.Ts(datum, i) for i in range(datum.rank)],
        HeckeElement.scalar(datum, LS_V2M1), HeckeElement.scalar(datum, LS_V2),
        ("quadratic relation", "Bernstein relation"), coefficients)


def graded_relations(datum, order):
    """The defining relations of the graded algebra at ``order``.

    t_s^2 = 1 for each s, the braid relation for each pair, and the
    commutation rule t_s phi = s(phi) t_s + 2r Dem_s(phi) for every s and
    phi = y_j or r; the twisted Leibniz rule carries it to every series.
    """
    n = datum.rank
    r_exp = (0,) * n + (1,)

    def coefficients(i):
        for j, label in enumerate(["y%d" % (k + 1) for k in range(n)] + ["r"]):
            f = FormalSeries.variable(n + 1, order, j)
            dem = demazure_series(datum, f, i).mul_monomial(r_exp, 2)
            yield (label, GradedElement.series(datum, f),
                   GradedElement.series(datum, fs_weyl(datum, datum.simple(i), f)),
                   GradedElement.series(datum, dem))

    return _relations(
        datum, [GradedElement.ts(datum, i, order) for i in range(n)],
        None, GradedElement.one(datum, order), ("t_s^2 = 1", "commutation rule"), coefficients)


def _count_failure(datum, k_rels, g_rels):
    """A witness unless both relation lists hold every defining relation, or None.

    Each list has n quadratic and n(n-1)/2 braid relations, then per s the
    2n Bernstein relations at theta_{+-omega_j} (``k_rels``) or the n + 1
    commutation rules at y_j and r (``g_rels``); n is the size of the
    Cartan matrix, not read from the lists.
    """
    n = len(datum.cartan)
    for algebra, (_, relations), per_s in (("Hecke", k_rels, 2 * n), ("graded", g_rels, n + 1)):
        want = n + n * (n - 1) // 2 + n * per_s
        if len(relations) != want:
            return "the %s relation list has %d relations, not %d for rank %d" % (
                algebra, len(relations), want, n)
    return None


def _relation_failure(relation_list, image, equal):
    """(label, lhs - rhs) of the first relation whose images differ, or None.

    Each factor is mapped once by ``image``.  Products are taken right to
    left, so each left operand is one factor image: :meth:`Rule.product`
    pushes every term of its left factor through the right one, which is
    also why :class:`GeneratorImages` puts the letter on the left.
    """
    factors, relations = relation_list
    images = {name: image(h) for name, h in factors.items()}

    def side(products):
        total = None
        for names in products:
            p = images[names[-1]]
            for name in reversed(names[:-1]):
                p = images[name] * p
            total = p if total is None else total + p
        return total

    for label, lhs, rhs in relations:
        a, b = side(lhs), side(rhs)
        if not equal(a, b):
            return label, a - b
    return None


def _construction_failure(datum, image, term, c, equal, one=None):
    """Where ``image`` breaks the construction on T_e and the T_s, or None.

    ``term(w, coeff=None)`` is coeff T_w (T_w for None).  image(T_e) must
    be ``one``, the unit of the target (default T_e), and image(c T_w) must
    equal image(c) image(T_w) for w = e and each s_i.  The suites evaluate
    the maps only on elements supported there.  Relations alone cannot see
    a fault here: they only use the images of generators.
    """
    e = datum.identity
    if not equal(image(term(e)), term(e) if one is None else one):
        return "image of T(e) is not the unit"
    image_c = image(term(e, c))
    for w in [e] + [datum.simple(i) for i in range(datum.rank)]:
        if not equal(image(term(w, c)), image_c * image(term(w))):
            return "image of c*T(%r) is not image(c)*image(T(%r)), c = %r" % (w, w, c)
    return None


# -- suites ---------------------------------------------------------------

def check_presentation(datum, seed=0, order=6, _bernstein_sign=1):
    """Exact relation battery for both algebras.

    K side: the Bernstein commutation rule at random weights against an
    independently assembled right-hand side and the script-G
    reformulation, on the distinct (x, i) of 100 draws in draw order, then
    the relation list :func:`k_relations` (quadratic, braid and Bernstein
    relations).  Graded side, at the given order: the
    divided-difference commutation rule at random series and the script-g
    reformulation, where ``gh_mul`` reads Dem_s from integer tables and the
    right-hand side divides by alpha-dot (:func:`demazure_series`), then
    the relation list :func:`graded_relations` (t_s^2 = 1, braid and
    commutation relations).  The morphism check evaluates the same two
    lists under each map.  Both checks fail unless each list holds every
    relation its presentation has (:func:`_count_failure`).
    """
    rng = random.Random(seed)
    n = datum.rank
    if _bernstein_sign != 1:
        datum = _private_copy(datum, lambda d: BernsteinRule(
            d, dem_scalar=LS_V2M1 * LaurentScalar({0: _bernstein_sign})))

    def body():
        one = HeckeElement.one(datum)
        ts = [HeckeElement.Ts(datum, i) for i in range(n)]
        ts1s = [t + one for t in ts]
        for x, i in _distinct_cases(rng, n, 100):
            s = datum.simple(i)
            lhs = ts[i] * HeckeElement.theta(datum, x)
            sx = apply(s, x)
            rhs = HeckeElement.theta(datum, sx) * ts[i] + HeckeElement(
                datum, {datum.identity: demazure_quotient(datum, x, i).scale(LS_V2M1)})
            if lhs != rhs:
                return "Bernstein relation fails at x=%r, i=%d: %r vs %r" % (x, i, lhs, rhs)
            # script-G reformulation
            ts1 = ts1s[i]
            lhs2 = ts1 * HeckeElement.theta(datum, x) - HeckeElement.theta(datum, sx) * ts1
            rhs2 = HeckeElement(datum, {datum.identity: mul_by_scriptG(datum, x, i)})
            if lhs2 != rhs2:
                return "script-G reformulation fails at x=%r, i=%d" % (x, i)
        k_rels = k_relations(datum)
        failed = _relation_failure(k_rels, lambda h: h, operator.eq)
        if failed:
            return "%s fails in the Hecke algebra: lhs - rhs = %r" % failed
        # graded side
        r_exp = (0,) * n + (1,)
        for _ in range(100):
            phi = rand_polynomial(rng, n, order)
            i = rng.randrange(n)
            s = datum.simple(i)
            ts = GradedElement.ts(datum, i, order)
            lhs = ts * GradedElement.series(datum, phi)
            sphi = fs_weyl(datum, s, phi)
            dem = demazure_series(datum, phi, i).mul_monomial(r_exp, 2)
            rhs = GradedElement(datum, order, {s: sphi}) + GradedElement.series(datum, dem)
            if not lhs.eq(rhs, order):
                return "graded commutation fails at i=%d, phi=%r" % (i, phi)
            # script-g reformulation: (t_s+1)phi - s(phi)(t_s+1) = (phi-s(phi))*g(alpha)
            ts1 = ts + GradedElement.one(datum, order)
            lhs2 = ts1 * GradedElement.series(datum, phi) - GradedElement.series(datum, sphi) * ts1
            rhs2 = GradedElement.series(datum, (phi - sphi) + dem)
            if not lhs2.eq(rhs2, order):
                return "graded script-g reformulation fails at i=%d" % i
        g_rels = graded_relations(datum, order)
        failed = _relation_failure(g_rels, lambda g: g, lambda a, b: a.eq(b, order))
        if failed:
            return "%s fails in the graded algebra: lhs - rhs = %r" % failed
        return _count_failure(datum, k_rels, g_rels)

    return _run("presentation", body)


def check_morphisms(datum, order=6, seed=0, guard=DEFAULT_GUARD, _unit_r_coeff=2):
    """The maps of the diagram are algebra homomorphisms, proved from
    generators and relations, modulo degree > order for the Lusztig maps.

    L_r, L_l, Koszul, duality, parity: every relation of :func:`k_relations`;
    Fourier: every relation of :func:`graded_relations`.  A map given on
    generators that satisfies the defining relations is a homomorphism, so
    the verdict is complete, not sampled.  parity o duality o koszul must
    equal Ad(theta_{-rho}) o m, m = :func:`twist`, on v, theta_{+-omega_j}
    and each T_s; so m's generator images satisfy the relations too, and
    the factorization holds everywhere.  The suites apply L_r, L_l, m and
    the Fourier map only to generators, 1 + T_s, relation factors and
    m(generator), all supported on {e, s_i}; on those each evaluator is
    checked to send T_e to the unit and c T_w to image(c) image(T_w)
    (:func:`_construction_failure`).  A pass says nothing of the images of
    T_w with l(w) >= 2: that the evaluators give the product of generator
    images on every T_w is a contract of the library, which
    ``tests/construction_walk.py`` walks on ranks up to 3.  The Koszul
    chain is evaluated only on generators.  For the Lusztig maps the
    Bernstein relation at +-omega_j suffices because ch, the image
    v^k theta_x |-> exp(x-dot + k r) of the commutative part, is a ring
    map: by the twisted Leibniz rule
    Dem_s(theta_{x+y}) = Dem_s(theta_x) theta_y + theta_{sx} Dem_s(theta_y),
    the relation at x and at y gives it at x + y, and every weight is a sum
    of +-omega_j.  It fails unless both lists hold every relation
    (:func:`_count_failure`).  Only the unit factors of the Lusztig maps
    are built at order + guard.  ``seed`` is accepted for callers that
    pass one to every check (``benchmarks/child.py``) and is not used.
    """
    n = datum.rank
    work = order + guard
    if _unit_r_coeff != 2:
        datum = _private_copy(datum)

    def k_term(w, c=None):
        return HeckeElement(datum, {w: GroupAlgebraElement.one(n) if c is None else c})

    def g_term(w, c=None):
        return GradedElement(datum, order, {w: FormalSeries.one(n + 1, order) if c is None else c})

    def g_equal(a, b):
        return a.eq(b, order)

    def body():
        ctx = context(datum, work)
        if _unit_r_coeff != 2:          # on the private copy, before any unit is read
            ctx.units.update({i: unit_factor(datum, i, work, _unit_r_coeff) for i in range(n)})
        one = GradedElement.one(datum, order)
        v_theta = GroupAlgebraElement.theta((1,) + (0,) * (n - 1), LS_V)
        k_rels = k_relations(datum)
        # the quadratic relations go first, as (T_s + 1)(T_s - v^2) = 0
        l_rels = (k_rels[0], [rel for rel in k_rels[1] if not rel[0].startswith("quadratic")])
        for side, lmap in (("r", ctx.lusztig_r), ("l", ctx.lusztig_l)):
            v2 = lmap(HeckeElement.scalar(datum, LS_V2), order)
            for i in range(n):
                ts = lmap(HeckeElement.Ts(datum, i), order)
                resid = (ts + one) * (ts - v2)
                if not resid.eq(GradedElement(datum, order), order):
                    return "L_%s image of quadratic relation nonzero for s%d: %r" % (
                        side, i + 1, resid.truncate(order))
            failed = _relation_failure(l_rels, lambda h: lmap(h, order), g_equal)
            if failed:
                return "L_%s image of %s fails: lhs - rhs = %r" % (
                    side, failed[0], failed[1].truncate(order))
            failed = _construction_failure(
                datum, lambda h: lmap(h, order), k_term, v_theta, g_equal, one)
            if failed:
                return "L_%s map: %s" % (side, failed)
        for name, fmap in zip(("koszul", "duality", "parity"), k_side_maps(datum)):
            failed = _relation_failure(k_rels, fmap, operator.eq)
            if failed:
                return "%s image of %s fails: lhs - rhs = %r" % ((name,) + failed)
        m = twist(datum)
        theta_rho = HeckeElement.theta(datum, datum.rho)
        theta_neg_rho = HeckeElement.theta(datum, tuple(-a for a in datum.rho))
        for label, g in hecke_generators(datum):
            if pipeline_K_h(datum, g) != theta_neg_rho * m(g) * theta_rho:
                return "factorization of the Koszul chain through m fails on %s" % label
        failed = _construction_failure(datum, m, k_term, v_theta, operator.eq)
        if failed:
            return "twist map m: %s" % failed
        g_rels = graded_relations(datum, order)
        failed = _relation_failure(g_rels, fourier_map, g_equal)
        if failed:
            return "fourier image of %s fails: lhs - rhs = %r" % (
                failed[0], failed[1].truncate(order))
        y1_plus_r = FormalSeries(n + 1, order, {(1,) + (0,) * n: 1, (0,) * n + (1,): 1})
        failed = _construction_failure(datum, fourier_map, g_term, y1_plus_r, g_equal)
        if failed:
            return "fourier map: %s" % failed
        return _count_failure(datum, k_rels, g_rels)

    return _run("morphisms", body)


def _invariance_failure(datum):
    """A witness unless each s_i keeps alpha_i among the positive roots and
    permutes the others, which makes s_i(S) = S (:func:`check_diagram`), or None."""
    roots = set(datum.positive_roots)
    for i, alpha in enumerate(datum.simple_roots):
        rest = roots - {alpha}
        if alpha not in roots or {apply(datum.simple(i), beta) for beta in rest} != rest:
            return "S = e_B exp(-rho.) is not invariant under s%d" % (i + 1)
    return None


def check_diagram(datum, order=6, seed=0, guard=DEFAULT_GUARD, _conjugate=True):
    """The two routes around the main diagram agree modulo degree > order,
    checked on :func:`hecke_generators`.

    The K-route is Ad(S) o L_r o m, S = e_B exp(-rho.).  Under Lusztig's
    rule t_s S - S t_s = (s(S) - S) t_s + 2r Dem_s(S), and series commute
    with S, so Ad(S) is the identity when s_i(S) = S for each simple i.
    The suite decides that first, on the positive roots P alone
    (:func:`_invariance_failure`).  F(l) = l/(e^l - 1) has F(-l) =
    e^l F(l), so log F(-l) = l/2 + E(l) with E even, and with sigma the
    sum of P, S = exp(sum over beta in P of E(beta.) + sigma./2 - rho.).
    If alpha_i is in P and s_i permutes P minus alpha_i, then s_i fixes
    the even sum, as s_i(alpha_i) = -alpha_i, and sigma/2 - rho, as
    s_i(sigma) = sigma - 2 alpha_i and s_i(rho) = rho - alpha_i
    (rho = (1, ..., 1)): exact at every order, with no series built.  Then
    the suite evaluates the K-route as L_r(m(h)) (:func:`pipeline_K`).

    That is complete.  Both routes are homomorphisms modulo degree > order:
    m, L_r, L_l and fourier are, and the ideal of degree > order is
    two-sided, since t_s keeps degrees.  So the elements where the routes
    agree form a subalgebra; it holds the generators.  Complete together
    with a ``morphisms`` pass on the same datum and order, which proves
    those maps homomorphisms and the Koszul chain equal to
    Ad(theta_{-rho}) o m.  It fails unless it compared the 1 + 3n
    generators, n the size of the Cartan matrix.  ``seed`` is accepted for
    callers that pass one to every check (``benchmarks/child.py``) and is
    not used.  A limit: the Todd series reaches the run only through that
    argument, so no even weight of log F and no central (W-invariant)
    factor of e_B, such as exp(r), is seen by this suite or by
    ``display``; only the closed-form oracles of the tests guard e_B.
    """
    if not _conjugate:
        # a private copy whose K-route is exp(-rho.) K exp(rho.): e_B is dropped
        datum = _private_copy(datum)
        by_exp_rho = _by_exp_rho(datum, order, -1)
    n = len(datum.cartan)

    def body():
        if failed := _invariance_failure(datum):
            return failed
        gens = hecke_generators(datum)
        for name, h in gens:
            left = pipeline_K(h, order, guard)
            if not _conjugate:
                left = by_exp_rho(left)
            right = pipeline_H(h, order, guard)
            if not left.eq(right, order):
                return "diagram routes disagree on %s:\n  K-route: %r\n  H-route: %r" % (
                    name, left, right)
        if len(gens) != 1 + 3 * n:
            return "diagram compared %d generators, not 1 + 3n = %d for rank %d" % (
                len(gens), 1 + 3 * n, n)
        return None

    return _run("diagram", body)


def check_display_identity(datum, order=6, guard=DEFAULT_GUARD, _flip_rho=False):
    """Standalone graded-algebra identity equivalent to the diagram on
    1 + T_s, computed without the Lusztig or K-side maps:

        u_minus(alpha) (1 - t_s) = 1 - exp(-2r) ((t_s+1) u_plus(alpha) - 1)

    for every simple s, u_plus/minus the unit factors with r-coefficient
    +-2, built at order + guard and truncated; products run at ``order``.
    The paper conjugates X = (t_s+1) u_plus - 1 by e_B = S exp(rho.):
    exp(-rho. - 2r) e_B X e_B^{-1} exp(rho.) = exp(-2r) S X S^{-1}, so the
    short form is exact once S is central, which the suite checks first
    from the positive roots, as ``diagram`` does (:func:`_invariance_failure`),
    so it builds neither S nor e_B.
    """
    n = datum.rank
    work = order + guard
    if _flip_rho:       # with S central, -rho for rho is Ad(exp(2 rho.)) on X
        datum = _private_copy(datum)
        by_exp_2rho = _by_exp_rho(datum, order, 2)

    def body():
        if failed := _invariance_failure(datum):
            return failed
        ctx = context(datum, work)
        exp_neg_2r = fs_exp_sum(n + 1, order, [(1, (0,) * n + (-2,))])
        one = GradedElement.one(datum, order)
        for i in range(n):
            u_minus = unit_factor(datum, i, work, r_coeff=-2).truncate(order)
            u_plus = ctx.unit(i).truncate(order)
            ts = GradedElement.ts(datum, i, order)
            lhs = GradedElement.series(datum, u_minus) * (one - ts)
            inner = (ts + one) * GradedElement.series(datum, u_plus) - one
            if _flip_rho:
                inner = by_exp_2rho(inner)
            rhs = one - inner.scale_left(exp_neg_2r)
            if not lhs.eq(rhs, order):
                return "display identity fails for s%d:\n  lhs: %r\n  rhs: %r" % (
                    i + 1, lhs, rhs)
        return None

    return _run("display", body)


def check_modules(datum, order=6, seed=0, guard=DEFAULT_GUARD, _sign_value=-1):
    """Module battery: the K-side antispherical action formula, the module
    transport decided on generators, and the action of L_l(1 + T_s) on
    exp(x-dot) . 1 against its closed form.  The two action loops check the
    distinct (x, i) of 100 and of 20 draws, in draw order.  The closed form
    :func:`difference_times_scriptG` is ch of the K-side value
    :func:`mul_by_scriptG`, so the last loop is the transport of the
    antispherical loop at (1 + T_s, theta_x); it builds each L_l(1 + T_s)
    once, before the loop.

    Transport c.1 |-> ch(c).1 intertwines h with L_l(h) modulo degree >
    order once L_l(T_s).1 = -1 for each s; the suite checks those n signs,
    n the size of the Cartan matrix, and fails unless it made all n.  Both
    modules are induced from the sign character: an action is the
    engine's product followed by pi(sum_w a_w T_w) = sum_w (-1)^{l(w)} a_w
    (:meth:`Rule.act`).  On Z[v,v^-1][X], L_l is ch
    (:func:`series_of_group_algebra`), the map the transport applies, and a
    series coefficient sits on the left, so pi_g(f g) = f pi_g(g).  For
    h c = sum_w a_w T_w:

        transport(h.(c.1)) = sum_w ch(a_w) (-1)^{l(w)},
        L_l(h).(ch(c).1) = pi_g(L_l(h c)) = sum_w ch(a_w) pi_g(L_l(T_w)),

    the middle step because L_l is a homomorphism modulo degree > order.
    For l(sw) > l(w), pi_g(L_l(T_{sw})) = L_l(T_s).(pi_g(L_l(T_w)).1), so
    pi_g(L_l(T_w)) = (-1)^{l(w)} by induction from
    L_l(T_s).1 = (u(alpha) (t_s + 1)).1 - 1 = -1.  Complete given a
    ``morphisms`` pass (L_l a homomorphism) and a ``presentation`` pass
    (the graded product satisfies the relations, so the kernel of pi_g is
    a left ideal and pi_g(a b) = a.(pi_g(b).1)) on the same datum and
    order.  The identity itself is a tier-1 contract of the library on
    every generator (``tests/test_lusztig.py``).  Only the unit factors of
    L_l are built at order + guard.
    """
    rng = random.Random(seed)
    n = datum.rank
    if _sign_value != -1:
        datum = _private_copy(datum, lambda d: BernsteinRule(d, sign=_sign_value),
                              lambda d: GradedRule(d, sign=_sign_value))

    def body():
        one = HeckeElement.one(datum)
        ts1s = [HeckeElement.Ts(datum, i) + one for i in range(n)]
        for x, i in _distinct_cases(rng, n, 100):
            got = asph_act_left(ts1s[i], AsphElement(datum, GroupAlgebraElement.theta(x)))
            want = AsphElement(datum, mul_by_scriptG(datum, x, i))
            if got != want:
                return "antispherical action fails at x=%r, i=%d: %r vs %r" % (
                    x, i, got, want)
        base = AsphElement(datum, FormalSeries.one(n + 1, order))
        signs = [g_asph_act(lusztig_l(HeckeElement.Ts(datum, i), order, guard), base)
                 for i in range(n)]
        for i, sign in enumerate(signs):
            if not sign.eq(-base, order):
                return "L_l(T(s%d)).1 is %r, not -1" % (i + 1, sign)
        if len(signs) != len(datum.cartan):
            return "modules made %d sign checks, not n = %d for rank %d" % (
                len(signs), len(datum.cartan), len(datum.cartan))
        # closed form of the action of L_l(1+T_s) on exp(x.), L_l(1+T_s) built once per s
        images = [lusztig_l(HeckeElement.Ts(datum, i) + one, order, guard) for i in range(n)]
        for x, i in _distinct_cases(rng, n, 20):
            m = AsphElement(datum, series_of_group_algebra(
                datum, GroupAlgebraElement.theta(x), order))
            got = g_asph_act(images[i], m)
            want = AsphElement(datum, difference_times_scriptG(datum, i, x, order))
            if not got.eq(want, order):
                return "closed-form action fails at x=%r, i=%d" % (x, i)
        return None

    return _run("modules", body)


SUITES = {
    "presentation": lambda d, order, guard, seed: check_presentation(d, seed=seed, order=order),
    "morphisms": lambda d, order, guard, seed: check_morphisms(d, order=order, guard=guard),
    "diagram": lambda d, order, guard, seed: check_diagram(d, order=order, guard=guard),
    "display": lambda d, order, guard, seed: check_display_identity(d, order=order, guard=guard),
    "modules": lambda d, order, guard, seed: check_modules(d, order=order, seed=seed, guard=guard),
}


def run_suites(datum, names, order=6, guard=DEFAULT_GUARD, seed=0):
    """Run the named suites and return reports sorted by name."""
    if "all" in names:
        names = SUITES
    return [SUITES[name](datum, order, guard, seed) for name in sorted(set(names))]


def report_json(datum_desc, order, guard, seed, reports):
    return _json_text({
        "artifact_version": ARTIFACT_VERSION,
        "datum": datum_desc,
        "order": order,
        "guard": guard,
        "seed": seed,
        "checks": [rep.as_dict() for rep in reports],
    })


# The report's own JSON writer, so a run loads neither json nor _json.  Below
# U+0080, json.dumps escapes '"', '\\', DEL and the control characters.
_ESCAPES = {n: "\\u%04x" % n for n in [*range(32), 127]} | {
    ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}


def _escaped(ch):
    """\\uXXXX for a character above U+007F, a surrogate pair above U+FFFF."""
    n = ord(ch)
    if n < 0x10000:
        return "\\u%04x" % n
    return "\\u%04x\\u%04x" % (0xd7c0 + (n >> 10), 0xdc00 | n & 0x3ff)


def _json_text(value, indent=""):
    """``value`` as ``json.dumps(value, indent=2)`` writes it, ``indent`` before
    its closing bracket: dicts with str keys, lists, str, int, finite float,
    bool and None."""
    if isinstance(value, str):
        value = value.translate(_ESCAPES)
        if not value.isascii():
            value = "".join(ch if ch.isascii() else _escaped(ch) for ch in value)
        return '"%s"' % value
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = ["%s: %s" % (_json_text(k), _json_text(v, inner)) for k, v in value.items()]
    elif isinstance(value, list):
        items = [_json_text(v, inner) for v in value]
    else:
        raise TypeError("%s is not a JSON value" % type(value).__name__)
    ends = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return ends
    return "%s\n%s%s\n%s%s" % (ends[0], inner, (",\n" + inner).join(items), indent, ends[1])


def report_text(datum_desc, order, guard, seed, reports):
    lines = [
        "datum: %s  order=%d guard=%d seed=%d" % (
            datum_desc.get("type", "custom"), order, guard, seed),
        "%-14s %-7s %10s" % ("check", "status", "ms"),
    ]
    for rep in reports:
        lines.append("%-14s %-7s %10.1f" % (rep.name, rep.status, rep.elapsed_ms))
        if rep.witness:
            lines.append("    witness: %s" % rep.witness)
    return "\n".join(lines)
