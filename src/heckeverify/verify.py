"""
Named, reproducible check suites with structured pass/fail reports.

Each check is a pure function of (root datum, order, guard, seed) plus
private corruption hooks used by the negative-control tests.  A failing
check carries a witness: a rendering of the first offending difference,
which can be re-evaluated by hand.

All random sampling goes through a seeded ``random.Random`` with a fixed
recipe: weight coordinates uniform in -3..3, v-exponents in -2..2,
polynomial coefficients rationals of height at most 8.
"""

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .affine_hecke import (
    AsphElement,
    HeckeElement,
    asph_act_left,
    h_mul,
    k_side_maps,
)
from .formal_series import (
    FormalSeries,
    LinearForm,
    diff,
    fs_exp,
    fs_set_r_zero,
    fs_weyl,
)
from .graded_hecke import (
    GradedAsphElement,
    GradedElement,
    conj_eB,
    demazure_series,
    fourier_map,
    g_asph_act,
    gh_mul,
)
from .lattice_algebra import (
    GroupAlgebraElement,
    LaurentScalar,
    LS_ONE,
    LS_V,
    demazure_quotient,
    mul_by_scriptG,
)
from .lusztig import (
    Context,
    context,
    difference_times_scriptG,
    lusztig_l,
    pipeline_H,
    pipeline_K,
    series_of_group_algebra,
    transport,
    unit_factor,
)
from .root_datum import apply, build_root_datum

ARTIFACT_VERSION = "0.1.0"


@dataclass
class CheckReport:
    name: str
    status: str                 # pass | fail | error
    datum: dict
    order: int
    guard: int
    seed: int
    elapsed_ms: float = 0.0
    witness: str = None

    def as_dict(self):
        d = {
            "name": self.name,
            "status": self.status,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.witness is not None:
            d["witness"] = self.witness
        return d


def _run(name, datum_desc, order, guard, seed, body):
    """Run ``body`` (returns witness or None) and wrap it in a report."""
    t0 = time.perf_counter()
    try:
        witness = body()
        status = "pass" if witness is None else "fail"
    except Exception as exc:  # carrier error, not a verdict
        witness = "%s: %s" % (type(exc).__name__, exc)
        status = "error"
    elapsed = (time.perf_counter() - t0) * 1000.0
    return CheckReport(name, status, datum_desc, order, guard, seed, elapsed, witness)


def _private_copy(datum):
    """A fresh datum equal to ``datum``, for a negative control.

    Everything a corrupted run builds and caches hangs off the copy and is
    freed with it, so a control never reads or writes the shared context
    of ``datum``, and no clean check can see what a control built.
    """
    return build_root_datum(datum.cartan)


# -- random sampling -------------------------------------------------------

def rand_weight(rng, n):
    return tuple(rng.randint(-3, 3) for _ in range(n))


def rand_laurent(rng):
    out = LaurentScalar()
    for _ in range(rng.randint(1, 2)):
        c = rng.randint(-3, 3) or 1
        out = out + LaurentScalar({rng.randint(-2, 2): c})
    return out if out else LS_ONE


def rand_group_algebra(rng, n):
    out = GroupAlgebraElement()
    for _ in range(rng.randint(1, 2)):
        out = out + GroupAlgebraElement.theta(rand_weight(rng, n), rand_laurent(rng))
    return out if out else GroupAlgebraElement.one(n)


def rand_hecke(rng, datum):
    out = HeckeElement.zero(datum)
    for _ in range(rng.randint(1, 2)):
        w = rng.choice(datum.weyl)
        out = out + HeckeElement(datum, {w: rand_group_algebra(rng, datum.rank)})
    return out if out.coeffs else HeckeElement.one(datum)


def rand_polynomial(rng, n, order, max_degree=4):
    """Random polynomial in y_1..y_n, r with height-bounded rationals."""
    coeffs = {}
    for _ in range(rng.randint(2, 4)):
        deg = rng.randint(0, min(max_degree, order))
        exp = [0] * (n + 1)
        for _ in range(deg):
            exp[rng.randrange(n + 1)] += 1
        c = Fraction(rng.randint(-8, 8) or 1, rng.randint(1, 8))
        exp = tuple(exp)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + c
    f = FormalSeries(n + 1, order, coeffs)
    return f if not f.is_zero() else FormalSeries.one(n + 1, order)


def rand_graded(rng, datum, order):
    out = GradedElement.zero(datum, order)
    for _ in range(rng.randint(1, 2)):
        w = rng.choice(datum.weyl)
        out = out + GradedElement(datum, order, {w: rand_polynomial(rng, datum.rank, order)})
    return out if out.coeffs else GradedElement.one(datum, order)


def hecke_generators(datum):
    """v.1, theta_{+-fundamental weights}, T_{s_i}."""
    n = datum.rank
    gens = [("v", HeckeElement.scalar(datum, LS_V))]
    for i in range(n):
        e_i = tuple(1 if j == i else 0 for j in range(n))
        gens.append(("th(+w%d)" % (i + 1), HeckeElement.theta(datum, e_i)))
        gens.append(("th(-w%d)" % (i + 1), HeckeElement.theta(datum, tuple(-a for a in e_i))))
    for i in range(n):
        gens.append(("T(s%d)" % (i + 1), HeckeElement.Ts(datum, i)))
    return gens


# -- suites ---------------------------------------------------------------

def check_presentation(datum, seed=0, order=6, datum_desc=None,
                       _bernstein_sign=1):
    """Exact relation battery for both algebras.

    K side: quadratic relation, braid relations, the Bernstein commutation
    rule against an independently assembled right-hand side, and the
    script-G reformulation.  Graded side: t_s^2 = 1, braid relations, and
    the divided-difference commutation rule, at the given order.
    """
    rng = random.Random(seed)
    n = datum.rank
    desc = datum_desc or {}
    if _bernstein_sign != 1:
        datum = _private_copy(datum)

    def body():
        one = HeckeElement.one(datum)
        for i in range(n):
            ts = HeckeElement.Ts(datum, i)
            lhs = h_mul(ts, ts, _bernstein_sign)
            rhs = ts.scale_left(GroupAlgebraElement.one(n).scale(
                LaurentScalar({2: 1, 0: -1}))) + \
                one.scale_left(GroupAlgebraElement.one(n).scale(LaurentScalar({2: 1})))
            if lhs != rhs:
                return "quadratic relation fails for s%d: %r vs %r" % (i + 1, lhs, rhs)
        for i in range(n):
            for j in range(i + 1, n):
                m = datum.braid_order(i, j)
                a = HeckeElement.one(datum)
                b = HeckeElement.one(datum)
                for k in range(m):
                    a = h_mul(a, HeckeElement.Ts(datum, i if k % 2 == 0 else j), _bernstein_sign)
                    b = h_mul(b, HeckeElement.Ts(datum, j if k % 2 == 0 else i), _bernstein_sign)
                if a != b:
                    return "braid relation fails for (s%d,s%d)" % (i + 1, j + 1)
        for _ in range(100):
            x = rand_weight(rng, n)
            i = rng.randrange(n)
            s = datum.simple(i)
            lhs = h_mul(HeckeElement.Ts(datum, i), HeckeElement.theta(datum, x),
                        _bernstein_sign)
            sx = apply(s, x)
            rhs = HeckeElement.theta(datum, sx) * HeckeElement.Ts(datum, i) + \
                HeckeElement(datum, {datum.identity: demazure_quotient(datum, x, i).scale(
                    LaurentScalar({2: 1, 0: -1}))})
            if lhs != rhs:
                return "Bernstein relation fails at x=%r, i=%d: %r vs %r" % (x, i, lhs, rhs)
            # script-G reformulation
            ts1 = HeckeElement.Ts(datum, i) + one
            lhs2 = h_mul(ts1, HeckeElement.theta(datum, x), _bernstein_sign) - \
                HeckeElement.theta(datum, sx) * ts1
            rhs2 = HeckeElement(datum, {datum.identity: mul_by_scriptG(datum, x, i)})
            if lhs2 != rhs2:
                return "script-G reformulation fails at x=%r, i=%d" % (x, i)
        # graded side
        for i in range(n):
            ts = GradedElement.ts(datum, i, order)
            if not gh_mul(ts, ts).eq(GradedElement.one(datum, order)):
                return "graded t_s^2 != 1 for s%d" % (i + 1)
        for _ in range(100):
            phi = rand_polynomial(rng, n, order)
            i = rng.randrange(n)
            s = datum.simple(i)
            ts = GradedElement.ts(datum, i, order)
            lhs = gh_mul(ts, GradedElement.series(datum, phi))
            sphi = fs_weyl(datum, s, phi)
            r_exp = (0,) * n + (1,)
            rhs = GradedElement(datum, order, {s: sphi}) + GradedElement.series(
                datum, demazure_series(datum, phi, i).mul_monomial(r_exp, 2))
            if not lhs.eq(rhs, order):
                return "graded commutation fails at i=%d, phi=%r" % (i, phi)
            # script-g reformulation: (t_s+1)phi - s(phi)(t_s+1) = (phi-s(phi))*g(alpha)
            ts1 = ts + GradedElement.one(datum, order)
            lhs2 = gh_mul(ts1, GradedElement.series(datum, phi)) - \
                GradedElement.series(datum, sphi) * ts1
            rhs2 = GradedElement.series(
                datum, (phi - sphi) + demazure_series(datum, phi, i).mul_monomial(r_exp, 2))
            if not lhs2.eq(rhs2, order):
                return "graded script-g reformulation fails at i=%d" % i
        return None

    return _run("presentation", desc, order, 0, seed, body)


def check_morphisms(datum, order=6, seed=0, guard=2, datum_desc=None,
                    _unit_r_coeff=2):
    """Relation images vanish under both Lusztig morphisms; the four
    involutive maps are multiplicative."""
    rng = random.Random(seed)
    n = datum.rank
    desc = datum_desc or {}
    work = order + guard
    if _unit_r_coeff != 2:
        datum = _private_copy(datum)

    def body():
        ctx = (context(datum, work) if _unit_r_coeff == 2
               else Context(datum, work, _unit_r_coeff))
        for side, lmap in (("r", ctx.lusztig_r), ("l", ctx.lusztig_l)):
            one = GradedElement.one(datum, work)
            for i in range(n):
                ts = lmap(HeckeElement.Ts(datum, i))
                v2 = lmap(HeckeElement.scalar(datum, LaurentScalar({2: 1})))
                # (T_s + 1)(T_s - v^2) = 0
                resid = gh_mul(ts + one, ts - v2)
                if not resid.eq(GradedElement.zero(datum, work), order):
                    return "L_%s image of quadratic relation nonzero for s%d: %r" % (
                        side, i + 1, resid.truncate(order))
            for i in range(n):
                for j in range(i + 1, n):
                    m = datum.braid_order(i, j)
                    a = GradedElement.one(datum, work)
                    b = GradedElement.one(datum, work)
                    for k in range(m):
                        a = gh_mul(a, lmap(HeckeElement.Ts(datum, i if k % 2 == 0 else j)))
                        b = gh_mul(b, lmap(HeckeElement.Ts(datum, j if k % 2 == 0 else i)))
                    if not a.eq(b, order):
                        return "L_%s image of braid relation fails for (s%d,s%d)" % (
                            side, i + 1, j + 1)
            for _ in range(50):
                x = rand_weight(rng, n)
                i = rng.randrange(n)
                sx = apply(datum.simple(i), x)
                lhs = gh_mul(lmap(HeckeElement.Ts(datum, i)), lmap(HeckeElement.theta(datum, x)))
                rhs = gh_mul(lmap(HeckeElement.theta(datum, sx)), lmap(HeckeElement.Ts(datum, i))) + \
                    lmap(HeckeElement(datum, {
                        datum.identity: demazure_quotient(datum, x, i).scale(
                            LaurentScalar({2: 1, 0: -1}))}))
                if not lhs.eq(rhs, order):
                    return "L_%s image of Bernstein relation fails at x=%r, i=%d" % (side, x, i)
        # multiplicativity of the four involutive maps
        for name, fmap in zip(("koszul", "duality", "parity"), k_side_maps(datum)):
            for _ in range(50):
                a = rand_hecke(rng, datum)
                b = rand_hecke(rng, datum)
                if fmap(h_mul(a, b)) != h_mul(fmap(a), fmap(b)):
                    return "%s map not multiplicative on %r, %r" % (name, a, b)
        for _ in range(50):
            a = rand_graded(rng, datum, work)
            b = rand_graded(rng, datum, work)
            if not fourier_map(gh_mul(a, b)).eq(gh_mul(fourier_map(a), fourier_map(b)), order):
                return "fourier map not multiplicative"
        return None

    return _run("morphisms", desc, order, guard, seed, body)


def check_diagram(datum, order=6, seed=0, guard=2, datum_desc=None,
                  _conjugate=True):
    """The two routes around the main diagram agree on generators and on
    random degree-two products, modulo degree > order."""
    rng = random.Random(seed)
    desc = datum_desc or {}
    if not _conjugate:
        datum = _private_copy(datum)

    def body():
        gens = hecke_generators(datum)
        cases = [(name, g) for name, g in gens]
        for _ in range(20):
            n1, g1 = rng.choice(gens)
            n2, g2 = rng.choice(gens)
            cases.append(("%s*%s" % (n1, n2), h_mul(g1, g2)))
        for name, h in cases:
            left = pipeline_K(h, order, guard, conjugate=_conjugate)
            right = pipeline_H(h, order, guard)
            if not left.eq(right, order):
                return "diagram routes disagree on %s:\n  K-route: %r\n  H-route: %r" % (
                    name, left, right)
        return None

    return _run("diagram", desc, order, guard, seed, body)


def check_display_identity(datum, order=6, simple_index=None, guard=2,
                           datum_desc=None, _flip_rho=False):
    """Standalone graded-algebra identity equivalent to the diagram on
    1 + T_s, computed without the Lusztig or K-side maps:

        u_minus(alpha) (1 - t_s)
          = 1 - exp(-rho. - 2r) e_B ((t_s+1) u_plus(alpha) - 1) e_B^{-1} exp(rho.)

    with u_plus/minus the unit factors with r-coefficient +-2.  Also checks
    the r = 0 specialization of both sides.
    """
    desc = datum_desc or {}
    n = datum.rank
    work = order + guard
    indices = range(n) if simple_index is None else [simple_index]
    if _flip_rho:
        datum = _private_copy(datum)

    def body():
        ctx = context(datum, work)
        rho_form = diff(datum.rho)
        rho_sign = -1 if _flip_rho else 1
        exp_rho = fs_exp(FormalSeries.from_linear(
            LinearForm([rho_sign * c for c in rho_form.coeffs]), work))
        exp_neg_rho_2r = fs_exp(FormalSeries.from_linear(
            LinearForm([-rho_sign * c for c in rho_form.coeffs[:-1]] + [-2]), work))
        one = GradedElement.one(datum, work)
        for i in indices:
            u_minus = unit_factor(datum, i, work, r_coeff=-2)
            u_plus = ctx.unit(i)
            ts = GradedElement.ts(datum, i, work)
            lhs = gh_mul(GradedElement.series(datum, u_minus), one - ts)
            inner = gh_mul(ts + one, GradedElement.series(datum, u_plus)) - one
            conj = conj_eB(inner)
            rhs = one - gh_mul(
                GradedElement.series(datum, exp_neg_rho_2r),
                gh_mul(conj, GradedElement.series(datum, exp_rho)))
            if not lhs.eq(rhs, order):
                return "display identity fails for s%d:\n  lhs: %r\n  rhs: %r" % (
                    i + 1, lhs.truncate(order), rhs.truncate(order))
            # r = 0 specialization must also match
            lhs0 = GradedElement(datum, order, {w: fs_set_r_zero(f)
                                                for w, f in lhs.coeffs.items()})
            rhs0 = GradedElement(datum, order, {w: fs_set_r_zero(f)
                                                for w, f in rhs.coeffs.items()})
            if not lhs0.eq(rhs0, order):
                return "display identity r=0 shadow fails for s%d" % (i + 1)
        return None

    return _run("display", desc, order, guard, 0, body)


def check_modules(datum, order=6, seed=0, guard=2, datum_desc=None,
                  _sign_value=-1):
    """Module-transport battery.

    Exact K-side antispherical action formula, the transport intertwining
    transport(h . m) = L_l(h) . transport(m), and the action of
    L_l(1 + T_s) on exp(x-dot) . 1 against its closed form.
    """
    rng = random.Random(seed)
    n = datum.rank
    desc = datum_desc or {}
    work = order + guard
    if _sign_value != -1:
        datum = _private_copy(datum)

    def body():
        one = HeckeElement.one(datum)
        for _ in range(100):
            x = rand_weight(rng, n)
            i = rng.randrange(n)
            ts1 = HeckeElement.Ts(datum, i) + one
            got = asph_act_left(ts1, AsphElement.theta(datum, x), _sign_value)
            want = AsphElement(datum, mul_by_scriptG(datum, x, i))
            if got != want:
                return "antispherical action fails at x=%r, i=%d: %r vs %r" % (
                    x, i, got, want)
        gens = hecke_generators(datum)
        samples = [AsphElement.base_point(datum)]
        for _ in range(20):
            samples.append(AsphElement.theta(datum, rand_weight(rng, n)))
        for name, h in gens:
            img = lusztig_l(h, work)
            for m in samples:
                lhs = transport(asph_act_left(h, m, _sign_value), work)
                rhs = g_asph_act(img, transport(m, work), _sign_value)
                if not lhs.eq(rhs, order):
                    return "transport fails to intertwine %s on %r" % (name, m)
        # closed form of the action of L_l(1+T_s) on exp(x.)
        for _ in range(20):
            x = rand_weight(rng, n)
            i = rng.randrange(n)
            ts1 = HeckeElement.Ts(datum, i) + one
            img = lusztig_l(ts1, work)
            m = GradedAsphElement(datum, series_of_group_algebra(
                datum, GroupAlgebraElement.theta(x), work))
            got = g_asph_act(img, m, _sign_value)
            want = GradedAsphElement(datum, difference_times_scriptG(datum, i, x, work))
            if not got.eq(want, order):
                return "closed-form action fails at x=%r, i=%d" % (x, i)
        return None

    return _run("modules", desc, order, guard, seed, body)


SUITES = {
    "presentation": lambda d, order, guard, seed, desc:
        check_presentation(d, seed=seed, order=order, datum_desc=desc),
    "morphisms": lambda d, order, guard, seed, desc:
        check_morphisms(d, order=order, seed=seed, guard=guard, datum_desc=desc),
    "diagram": lambda d, order, guard, seed, desc:
        check_diagram(d, order=order, seed=seed, guard=guard, datum_desc=desc),
    "display": lambda d, order, guard, seed, desc:
        check_display_identity(d, order=order, guard=guard, datum_desc=desc),
    "modules": lambda d, order, guard, seed, desc:
        check_modules(d, order=order, seed=seed, guard=guard, datum_desc=desc),
}


def run_suites(datum, names, order=6, guard=2, seed=0, datum_desc=None):
    """Run the named suites and return reports sorted by name."""
    desc = datum_desc or {}
    if "all" in names:
        names = sorted(SUITES)
    reports = [SUITES[name](datum, order, guard, seed, desc) for name in sorted(set(names))]
    reports.sort(key=lambda rep: rep.name)
    return reports


def report_json(datum_desc, order, guard, seed, reports):
    return json.dumps(
        {
            "artifact_version": ARTIFACT_VERSION,
            "datum": datum_desc,
            "order": order,
            "guard": guard,
            "seed": seed,
            "checks": [rep.as_dict() for rep in reports],
        },
        indent=2,
    )


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
