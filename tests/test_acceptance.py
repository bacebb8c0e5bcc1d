"""End-to-end acceptance battery.

Each test covers one acceptance criterion and prints a single pass/fail
line (visible with ``pytest -s`` or in the captured output of a failure).
"""

import random
import time

import pytest

from heckeverify.formal_series import (
    FormalSeries,
    bernoulli_weights,
    diff,
    fs_div_linear,
    fs_exp_sum,
    fs_weyl,
    quotient_weights,
)
from heckeverify.affine_hecke import duality_map, parity_map
from heckeverify.graded_hecke import fourier_map
from heckeverify.lattice_algebra import GroupAlgebraElement, demazure_quotient
from heckeverify.root_datum import apply, build_root_datum, cartan_matrix
from heckeverify.verify import (
    check_diagram,
    check_display_identity,
    check_modules,
    check_morphisms,
    check_presentation,
    rand_polynomial,
    rand_weight,
)

from linear_series import exp_linear, linear
from random_elements import rand_graded, rand_hecke

DATA = {
    "A1": build_root_datum([[2]]),
    "A2": build_root_datum(cartan_matrix("A", 2)),
    "B2": build_root_datum(cartan_matrix("B", 2)),
    "A3": build_root_datum(cartan_matrix("A", 3)),
}


def report(label, failures, elapsed, budget):
    status = "pass" if not failures and elapsed < budget else "FAIL"
    print("acceptance %-12s %s  (%.1fs, budget %ds)" % (label, status, elapsed, budget))
    assert not failures, failures
    assert elapsed < budget, "budget exceeded: %.1fs" % elapsed


def collect(reports):
    """Failures among (datum key, report) pairs, labelled with the key."""
    return ["%s[%s]: %s" % (rep.name, key, rep.witness)
            for key, rep in reports if rep.status != "pass"]


def test_criterion_1_presentation():
    t0 = time.perf_counter()
    reps = [(k, check_presentation(DATA[k], order=6)) for k in ("A1", "A2", "B2", "A3")]
    report("presentation", collect(reps), time.perf_counter() - t0, 30)


def test_criterion_2_morphisms():
    t0 = time.perf_counter()
    reps = [(k, check_morphisms(DATA[k], order=6)) for k in ("A1", "A2", "B2", "A3")]
    report("morphisms", collect(reps), time.perf_counter() - t0, 60)


def test_criterion_3_diagram():
    t0 = time.perf_counter()
    reps = [(k, check_diagram(DATA[k], order=n)) for k, n in (("A1", 8), ("A2", 6), ("B2", 5))]
    report("diagram", collect(reps), time.perf_counter() - t0, 120)


def test_criterion_4_display_identity():
    t0 = time.perf_counter()
    reps = [("A1", check_display_identity(DATA["A1"], order=10)),
            ("A2", check_display_identity(DATA["A2"], order=6))]
    report("display", collect(reps), time.perf_counter() - t0, 60)


def test_criterion_5_modules():
    t0 = time.perf_counter()
    reps = [(k, check_modules(DATA[k], order=6)) for k in ("A1", "A2")]
    report("modules", collect(reps), time.perf_counter() - t0, 30)


def test_criterion_6_oracles():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0)
    datums = [DATA["A1"], DATA["A2"], DATA["B2"]]

    # Demazure quotient: multiply back by (1 - theta_{-alpha}) and compare.
    for case in range(200):
        datum = datums[case % 3]
        n = datum.rank
        x = rand_weight(rng, n)
        i = rng.randrange(n)
        sx = apply(datum.simple(i), x)
        q = demazure_quotient(datum, x, i)
        neg_alpha = tuple(-c for c in datum.simple_roots[i])
        back = q - q * GroupAlgebraElement.theta(neg_alpha)
        if back != GroupAlgebraElement.theta(x) - GroupAlgebraElement.theta(sx):
            failures.append("demazure multiply-back case %d" % case)

    # Linear division of Weyl-antisymmetrized series is always remainder-free.
    for case in range(200):
        datum = datums[case % 3]
        n = datum.rank
        f = rand_polynomial(rng, n, 6)
        i = rng.randrange(n)
        form = diff(datum.simple_roots[i])
        num = f - fs_weyl(datum, datum.simple(i), f)
        try:
            q = fs_div_linear(num, form)
        except ArithmeticError as exc:
            failures.append("demazure series division case %d: %s" % (case, exc))
            continue
        if not (q * linear(form, q.order)).eq(num, q.order):
            failures.append("demazure series multiply-back case %d" % case)

    # the two closed forms are inverse: over the positive roots, the product
    # of the Bernoulli walks at -alpha-dot, which is e_B, times the product of
    # the quotient walks is 1; unit_factor multiplies both weight families
    for family, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2)):
        datum = build_root_datum(cartan_matrix(family, rank))
        nvars = rank + 1
        forms = [diff(-a for a in alpha) for alpha in datum.positive_roots]
        for order in range(9):
            product = FormalSeries.one(nvars, order)
            for weights in (bernoulli_weights, quotient_weights):
                for form in forms:
                    product = product * fs_exp_sum(nvars, order, [(1, form)], weights(order))
            if product != FormalSeries.one(nvars, order):
                failures.append("e_B inverse fails for %s%d at order %d"
                                % (family, rank, order))

    # exp is a homomorphism at order 8
    for _ in range(20):
        n = 2
        a = tuple(rng.randint(-3, 3) for _ in range(n + 1))
        b = tuple(rng.randint(-3, 3) for _ in range(n + 1))
        lhs = exp_linear(a, 8) * exp_linear(b, 8)
        rhs = exp_linear(tuple(x + y for x, y in zip(a, b)), 8)
        if not lhs.eq(rhs):
            failures.append("exp homomorphism fails on %r, %r" % (a, b))

    # the three involutions square to the identity
    for datum in datums:
        D, p = duality_map(datum), parity_map(datum)
        for _ in range(20):
            h = rand_hecke(rng, datum)
            if D(D(h)) != h:
                failures.append("duality not involutive on %r" % h)
            if p(p(h)) != h:
                failures.append("parity not involutive on %r" % h)
            g = rand_graded(rng, datum, 5)
            if not fourier_map(fourier_map(g)).eq(g):
                failures.append("fourier not involutive on %r" % g)

    report("oracles", failures, time.perf_counter() - t0, 30)


def test_criterion_7_negative_controls():
    t0 = time.perf_counter()
    failures = []
    controls = [
        ("bernstein sign flip",
         check_presentation(DATA["A1"], order=5, _bernstein_sign=-1)),
        ("dropped e_B conjugation",
         check_diagram(DATA["A1"], order=5, _conjugate=False)),
        ("sign module +1",
         check_modules(DATA["A1"], order=5, _sign_value=1)),
        ("unit factor r-coefficient",
         check_morphisms(DATA["A1"], order=5, _unit_r_coeff=3)),
        ("reflected display weight",
         check_display_identity(DATA["A1"], order=5, _flip_rho=True)),
    ]
    for label, rep in controls:
        if rep.status != "fail":
            failures.append("%s: expected fail, got %s" % (label, rep.status))
        elif not rep.witness:
            failures.append("%s: fail without witness" % label)
    report("controls", failures, time.perf_counter() - t0, 60)
