"""
One measured process of the benchmark; ``run.py`` starts it with
``python3 -I child.py <mode> <json params> <heckeverify arguments...>``.

Modes:
  setup     time import + argument parsing + build_root_datum
  wall      time one ``cli.run`` with ``--format json --out <file>``
  trace     the same with the span tracer installed
  profile   the same under cProfile, for the trace coverage self-test
  controls  the five negative controls on B2 at order 5

The last line of standard output is one JSON object with the result.
Nothing but ``sys`` and ``time`` is imported before the setup timer
starts, so the import cost of ``heckeverify`` is measured in full.

Timed modes also report ``ref_s``, the mean time of a fixed exact-
arithmetic loop sampled in the same process before, during and after the
measured work (SpeedProbe), so that run.py can take out the machine's
speed over that interval.
"""

import sys
import time


def _use_checkout_source():
    """Import heckeverify from the checkout's src/, never from elsewhere."""
    import os
    bench = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench), "src")
    sys.path.insert(0, bench)
    sys.path.insert(0, src)
    return src


def _check_origin(src):
    import os
    import heckeverify
    got = os.path.dirname(os.path.abspath(heckeverify.__file__))
    if os.path.dirname(got) != src:
        sys.exit("heckeverify imported from %s, not from %s" % (got, src))


def mode_setup(argv):
    src = _use_checkout_source()
    t0 = time.perf_counter()
    from heckeverify import cli
    from heckeverify.root_datum import build_root_datum, cartan_matrix
    args = cli._parser().parse_args(argv)
    build_root_datum(cartan_matrix(args.family, args.rank))
    t1 = time.perf_counter()
    _check_origin(src)
    return {"setup_s": t1 - t0, "ref_s": SpeedProbe().ref_s()}


_LATTICE = {(i, j): (i * j) % 7 - 3 for i in range(-4, 5) for j in range(-4, 5)}


def reference():
    """Seconds for a fixed loop, about 13 ms on an unloaded core.

    It mixes the program's two kinds of work: Fraction sums keyed by
    exponent tuples, as in formal_series, and integer convolutions keyed by
    weight tuples, as in lattice_algebra.  The collector is off meanwhile,
    or a collection of the measured work's heap would be timed as the
    loop's."""
    import gc
    from fractions import Fraction
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 49):
        for j in range(1, 41):
            e = (i % 7, j % 5, (i + j) % 3)
            acc[e] = acc.get(e, Fraction(0)) + Fraction(i, j) * Fraction(j + 1, i + 2)
    for _ in range(3):
        conv = {}
        for x, cx in _LATTICE.items():
            for y, cy in _LATTICE.items():
                z = (x[0] + y[0], x[1] + y[1])
                conv[z] = conv.get(z, 0) + cx * cy
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


class SpeedProbe:
    """Times ``reference`` a few times before and after the measured work,
    and every INTERVAL seconds during it from a SIGALRM handler, so the
    samples follow the machine's speed over the whole interval.  ``spent``
    is the probe's own time inside the interval."""

    INTERVAL = 0.25
    EDGE = 3

    def __init__(self):
        self.samples = [reference() for _ in range(self.EDGE)]
        self.spent = 0.0

    def _sample(self, signum, frame):
        dt = reference()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        import signal
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        import signal
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.extend(reference() for _ in range(self.EDGE))

    def ref_s(self):
        return sum(self.samples) / len(self.samples)


def _timed_run(cli, argv):
    """One cli.run: its wall time less the probe's, and the reference time."""
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        rc = cli.run(argv)
        t1 = time.perf_counter()
    gross = t1 - t0
    return {"wall_s": gross - probe.spent, "probe_share": probe.spent / gross,
            "ref_s": probe.ref_s(), "rc": rc}


def mode_wall(params, argv):
    _check_origin(_use_checkout_source())
    from heckeverify import cli
    import resource
    res = _timed_run(cli, argv + ["--out", params["out"]])
    res["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res


def mode_trace(params, argv):
    _check_origin(_use_checkout_source())
    import tracer
    from heckeverify import cli
    tr = tracer.Tracer()
    tr.install()
    res = _timed_run(cli, argv + ["--out", params["out"]])
    if params.get("spans"):
        tr.write(params["spans"])
    res["summary"] = tr.summary()
    return res


def mode_profile(params, argv):
    _check_origin(_use_checkout_source())
    import cProfile
    import pstats
    import tracer
    from heckeverify import cli
    keys = tracer.code_keys()
    prof = cProfile.Profile()
    rc = prof.runcall(cli.run, argv + ["--out", params["out"]])
    ncalls = {}
    for (fname, line, func), (_, nc, _, _, _) in pstats.Stats(prof).stats.items():
        ncalls["%s:%d:%s" % (fname, line, func)] = nc
    return {"rc": rc, "ncalls": {name: ncalls.get(key, 0) for name, key in keys.items()}}


def mode_controls(params, argv):
    """Each control seeds one corruption; every check must fail."""
    _check_origin(_use_checkout_source())
    from heckeverify.root_datum import build_root_datum, cartan_matrix
    from heckeverify import verify
    datum = build_root_datum(cartan_matrix("B", 2))
    seed, order = params["seed"], params["order"]
    runs = [
        ("_bernstein_sign=-1", lambda: verify.check_presentation(
            datum, seed=seed, order=order, _bernstein_sign=-1)),
        ("_unit_r_coeff=3", lambda: verify.check_morphisms(
            datum, order=order, seed=seed, _unit_r_coeff=3)),
        ("_conjugate=False", lambda: verify.check_diagram(
            datum, order=order, seed=seed, _conjugate=False)),
        ("_flip_rho=True", lambda: verify.check_display_identity(
            datum, order=order, _flip_rho=True)),
        ("_sign_value=1", lambda: verify.check_modules(
            datum, order=order, seed=seed, _sign_value=1)),
    ]
    out = []
    for name, fn in runs:
        rep = fn()
        out.append({"control": name, "check": rep.name, "status": rep.status,
                    "witness": rep.witness})
    return {"controls": out}


MODES = {
    "wall": mode_wall,
    "trace": mode_trace,
    "profile": mode_profile,
    "controls": mode_controls,
}


if __name__ == "__main__":
    mode = sys.argv[1]
    # setup is timed before anything else is imported
    result = mode_setup(sys.argv[3:]) if mode == "setup" else None
    import json
    if result is None:
        result = MODES[mode](json.loads(sys.argv[2]), sys.argv[3:])
    print(json.dumps(result))
