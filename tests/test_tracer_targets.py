"""Every span the benchmark tracer wraps resolves to a function of its own.

``benchmarks/tracer.py`` wraps each TARGETS entry by name and books its
calls to that span.  A function bound under two names (``h_mul = gh_mul``)
would be wrapped twice and both spans would count every call; cProfile
counts the same calls, so the coverage self-test cannot see it.  Distinct
cProfile keys can.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The spans of TARGETS whose functions have left the package, in TARGETS
# order.  The tracer skips them and the run record lists them under
# ``missing_spans``; this list empties when TARGETS drops them, and any
# other stale target fails.
GONE_FROM_SRC = [
    "root_datum.mul", "root_datum.inverse", "formal_series.exp", "formal_series.inv",
    "formal_series.set_r_zero", "graded_hecke.todd_eB", "graded_hecke.conj_eB",
    "lusztig.transport",
]


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer_targets", ROOT / "benchmarks" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_function_of_its_own():
    tracer = _tracer()
    missing = [tracer.span_name(t) for t in tracer.TARGETS if tracer._resolve(t) is None]
    assert missing == GONE_FROM_SRC
    keys = tracer.code_keys()
    assert len(keys) == len(tracer.TARGETS) - len(GONE_FROM_SRC)
    shared = {key: [name for name, k in keys.items() if k == key]
              for key in set(keys.values())}
    assert {key: names for key, names in shared.items() if len(names) > 1} == {}
