"""Every span the benchmark tracer wraps resolves to a function of its own.

``benchmarks/tracer.py`` wraps each TARGETS entry by name and books its
calls to that span.  A function bound under two names (``h_mul = gh_mul``)
would be wrapped twice and both spans would count every call; cProfile
counts the same calls, so the coverage self-test cannot see it.  Distinct
cProfile keys can.
"""

import importlib.util
import pathlib
import sys

import pytest

from heckeverify.root_datum import build_root_datum, cartan_matrix
from heckeverify.verify import SUITES, run_suites

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer_targets", ROOT / "benchmarks" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_function_of_its_own():
    tracer = _tracer()
    missing = [tracer.span_name(t) for t in tracer.TARGETS if tracer._resolve(t) is None]
    assert missing == []
    keys = tracer.code_keys()
    assert len(keys) == len(tracer.TARGETS)
    shared = {key: [name for name, k in keys.items() if k == key]
              for key in set(keys.values())}
    assert {key: names for key, names in shared.items() if len(names) > 1} == {}


# (module, attribute path) of functions that no clean suite calls: the
# conjugation by e_B, which only the tests' oracles use; G and every series
# exponential, since the suites read S = e_B exp(-rho.) central off the
# positive roots; and the functions with no caller in src/.  The tracer's
# TARGETS and src/ can drop them once the tests that use them as oracles
# stand without them (ROADMAP items 1 and 5).
OFF_THE_RUN_PATH = [
    ("graded_hecke", "todd_eB"), ("graded_hecke", "conj_eB"),
    ("graded_hecke", "log_todd"), ("formal_series", "log_todd_weights"),
    ("formal_series", "fs_exp"), ("formal_series", "fs_inv"),
    ("formal_series", "fs_set_r_zero"), ("lusztig", "transport"),
    ("root_datum", "RootDatum.mul"), ("root_datum", "RootDatum.inverse"),
]


def _refuse(*args, **kwargs):
    raise AssertionError("called by a clean suite")


@pytest.mark.parametrize("family, rank, order", [("A", 2, 6), ("B", 2, 5)])
def test_no_clean_suite_calls_a_function_off_the_run_path(family, rank, order, monkeypatch):
    for layer, path in OFF_THE_RUN_PATH:
        module = importlib.import_module("heckeverify." + layer)
        owner, _, attr = path.rpartition(".")
        if owner:
            monkeypatch.setattr(getattr(module, owner), attr, _refuse)
            continue
        original = getattr(module, attr)
        # rebind the name in every module that imported it by value
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("heckeverify")
                    and getattr(mod, attr, None) is original):
                monkeypatch.setattr(mod, attr, _refuse)
    reports = run_suites(build_root_datum(cartan_matrix(family, rank)), ["all"], order=order)
    assert [(rep.name, rep.status, rep.witness) for rep in reports] == [
        (name, "pass", None) for name in sorted(SUITES)]
