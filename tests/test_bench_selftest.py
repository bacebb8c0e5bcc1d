"""The benchmark's trace coverage self-test, run as tier-1.

``benchmarks/tracer.py`` wraps the package's functions by name.  A
renamed function drops out of the comparison, and a reference the tracer
cannot see makes its call counts disagree with cProfile's; either fails
this test.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

from test_tracer_targets import GONE_FROM_SRC

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tracer_targets():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "benchmarks" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_trace_coverage_selftest_is_clean():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["mismatches"] == []
    assert result["functions_compared"] == len(_tracer_targets()) - len(GONE_FROM_SRC)
