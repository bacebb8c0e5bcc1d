"""
Write the golden reports and negative-control witnesses that run.py
checks against:

    python3 benchmarks/make_golden.py

Each golden is the CLI's JSON report with ``elapsed_ms`` removed, plus
its exit status, for seeds 0 and 1 of every workload.  Run it only when a
change alters reports on purpose, and say so: run.py accepts nothing else.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

GOLDEN_SEEDS = (0, 1)


def main():
    os.makedirs(run.WORK, exist_ok=True)
    out = os.path.join(run.WORK, "golden-%d.json" % os.getpid())
    for workload in run.WORKLOADS:
        for seed in GOLDEN_SEEDS:
            argv = run.cli_argv(workload, seed)
            rc = run.child("wall", {"out": out}, argv)["rc"]
            with open(out) as fh:
                report = run.strip_timing(json.load(fh))
            if rc != 0 or any(c["status"] != "pass" for c in report["checks"]):
                sys.exit("%s seed %d does not pass: %r" % (workload, seed, report))
            path = os.path.join(run.GOLDEN, "%s.seed%d.json" % (workload, seed))
            with open(path, "w") as fh:
                json.dump({"argv": argv, "exit_status": rc, "report": report}, fh, indent=2)
                fh.write("\n")
    os.remove(out)
    controls = run.child("controls", {"seed": run.CONTROL_SEED,
                                      "order": run.CONTROL_ORDER}, [])["controls"]
    if any(c["status"] != "fail" or not c["witness"] for c in controls):
        sys.exit("a negative control did not fail: %r" % controls)
    with open(os.path.join(run.GOLDEN, "controls.json"), "w") as fh:
        json.dump(controls, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
