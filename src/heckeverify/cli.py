"""
Command-line entry point.

Select a root datum (by family/rank or a Cartan matrix file), a truncation
order and the suites to run; get a JSON or text report.  Exit status: 0 if
every check passed, 1 if any failed, 2 on usage or carrier errors.
"""

import argparse
import os
import sys

from .formal_series import MAX_ORDER
from .lusztig import DEFAULT_GUARD
from .root_datum import FIXED_RANK, InvalidCartan, build_root_datum, cartan_matrix, \
    read_cartan_file
from .verify import report_json, report_text, run_suites, SUITES


def _parser():
    p = argparse.ArgumentParser(
        prog="heckeverify",
        description="Verify affine Hecke algebra identities modulo a truncation degree.",
    )
    p.add_argument("--type", dest="family",
                   help="root system family: A, B, C, D, E6, E7, E8, G2, F4")
    p.add_argument("--rank", type=int, help="rank (with --type)")
    p.add_argument("--cartan-file", help="file with a Cartan matrix (first line n, then rows)")
    p.add_argument("--order", type=int, default=6, help="truncation order (default 6)")
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                   help="extra working order of the unit factors; changes no result "
                        "(default %(default)s)")
    p.add_argument("--suite", action="append", default=None,
                   choices=sorted(SUITES) + ["all"],
                   help="suite to run (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out", help="write the report to this path instead of stdout")
    return p


def run(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.order < 1:
            parser.error("--order must be at least 1, got %d" % args.order)
        if args.guard < 0:
            parser.error("--guard must be at least 0, got %d" % args.guard)
        if args.order + args.guard >= MAX_ORDER:
            parser.error("--order plus --guard must be below %d, got %d"
                         % (MAX_ORDER, args.order + args.guard))
        if args.out:
            folder = os.path.dirname(os.path.abspath(args.out))
            if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
                parser.error("--out %s: directory %s is missing or not writable"
                             % (args.out, folder))
        if bool(args.cartan_file) == bool(args.family):
            parser.error("give one of --type or --cartan-file")
        if args.cartan_file and args.rank is not None:
            parser.error("--cartan-file gives the rank; it takes no --rank")
        fixed = FIXED_RANK.get(args.family.upper()) if args.family else None
        if fixed is not None:
            if args.rank not in (None, fixed):
                parser.error("--type %s has rank %d, got --rank %d"
                             % (args.family, fixed, args.rank))
            args.rank = fixed
        if args.family and args.rank is None:
            parser.error("--rank is required with --type")
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        if args.cartan_file:
            cartan = read_cartan_file(args.cartan_file)
            desc = {"type": "custom", "rank": len(cartan), "cartan": [list(r) for r in cartan]}
        else:
            cartan = cartan_matrix(args.family, args.rank)
            desc = {"type": "%s%d" % (args.family[0].upper(), len(cartan)),
                    "rank": len(cartan), "cartan": [list(r) for r in cartan]}
        datum = build_root_datum(cartan)
    except (InvalidCartan, OSError, ValueError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    suites = args.suite or ["all"]
    reports = run_suites(datum, suites, order=args.order, guard=args.guard, seed=args.seed)

    if args.format == "json":
        text = report_json(desc, args.order, args.guard, args.seed, reports)
    else:
        text = report_text(desc, args.order, args.guard, args.seed, reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)

    if any(rep.status == "error" for rep in reports):
        return 2
    return 0 if all(rep.status == "pass" for rep in reports) else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
