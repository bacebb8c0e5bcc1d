"""
Command-line entry point.

Select a root datum (by family/rank or a Cartan matrix file), a truncation
order and the suites to run; get a JSON or text report.  Exit status: 0 if
every check passed, 1 if any failed, 2 on usage or carrier errors.

Options are read from one table by one loop, not by argparse, whose first
use imports gettext and locale.  A unique prefix names an option (``--ord
5``), and a value follows it or an ``=``; ``--help`` lists the options.
"""

import os
import sys
from types import SimpleNamespace

from .formal_series import MAX_ORDER
from .lusztig import DEFAULT_GUARD
from .root_datum import FIXED_RANK, InvalidCartan, build_root_datum, cartan_matrix, \
    read_cartan_file
from .verify import report_json, report_text, run_suites, SUITES

# --name: (dest, type, default, choices, metavar or None for {choices}, help); list appends
OPTIONS = {
    "--type": ("family", str, None, None, "FAMILY",
               "root system family: A, B, C, D, E6, E7, E8, G2, F4"),
    "--rank": ("rank", int, None, None, "RANK", "rank (with --type)"),
    "--cartan-file": ("cartan_file", str, None, None, "PATH",
                      "file with a Cartan matrix (first line n, then rows)"),
    "--order": ("order", int, 6, None, "ORDER", "truncation order (default 6)"),
    "--guard": ("guard", int, DEFAULT_GUARD, None, "GUARD",
                "extra working order of the unit factors; changes no result "
                "(default %d)" % DEFAULT_GUARD),
    "--suite": ("suite", list, None, sorted(SUITES) + ["all"], None,
                "suite to run (repeatable; default all)"),
    "--seed": ("seed", int, 0, None, "SEED", "sampling seed (default 0)"),
    "--format": ("format", str, "text", ["json", "text"], None, "report format (default text)"),
    "--out": ("out", str, None, None, "PATH", "write the report to this path instead of stdout"),
}
HELP = ("-h", "--help")
USAGE = "usage: heckeverify [-h] (--type FAMILY [--rank RANK] | --cartan-file PATH) [OPTION ...]"


class _Parser:
    """Reads an argument list against :data:`OPTIONS`.  A refusal prints the
    usage line and the error to stderr and exits with status 2."""

    def parse_args(self, argv=None):
        args = SimpleNamespace(**{spec[0]: spec[2] for spec in OPTIONS.values()})
        rest = iter(sys.argv[1:] if argv is None else argv)
        for arg in rest:
            name, eq, value = arg.partition("=")
            found = [name] if name in (*OPTIONS, *HELP) else [
                o for o in (*OPTIONS, *HELP) if len(name) > 2 and o.startswith(name)]
            if len(found) != 1:
                self.error("ambiguous option: %s could match %s" % (arg, ", ".join(found))
                           if found else "unrecognized arguments: %s" % arg)
            opt = found[0]
            if opt in HELP:
                if eq:
                    self.error("argument -h/--help: ignored explicit argument %r" % value)
                print(USAGE + "\n\noptions:\n  -h, --help            show this help and exit")
                for o, (_, _, _, c, m, text) in OPTIONS.items():
                    print("  %-21s %s" % (o + " " + (m or "{%s}" % ",".join(c)), text))
                raise SystemExit(0)
            dest, kind, _, choices, _, _ = OPTIONS[opt]
            value = value if eq else next(rest, "--")  # "--": no value left
            if not eq and value[:1] == "-" and value != "-" and not value[1:].isdecimal():
                self.error("argument %s: expected one argument" % opt)
            try:
                value = int(value) if kind is int else value
            except ValueError:
                self.error("argument %s: invalid int value: %r" % (opt, value))
            if choices and value not in choices:
                self.error("argument %s: invalid choice: %r (choose from %s)"
                           % (opt, value, ", ".join(map(repr, choices))))
            setattr(args, dest, (getattr(args, dest) or []) + [value] if kind is list else value)
        return args

    def error(self, message):
        sys.stderr.write("%s\nheckeverify: error: %s\n" % (USAGE, message))
        raise SystemExit(2)


_parser = _Parser


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
