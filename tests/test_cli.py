import argparse
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import heckeverify
from heckeverify import cli, lusztig, verify
from heckeverify.root_datum import RootDatum, build_root_datum, cartan_matrix
from heckeverify.verify import CheckReport

from datum_plants import RELABELLED, rows_as_simple_roots


def _src():
    return str(pathlib.Path(heckeverify.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_json_run_passes(capsys):
    code, out, _ = run_cli(capsys, "--type", "A", "--rank", "1",
                           "--order", "4", "--suite", "presentation",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["datum"]["type"] == "A1"
    assert doc["order"] == 4
    assert [c["status"] for c in doc["checks"]] == ["pass"]


def test_text_run_passes(capsys):
    code, out, _ = run_cli(capsys, "--type", "A", "--rank", "1",
                           "--order", "4", "--suite", "modules")
    assert code == 0
    assert "modules" in out and "pass" in out


def test_repeatable_suite_flag(capsys):
    code, out, _ = run_cli(capsys, "--type", "A", "--rank", "1", "--order", "4",
                           "--suite", "presentation", "--suite", "display",
                           "--format", "json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["display", "presentation"]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--type", "A", "--rank", "1", "--order", "4",
                           "--suite", "presentation", "--format", "json",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["checks"][0]["status"] == "pass"


def test_json_report_deterministic_modulo_timing(capsys):
    argv = ["--type", "A", "--rank", "1", "--order", "4",
            "--suite", "diagram", "--format", "json"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)

    def strip(payload):
        doc = json.loads(payload)
        for chk in doc["checks"]:
            chk.pop("elapsed_ms")
        return doc

    assert strip(out1) == strip(out2)


GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "golden"


@pytest.mark.parametrize("name", ["all-A2.seed0", "all-A2.seed1",
                                  "diagram-B2.seed0", "diagram-B2.seed1"])
def test_report_equals_its_golden(tmp_path, name):
    golden = json.loads((GOLDEN / (name + ".json")).read_text())
    out = tmp_path / "report.json"
    assert cli.run(golden["argv"] + ["--out", str(out)]) == golden["exit_status"]
    doc = json.loads(out.read_text())
    for chk in doc["checks"]:
        chk.pop("elapsed_ms")
    assert json.dumps(doc) == json.dumps(golden["report"])


def test_cartan_file(tmp_path, capsys):
    path = tmp_path / "a2.txt"
    path.write_text("2\n2 -1\n-1 2\n")
    code, out, _ = run_cli(capsys, "--cartan-file", str(path), "--order", "3",
                           "--suite", "presentation", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["datum"]["type"] == "custom"
    assert doc["datum"]["cartan"] == [[2, -1], [-1, 2]]


def test_missing_datum_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "--order", "4")
    assert code == 2
    assert err


def test_bad_cartan_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n2 x\n-1 2\n")
    code, _, err = run_cli(capsys, "--cartan-file", str(path))
    assert code == 2
    assert err


def test_cartan_file_not_of_finite_type_is_refused(monkeypatch, tmp_path, capsys):
    # affine A1: W is infinite, so the datum is refused before any suite runs
    path = tmp_path / "affine.txt"
    path.write_text("2\n2 -2\n-2 2\n")

    def no_work(*args, **kwargs):
        raise AssertionError("suites ran on a refused datum")
    monkeypatch.setattr(cli, "run_suites", no_work)
    code, out, err = run_cli(capsys, "--cartan-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("InvalidCartan: ")


def test_unknown_suite_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "--type", "A", "--rank", "1",
                         "--suite", "nonsense")
    assert code == 2


def test_failed_check_gives_exit_one(monkeypatch, capsys):
    def fake_run_suites(datum, names, order=6, guard=2, seed=0):
        return [CheckReport("diagram", "fail", 1.0, "left != right")]
    monkeypatch.setattr(cli, "run_suites", fake_run_suites)
    code, out, _ = run_cli(capsys, "--type", "A", "--rank", "1",
                           "--format", "json")
    assert code == 1
    assert json.loads(out)["checks"][0]["witness"] == "left != right"


def test_carrier_error_gives_exit_two(monkeypatch, capsys):
    def fake_run_suites(datum, names, order=6, guard=2, seed=0):
        return [CheckReport("diagram", "error", 1.0, "ZeroDivisionError: boom")]
    monkeypatch.setattr(cli, "run_suites", fake_run_suites)
    code, _, _ = run_cli(capsys, "--type", "A", "--rank", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--order", "0"),
    ("--order", "-1"),
    ("--guard", "-1"),
])
def test_bad_order_or_guard_is_usage_error_before_any_work(monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("suites ran on rejected arguments")
    monkeypatch.setattr(cli, "run_suites", no_work)
    code, out, err = run_cli(capsys, "--type", "A", "--rank", "1", *argv)
    assert code == 2
    assert out == ""
    assert "usage" in err and argv[0] in err


def test_order_one_and_guard_zero_are_accepted(capsys):
    code, out, _ = run_cli(capsys, "--type", "A", "--rank", "1", "--order", "1",
                           "--guard", "0", "--suite", "diagram", "--format", "json")
    assert code == 0
    assert json.loads(out)["checks"][0]["status"] == "pass"


@pytest.mark.parametrize("argv, name", [
    (("--type", "G2"), "G2"),
    (("--type", "g2", "--rank", "2"), "G2"),
    (("--type", "G", "--rank", "2"), "G2"),
    (("--type", "F4"), "F4"),
    (("--type", "F", "--rank", "4"), "F4"),
    (("--type", "C", "--rank", "3"), "C3"),
    (("--type", "E7"), "E7"),
    (("--type", "e", "--rank", "8"), "E8"),
])
def test_datum_type_names_family_and_rank(monkeypatch, capsys, argv, name):
    monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs: [])
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["datum"]["type"] == name
    assert doc["datum"]["rank"] == int(name[1:])


@pytest.mark.parametrize("argv", [
    ("--type", "E6"),
    ("--type", "e6", "--rank", "6"),
    ("--type", "E", "--rank", "6"),
])
def test_e6_spellings_name_one_datum(monkeypatch, capsys, argv):
    built = []
    monkeypatch.setattr(cli, "build_root_datum", built.append)
    monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs: [])
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert built == [cartan_matrix("E", 6)]
    doc = json.loads(out)
    assert (doc["datum"]["type"], doc["datum"]["rank"]) == ("E6", 6)


@pytest.mark.parametrize("rank", ["5", "9"])
def test_type_e_of_another_rank_is_refused(monkeypatch, capsys, rank):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a refused datum")
    monkeypatch.setattr(cli, "build_root_datum", no_work)
    monkeypatch.setattr(cli, "run_suites", no_work)
    code, out, err = run_cli(capsys, "--type", "E", "--rank", rank)
    assert code == 2
    assert out == ""
    assert err.startswith("InvalidCartan: ")


@pytest.mark.parametrize("argv", [
    ("--type", "G2", "--rank", "5"),
    ("--type", "G", "--rank", "3"),
    ("--type", "F4", "--rank", "2"),
    ("--type", "E6", "--rank", "5"),
])
def test_rank_contradicting_the_family_is_usage_error(monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("suites ran on rejected arguments")
    monkeypatch.setattr(cli, "run_suites", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage" in err and "--rank" in err


@pytest.mark.parametrize("argv", [
    ("--type", "B", "--rank", "2"),
    ("--type", "A"),
    ("--rank", "5"),
    ("--rank", "2"),
])
def test_cartan_file_with_type_or_rank_is_usage_error(monkeypatch, capsys, tmp_path, argv):
    path = tmp_path / "a2.txt"
    path.write_text("2\n2 -1\n-1 2\n")

    def no_work(*args, **kwargs):
        raise AssertionError("work started on contradictory datum flags")
    monkeypatch.setattr(cli, "build_root_datum", no_work)
    monkeypatch.setattr(cli, "run_suites", no_work)
    code, out, err = run_cli(capsys, "--cartan-file", str(path), *argv)
    assert code == 2
    assert out == ""
    assert "usage" in err and "--cartan-file" in err


def _checks(capsys, *argv):
    """The report of a JSON run that exits 0, without its timings."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for chk in doc["checks"]:
        chk.pop("elapsed_ms")
    return doc


def _write_cartan(path, cartan):
    path.write_text("%d\n" % len(cartan) + "".join(" ".join(map(str, row)) + "\n"
                                                   for row in cartan))
    return str(path)


def test_nonsymmetric_cartan_file_matches_its_family(tmp_path, capsys):
    # The transpose of the B2 matrix is the C2 matrix, so every check must
    # come out as it does for --type C --rank 2.
    b2 = cartan_matrix("B", 2)
    path = _write_cartan(tmp_path / "b2t.txt", [list(col) for col in zip(*b2)])
    common = ("--order", "3", "--suite", "presentation", "--suite", "diagram",
              "--suite", "display", "--suite", "modules")
    custom = _checks(capsys, "--cartan-file", path, *common)
    family = _checks(capsys, "--type", "C", "--rank", "2", *common)
    assert custom["datum"]["cartan"] == family["datum"]["cartan"] == [[2, -2], [-1, 2]]
    assert custom["checks"] == family["checks"]
    assert [c["status"] for c in family["checks"]] == ["pass"] * 4


@pytest.mark.parametrize("cartan, family", RELABELLED.values(), ids=RELABELLED)
def test_relabelled_and_reducible_cartan_files_pass_every_suite(tmp_path, capsys, cartan,
                                                                 family):
    custom = _checks(capsys, "--cartan-file", _write_cartan(tmp_path / "c.txt", cartan),
                     "--order", "2")
    assert custom["datum"]["cartan"] == cartan
    assert custom["checks"] == [{"name": name, "status": "pass"} for name in sorted(verify.SUITES)]
    if family:
        assert custom["checks"] == _checks(capsys, "--type", family[0], "--rank", family[1],
                                           "--order", "2")["checks"]


@pytest.mark.parametrize("cartan", [cartan for cartan, _ in RELABELLED.values()],
                         ids=RELABELLED)
def test_order_one_is_blind_to_the_index_convention(monkeypatch, cartan):
    # only presentation, morphisms and modules are blind to it at order 1:
    # diagram and display check that each s_i permutes the positive roots
    # other than alpha_i, which no order bounds, and fail at every order
    monkeypatch.setattr(RootDatum, "__init__", rows_as_simple_roots(RootDatum.__init__))
    datum = build_root_datum(cartan)
    assert datum.simple_roots != tuple(zip(*datum.cartan))
    reports = verify.run_suites(datum, ["all"], order=1)
    assert [(rep.name, rep.status) for rep in reports] == [
        ("diagram", "fail"), ("display", "fail"), ("modules", "pass"), ("morphisms", "pass"),
        ("presentation", "pass")]
    witness = reports[0].witness
    assert witness.startswith("S = e_B exp(-rho.) is not invariant under s")
    assert [rep.witness for rep in reports[1:2] + verify.run_suites(
        datum, ["diagram", "display"], order=2)] == [witness] * 3


def _refuse_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("suites ran on rejected arguments")
    monkeypatch.setattr(cli, "run_suites", no_work)


@pytest.mark.parametrize("where", ["missing", "under_a_file", "not_writable"])
def test_unwritable_out_is_usage_error_before_any_work(monkeypatch, capsys, tmp_path, where):
    _refuse_work(monkeypatch)
    if where == "missing":
        target = tmp_path / "no_such_dir" / "report.json"
    elif where == "under_a_file":
        (tmp_path / "plain").write_text("")
        target = tmp_path / "plain" / "report.json"
    else:
        target = tmp_path / "report.json"
        real_access = cli.os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: (
            False if str(path) == str(tmp_path) else real_access(path, mode)))
    code, out, err = run_cli(capsys, "--type", "A", "--rank", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert "usage" in err and "--out" in err
    assert not target.exists()


def test_order_beyond_the_exponent_field_is_usage_error(monkeypatch, capsys):
    _refuse_work(monkeypatch)
    code, out, err = run_cli(capsys, "--type", "A", "--rank", "1",
                             "--order", "250", "--guard", "10")
    assert code == 2
    assert out == ""
    assert "usage" in err and "--order" in err


def test_python_dash_m_runs_the_cli():
    src = _src()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "heckeverify", "--type", "A", "--rank", "1",
         "--order", "2", "--suite", "diagram", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [c["status"] for c in json.loads(proc.stdout)["checks"]] == ["pass"]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 10 ms of
    # start-up that the CLI never uses; argparse's first use imports gettext
    # and locale, so neither the import nor a run may load them
    src = _src()
    parsing = ("argparse", "gettext", "locale")
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize") + parsing
    runs = (["--type", "A", "--rank", "1", "--order", "2", "--suite", "diagram"],
            ["--order", "0"], ["--help"])
    script = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % src,
        "import heckeverify.cli",
        "loaded = [m for m in %r if m in sys.modules]" % (heavy,),
        "codes = [heckeverify.cli.run(argv) for argv in %r]" % (runs,),
        "loaded += [m for m in %r if m in sys.modules]" % (parsing,),
        "print(codes, ' '.join(loaded))",
    ])
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["[0,", "2,", "0]"]
    assert proc.stderr.startswith("usage: heckeverify")


def test_cli_loads_neither_fractions_nor_json(tmp_path):
    # fractions pulls in decimal, _decimal and numbers, and json its
    # decoder, encoder, scanner and _json: about 4 ms of every cold run.
    # Exact weights are int pairs and reports have their own writer, so
    # neither the import, nor a run, nor a failing report may load them.
    unwanted = ("fractions", "decimal", "numbers", "json", "json.decoder", "json.encoder",
                "json.scanner", "_json")
    common = ["--type", "A", "--rank", "1", "--order", "2", "--suite", "diagram"]
    runs = (common + ["--format", "json", "--out", str(tmp_path / "r.json")],
            common + ["--format", "text", "--out", str(tmp_path / "r.txt")],
            ["--order", "0"], ["--help"])
    script = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % _src(),
        "def loaded(step):",
        "    print('after', step, *[m for m in %r if m in sys.modules])" % (unwanted,),
        "import heckeverify.cli",
        "loaded('import')",
        "for argv in %r:" % (runs,),
        "    loaded(heckeverify.cli.run(argv))",
        "from heckeverify import verify",
        "from heckeverify.root_datum import build_root_datum, cartan_matrix",
        "rep = verify.check_diagram(build_root_datum(cartan_matrix('A', 1)), order=2,",
        "                           _conjugate=False)",
        "with open(%r, 'w') as fh:" % str(tmp_path / "fail.txt"),
        "    fh.write(verify.report_json({'type': 'A1'}, 2, 2, 0, [rep]) + '\\n')",
        "    fh.write(verify.report_text({'type': 'A1'}, 2, 2, 0, [rep]) + '\\n')",
        "loaded(rep.status)",
    ])
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    steps = [line for line in proc.stdout.splitlines() if line.startswith("after ")]
    assert steps == ["after " + step for step in ("import", "0", "0", "2", "0", "fail")]
    assert proc.stderr.startswith("usage: heckeverify")
    assert json.loads((tmp_path / "r.json").read_text())["checks"][0]["status"] == "pass"
    assert (tmp_path / "r.txt").read_text().startswith("datum: A1  order=2")
    failing = (tmp_path / "fail.txt").read_text()
    assert "K-route: [-3*r + 8/3*r^2 + 5/3*y1*r + O(3)]*t(e)" in json.loads(
        failing[:failing.index("\n}\n") + 2])["checks"][0]["witness"]
    assert "    witness: diagram routes disagree on T(s1):\n  K-route: [-3*r + 8/3*r^2" in failing


def test_every_guard_default_is_default_guard(capsys):
    defaults = {fn.__name__: inspect.signature(fn).parameters["guard"].default
                for fn in (verify.check_morphisms, verify.check_diagram,
                           verify.check_display_identity, verify.check_modules,
                           verify.run_suites, lusztig.pipeline_K, lusztig.pipeline_H)}
    defaults["cli"] = cli._parser().parse_args(["--type", "A", "--rank", "1"]).guard
    assert defaults == dict.fromkeys(defaults, lusztig.DEFAULT_GUARD)
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "changes no result (default %d)" % lusztig.DEFAULT_GUARD in " ".join(out.split())


def test_importing_the_package_loads_no_submodule():
    script = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % _src(),
        "import heckeverify",
        "print(' '.join(m for m in sys.modules if m.startswith('heckeverify.')))",
    ])
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_the_console_script_entry_point_runs():
    # the entry point of the ``heckeverify`` command, as pyproject.toml names it
    pyproject = (pathlib.Path(_src()).parent / "pyproject.toml").read_text()
    (entry,) = [line.split("=", 1)[1].strip().strip('"')
                for line in pyproject.splitlines() if line.startswith("heckeverify =")]
    module, func = entry.split(":")
    script = "\n".join([
        "import importlib, sys",
        "sys.path.insert(0, %r)" % _src(),
        "sys.argv = ['heckeverify', '--type', 'A', '--rank', '1', '--order', '2',"
        " '--suite', 'diagram', '--format', 'json']",
        "getattr(importlib.import_module(%r), %r)()" % (module, func),
    ])
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [c["status"] for c in json.loads(proc.stdout)["checks"]] == ["pass"]


def _argparse_parser():
    """The argparse parser the CLI used before its option table, kept as the
    reference of ``test_option_table_parses_as_argparse_did``."""
    p = argparse.ArgumentParser(
        prog="heckeverify",
        description="Verify affine Hecke algebra identities modulo a truncation degree.",
    )
    p.add_argument("--type", dest="family",
                   help="root system family: A, B, C, D, E6, E7, E8, G2, F4")
    p.add_argument("--rank", type=int, help="rank (with --type)")
    p.add_argument("--cartan-file", help="file with a Cartan matrix (first line n, then rows)")
    p.add_argument("--order", type=int, default=6, help="truncation order (default 6)")
    p.add_argument("--guard", type=int, default=lusztig.DEFAULT_GUARD,
                   help="extra working order of the unit factors; changes no result "
                        "(default %(default)s)")
    p.add_argument("--suite", action="append", default=None,
                   choices=sorted(verify.SUITES) + ["all"],
                   help="suite to run (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out", help="write the report to this path instead of stdout")
    return p


_SPELLED = [("--type", "B"), ("--rank", "2"), ("--cartan-file", "c.txt"), ("--order", "5"),
            ("--guard", "0"), ("--suite", "diagram"), ("--seed", "3"), ("--format", "json"),
            ("--out", "r.json")]
_ARGVS = [[]] + [[opt, val] for opt, val in _SPELLED] + [
    [opt + "=" + val] for opt, val in _SPELLED] + [
    # the benchmark's argv, and unique prefixes
    ["--type", "B", "--rank", "2", "--order", "5", "--suite", "diagram", "--format", "json"],
    ["--ord", "5"], ["--ord=5"], ["--t", "A", "--r", "1"], ["--c=x"], ["--g", "1"],
    ["--su", "all"], ["--se", "7"], ["--f", "text"], ["--ou", "x"], ["--he"],
    # ambiguous prefixes
    ["--s", "x"], ["--s=x"], ["--s", "diagram"], ["--o", "5"], ["--o=x"],
    # repeats, negative integers, the last value winning
    ["--suite", "diagram", "--suite", "all", "--su=modules"], ["--order", "-1"],
    ["--order=-1"], ["--rank", "-0"], ["--order", "5", "--order", "6"], ["--order", "+3"],
    # bad values
    ["--rank", "x"], ["--suite", "nonsense"], ["--format", "xml"], ["--order", "1.5"],
    ["--order", "-1.5"], ["--suite="], ["--format="],
    # values that are empty, start with - or hold =
    ["--out="], ["--out", "-"], ["--out=-h"], ["--type=A=B"], ["--type", ""],
    # a missing value, an option in place of a value, strays, dashes
    ["--type"], ["--type", "A", "--order"], ["--out", "-h"], ["--type", "--rank", "2"],
    ["A"], ["--type", "A", "B"], ["--"], ["--", "x"], ["--type", "A", "--"], ["-"], ["-1"],
    ["-type", "A"], ["-t", "A"], ["--bogus"], ["--bogus=1"], ["--help=x"], ["-h"], ["--help"],
]


@pytest.mark.parametrize("argv", _ARGVS, ids=" ".join)
def test_option_table_parses_as_argparse_did(capsys, argv):
    def outcome(parser):
        try:
            return vars(parser.parse_args(list(argv)))
        except SystemExit as exc:
            return exc.code

    want = outcome(_argparse_parser())
    capsys.readouterr()
    got = outcome(cli._parser())
    out, err = capsys.readouterr()
    assert got == want
    if got == 2:
        usage, error = err.splitlines()
        assert usage.startswith("usage: heckeverify ") and error.startswith("heckeverify: error: ")
    elif got == 0:
        assert out.startswith("usage: heckeverify ") and "--cartan-file PATH" in out
