import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import heckeverify
from heckeverify import cli, lusztig, verify
from heckeverify.root_datum import cartan_matrix
from heckeverify.verify import CheckReport


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


def test_nonsymmetric_cartan_file_matches_its_family(tmp_path, capsys):
    # The transpose of the B2 matrix is the C2 matrix, so every check must
    # come out as it does for --type C --rank 2.
    b2 = cartan_matrix("B", 2)
    path = tmp_path / "b2t.txt"
    path.write_text("2\n" + "\n".join(" ".join(str(b2[j][i]) for j in range(2))
                                      for i in range(2)) + "\n")
    common = ("--order", "3", "--suite", "presentation", "--suite", "diagram",
              "--suite", "display", "--suite", "modules", "--format", "json")

    def checks(*argv):
        code, out, _ = run_cli(capsys, *argv, *common)
        assert code == 0
        doc = json.loads(out)
        for chk in doc["checks"]:
            chk.pop("elapsed_ms")
        return doc

    custom = checks("--cartan-file", str(path))
    family = checks("--type", "C", "--rank", "2")
    assert custom["datum"]["cartan"] == family["datum"]["cartan"] == [[2, -2], [-1, 2]]
    assert custom["checks"] == family["checks"]
    assert [c["status"] for c in family["checks"]] == ["pass"] * 4


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
    # start-up that the CLI never uses
    src = _src()
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    script = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % src,
        "import heckeverify.cli",
        "print(' '.join(m for m in %r if m in sys.modules))" % (heavy,),
    ])
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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
