import json

import pytest

from heckeverify import cli
from heckeverify.verify import CheckReport


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


def test_unknown_suite_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "--type", "A", "--rank", "1",
                         "--suite", "nonsense")
    assert code == 2


def test_failed_check_gives_exit_one(monkeypatch, capsys):
    def fake_run_suites(datum, names, order=6, guard=2, seed=0, datum_desc=None):
        return [CheckReport("diagram", "fail", datum_desc, order, guard, seed,
                            1.0, "left != right")]
    monkeypatch.setattr(cli, "run_suites", fake_run_suites)
    code, out, _ = run_cli(capsys, "--type", "A", "--rank", "1",
                           "--format", "json")
    assert code == 1
    assert json.loads(out)["checks"][0]["witness"] == "left != right"


def test_carrier_error_gives_exit_two(monkeypatch, capsys):
    def fake_run_suites(datum, names, order=6, guard=2, seed=0, datum_desc=None):
        return [CheckReport("diagram", "error", datum_desc, order, guard, seed,
                            1.0, "ZeroDivisionError: boom")]
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
