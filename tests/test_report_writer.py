"""The report's JSON writer against ``json.dumps(value, indent=2)``.

``verify._json_text`` writes every JSON report, so that a run loads
neither ``json`` nor ``_json``.  It must give the same bytes as
``json.dumps`` with ``indent=2``: on the committed goldens and control
witnesses, on failing reports rendered from the controls, and on drawn
values with strings over all of Unicode.
"""

import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heckeverify.root_datum import build_root_datum, cartan_matrix
from heckeverify.verify import (
    CheckReport,
    _json_text,
    check_diagram,
    check_display_identity,
    check_modules,
    check_morphisms,
    check_presentation,
    report_json,
)

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "golden"
GOLDEN_FILES = sorted(GOLDEN.glob("*.json"))


def test_the_goldens_are_there():
    assert {p.name for p in GOLDEN_FILES} >= {"controls.json", "all-A2.seed0.json",
                                              "diagram-B2.seed0.json"}


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=[p.name for p in GOLDEN_FILES])
def test_writer_equals_json_dumps_on_every_golden(path):
    doc = json.loads(path.read_text())
    assert _json_text(doc) == json.dumps(doc, indent=2) == path.read_text().rstrip("\n")
    if isinstance(doc, dict) and "report" in doc:
        assert _json_text(doc["report"]) == json.dumps(doc["report"], indent=2)


def test_writer_equals_json_dumps_on_each_control_witness():
    controls = json.loads((GOLDEN / "controls.json").read_text())
    assert len(controls) == 5
    for control in controls:
        assert _json_text(control) == json.dumps(control, indent=2)
        assert _json_text(control["witness"]) == json.dumps(control["witness"])


def test_failing_reports_render_as_json_dumps_renders_them():
    # the five controls on B2/5 at seed 0, as the golden controls run them
    datum = build_root_datum(cartan_matrix("B", 2))
    reports = [check_presentation(datum, seed=0, order=5, _bernstein_sign=-1),
               check_morphisms(datum, order=5, _unit_r_coeff=3),
               check_diagram(datum, order=5, _conjugate=False),
               check_display_identity(datum, order=5, _flip_rho=True),
               check_modules(datum, order=5, seed=0, _sign_value=1)]
    assert [rep.status for rep in reports] == ["fail"] * 5
    desc = {"type": "B2", "rank": 2, "cartan": [list(row) for row in datum.cartan]}
    got = report_json(desc, 5, 2, 0, reports)
    want = json.dumps({"artifact_version": "0.1.0", "datum": desc, "order": 5, "guard": 2,
                       "seed": 0, "checks": [rep.as_dict() for rep in reports]}, indent=2)
    assert got == want
    controls = json.loads((GOLDEN / "controls.json").read_text())
    assert [c["witness"] for c in json.loads(got)["checks"]] == [c["witness"] for c in controls]


def test_writer_refuses_what_a_report_does_not_hold():
    for bad in ({1, 2}, object(), b"bytes", (1, 2)):
        with pytest.raises(TypeError):
            _json_text({"a": [bad]})
    assert _json_text(CheckReport("x", "pass", 1.25).as_dict()) == json.dumps(
        {"name": "x", "status": "pass", "elapsed_ms": 1.25}, indent=2)


# every code point, surrogates included, and the characters at the edges of
# each kind of escape
TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80 ~\ufeff\uffff\U00010000\U0001f600'
                    '\U0010ffff')))
SCALARS = st.one_of(st.none(), st.booleans(), TEXT,
                    st.integers(), st.integers(-2 ** 200, 2 ** 200),
                    st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(TEXT, inner, max_size=5)), max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(VALUES)
def test_writer_equals_json_dumps_on_drawn_values(value):
    assert _json_text(value) == json.dumps(value, indent=2)
