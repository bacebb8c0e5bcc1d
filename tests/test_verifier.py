import json

import pytest

from heckeverify.root_datum import build_root_datum, cartan_matrix
from heckeverify.verify import (
    check_diagram,
    check_display_identity,
    check_modules,
    check_morphisms,
    check_presentation,
    report_json,
    report_text,
    run_suites,
    SUITES,
)

A1 = build_root_datum([[2]])
A2 = build_root_datum(cartan_matrix("A", 2))
DESC = {"type": "A", "rank": 1}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_suite_passes_on_rank_one(suite):
    (rep,) = run_suites(A1, [suite], order=5, guard=2, seed=0, datum_desc=DESC)
    assert rep.status == "pass", rep.witness
    assert rep.witness is None
    assert rep.name == suite


# G2 at order 3, B3 and C3 at order 2: non-simply-laced and rank three,
# where the row/column convention of the Cartan matrix matters.  The
# morphisms suite is left out: on G2 at order 3 it takes about a minute.
OTHER_TYPES = [("G", 2, 3), ("B", 3, 2), ("C", 3, 2)]
OTHER_DATA = {(family, rank): build_root_datum(cartan_matrix(family, rank))
              for family, rank, _ in OTHER_TYPES}


@pytest.mark.parametrize("suite", ["presentation", "diagram", "display", "modules"])
@pytest.mark.parametrize("family, rank, order", OTHER_TYPES)
def test_suite_passes_on_other_types(family, rank, order, suite):
    datum = OTHER_DATA[(family, rank)]
    (rep,) = run_suites(datum, [suite], order=order, guard=2, seed=0)
    assert rep.status == "pass", rep.witness


def test_run_all_is_every_suite_sorted():
    reps = run_suites(A1, ["all"], order=4, guard=2, seed=0, datum_desc=DESC)
    assert [rep.name for rep in reps] == sorted(SUITES)
    assert all(rep.status == "pass" for rep in reps)


# -- negative controls: each corruption must produce a fail with a witness --

def test_corrupted_bernstein_sign_fails():
    rep = check_presentation(A1, order=5, _bernstein_sign=-1)
    assert rep.status == "fail"
    assert rep.witness


def test_corrupted_unit_r_coefficient_fails():
    rep = check_morphisms(A1, order=5, _unit_r_coeff=3)
    assert rep.status == "fail"
    assert rep.witness


def test_dropped_conjugation_fails():
    rep = check_diagram(A1, order=5, _conjugate=False)
    assert rep.status == "fail"
    assert rep.witness


def test_flipped_display_weight_fails():
    rep = check_display_identity(A1, order=5, _flip_rho=True)
    assert rep.status == "fail"
    assert rep.witness


def test_corrupted_module_sign_fails():
    rep = check_modules(A1, order=5, _sign_value=1)
    assert rep.status == "fail"
    assert rep.witness


def test_negative_controls_fail_on_rank_two_as_well():
    assert check_presentation(A2, order=4, _bernstein_sign=-1).status == "fail"
    assert check_diagram(A2, order=4, _conjugate=False).status == "fail"


# -- reports ---------------------------------------------------------------

def strip_timing(payload):
    doc = json.loads(payload)
    for chk in doc["checks"]:
        chk.pop("elapsed_ms")
    return doc


def test_json_report_schema_and_determinism():
    reps = run_suites(A1, ["presentation", "diagram"], order=4, datum_desc=DESC)
    payload = report_json(DESC, 4, 2, 0, reps)
    doc = json.loads(payload)
    assert set(doc) == {"artifact_version", "datum", "order", "guard", "seed", "checks"}
    assert doc["datum"] == DESC
    assert doc["order"] == 4 and doc["guard"] == 2 and doc["seed"] == 0
    assert [chk["name"] for chk in doc["checks"]] == ["diagram", "presentation"]
    for chk in doc["checks"]:
        assert chk["status"] == "pass"
        assert "elapsed_ms" in chk
    reps2 = run_suites(A1, ["presentation", "diagram"], order=4, datum_desc=DESC)
    payload2 = report_json(DESC, 4, 2, 0, reps2)
    assert strip_timing(payload) == strip_timing(payload2)


def test_failed_check_records_witness_in_report():
    rep = check_modules(A1, order=4, _sign_value=1, datum_desc=DESC)
    doc = json.loads(report_json(DESC, 4, 2, 0, [rep]))
    chk = doc["checks"][0]
    assert chk["status"] == "fail"
    assert chk["witness"]


def test_text_report_mentions_every_check():
    reps = run_suites(A1, ["presentation", "modules"], order=4, datum_desc=DESC)
    text = report_text(DESC, 4, 2, 0, reps)
    assert "presentation" in text and "modules" in text
    assert "pass" in text
