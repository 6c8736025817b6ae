"""Row-level harness tests: budget degradation, filters, report rendering,
and the golden report.

``reproduce_golden.json`` holds every row but es-8, default and with the
heavy rows, without ``seconds``.  A change to a witness or a search count
must regenerate it and say so: ``PYTHONPATH=src python tests/test_reproduce.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from arlabel.reproduce import MATCH, SKIPPED, _claims, run_reproduction

GOLDEN = Path(__file__).with_name("reproduce_golden.json")
# es-8 alone takes about 15 s; CI runs it in its own steps.
GOLDEN_ROWS = {claim.claim_id for claim in _claims()} - {"es-8"}


def _golden_reports() -> dict:
    reports = {}
    for key, heavy in (("default", False), ("heavy", True)):
        doc = run_reproduction(include_heavy=heavy, only=GOLDEN_ROWS).as_dict()
        for row in doc["rows"]:
            del row["seconds"]
        # Through JSON, as the fixture was written: integer keys become strings.
        reports[key] = json.loads(json.dumps(doc))
    return reports


def test_rows_match_golden_report():
    # Status, computed text and artifact of every row, witnesses and search
    # counts included.
    assert _golden_reports() == json.loads(GOLDEN.read_text())


def test_row_budget_bounds_all_its_searches(slow_clock):
    # Every clock read advances the clock one second.  An 8 s budget outlasts
    # each of star-index's searches alone but not all of them together: the
    # row's deadline bounds its work.
    (row,) = run_reproduction(only={"star-index"}, budget_override_s=8).rows
    assert row.status == SKIPPED
    assert row.computed.startswith("budget expired at ")


def test_es_row_decides_the_last_candidate_without_search(slow_clock):
    # Once every candidate below u(3) = 4 is refuted, ES(3) = 4 has the
    # Conway-Guy set as its witness: the budget cannot leave it open.
    (row,) = run_reproduction(only={"es-values-1-6"}, budget_override_s=8).rows
    assert row.status == SKIPPED
    assert row.computed == "budget expired at n=4"
    assert row.artifact["witnesses"][3] == [2, 3, 4]


def test_cover_rows_honour_their_budget(slow_clock):
    # The cover walks read the row's deadline: a 1.5 s budget outlasts one
    # clock read, not the first walk.
    report = run_reproduction(
        only={"bipartite-cover-none", "bipartite-cover-exists"}, budget_override_s=1.5
    )
    assert [(r.status, r.computed) for r in report.rows] == [
        (SKIPPED, "budget expired at (3,5)"),
        (SKIPPED, "budget expired at (2,2)"),
    ]


def test_only_filter_limits_rows():
    report = run_reproduction(only={"dss-unique-4-within-7"})
    assert [r.claim_id for r in report.rows] == ["dss-unique-4-within-7"]
    assert report.rows[0].status == MATCH


def test_budget_expiry_is_skipped_not_mismatch(slow_clock):
    # The row's budget outlasts one clock read, not the search's first.
    report = run_reproduction(only={"es-7"}, budget_override_s=1.5)
    (row,) = report.rows
    assert row.status == SKIPPED
    assert row.computed == "budget expired at n=7: bound-only interval [35, 44]"
    assert report.ok()  # skipped rows do not fail the report


def test_heavy_rows_not_attempted_by_default():
    report = run_reproduction(only={"es-8", "bipartite-cover-6-6"})
    assert all(r.status == SKIPPED for r in report.rows)
    assert all(r.computed == "not attempted" for r in report.rows)


def test_k6_fallback_row_reports_ingredients():
    report = run_reproduction(only={"complete-6-ingredients"})
    (row,) = report.rows
    assert row.status == SKIPPED
    assert "ingredients" in row.computed
    assert row.artifact["counting_survives_15"] is True
    assert len(row.artifact["five_element_sets_max13"]) == 2


def test_report_rendering_and_persistence(tmp_path):
    report = run_reproduction(only={"dss-two-5-within-13", "multipartite-3-3-3"})
    text = report.render_text()
    assert "dss-two-5-within-13" in text
    assert "all claims reproduced" in text
    report.write(tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["ok"] is True
    assert {r["claim"] for r in doc["rows"]} == {
        "dss-two-5-within-13",
        "multipartite-3-3-3",
    }
    assert (tmp_path / "report.txt").read_text().startswith("claim")


def test_artifacts_back_every_computed_row():
    report = run_reproduction(
        only={"dss-unique-4-within-7", "bipartite-cover-exists", "multipartite-3-3-3"}
    )
    for row in report.rows:
        assert row.artifact, row.claim_id


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_golden_reports(), indent=1, sort_keys=True) + "\n")
