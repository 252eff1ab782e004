"""Diff detection: plan changes, coverage gaps and clean runs.

All inputs are synthetic snapshots from :mod:`tests.perf.conftest`, so
every branch of the regression rules is exercised deterministically —
no measurement, no flakiness.
"""

import copy

from repro.perf.report import compare_snapshots, render_report
from repro.perf.schema import validate_document

from .conftest import make_cell, make_row


def _clone(snapshot, label="candidate"):
    candidate = copy.deepcopy(snapshot)
    candidate["meta"]["label"] = label
    return candidate


class TestCleanComparison:
    def test_identical_snapshots_are_clean(self, baseline_snapshot):
        report = compare_snapshots(baseline_snapshot,
                                   _clone(baseline_snapshot))
        assert report["ok"]
        assert report["plan_regressions"] == []
        assert report["cost_regressions"] == []
        assert report["missing"] == []
        assert report["compared"] == {"cells": 1, "queries": 2}

    def test_report_is_a_valid_stamped_document(self, baseline_snapshot):
        report = compare_snapshots(baseline_snapshot,
                                   _clone(baseline_snapshot))
        assert report["kind"] == "report"
        assert validate_document(report) == []


class TestPlanRegressions:
    def test_changed_explain_is_a_plan_regression(self, baseline_snapshot):
        candidate = _clone(baseline_snapshot)
        candidate["cells"][0]["queries"][1] = make_row(
            "Q2", explain="plan for Q2\n  full scan")
        report = compare_snapshots(baseline_snapshot, candidate)
        assert not report["ok"]
        [entry] = report["plan_regressions"]
        assert entry["query"] == "Q2"
        assert entry["kind"] == "plan-changed"
        assert "-  index lookup" in entry["explain_diff"]
        assert "+  full scan" in entry["explain_diff"]

    def test_plan_regressions_enforced_across_hosts(self, baseline_snapshot):
        """Snapshots record no host facts: a baseline collected on another
        machine, at another time, gates exactly like a local one."""
        candidate = _clone(baseline_snapshot, "ci-runner")
        candidate["meta"]["created"] = "2026-06-01T12:00:00Z"
        candidate["cells"][0]["queries"][0] = make_row(
            "Q1", explain="plan for Q1\n  different")
        report = compare_snapshots(baseline_snapshot, candidate)
        assert not report["ok"]
        assert report["plan_regressions"][0]["query"] == "Q1"

    def test_changed_cardinality_is_results_changed(self, baseline_snapshot):
        candidate = _clone(baseline_snapshot)
        candidate["cells"][0]["queries"][0]["items"] = 99
        report = compare_snapshots(baseline_snapshot, candidate)
        assert not report["ok"]
        [entry] = report["plan_regressions"]
        assert entry["kind"] == "results-changed"
        assert entry["baseline_items"] == 3
        assert entry["candidate_items"] == 99


class TestCoverage:
    def test_missing_query_is_a_gap_not_a_failure(self, baseline_snapshot):
        candidate = _clone(baseline_snapshot)
        del candidate["cells"][0]["queries"][1]
        report = compare_snapshots(baseline_snapshot, candidate)
        assert report["ok"]
        [gap] = report["missing"]
        assert gap["query"] == "Q2"
        assert gap["missing_from"] == "candidate"

    def test_missing_cell_is_a_gap(self, baseline_snapshot):
        candidate = _clone(baseline_snapshot)
        candidate["cells"].append(make_cell([make_row("Q1")], scale=8))
        report = compare_snapshots(baseline_snapshot, candidate)
        assert report["ok"]
        [gap] = report["missing"]
        assert (gap["scale"], gap["missing_from"]) == (8, "baseline")

    def test_disjoint_scales_compare_nothing_and_fail(self,
                                                       baseline_snapshot):
        """A candidate collected at another scale shares no cell with the
        baseline: every cell is a gap, and a report that compared no
        query must not pass a gate."""
        candidate = _clone(baseline_snapshot)
        candidate["cells"][0]["scale"] = 4
        report = compare_snapshots(baseline_snapshot, candidate)
        assert report["compared"] == {"cells": 0, "queries": 0}
        assert report["plan_regressions"] == []
        assert not report["ok"]
        assert {(gap["scale"], gap["missing_from"])
                for gap in report["missing"]} \
            == {(1, "candidate"), (4, "baseline")}
        text = render_report(report)
        assert "NOTHING COMPARED" in text
        assert "verdict: FAIL" in text


class TestRendering:
    def test_clean_report_renders_ok(self, baseline_snapshot):
        text = render_report(compare_snapshots(
            baseline_snapshot, _clone(baseline_snapshot)))
        assert "verdict: OK" in text
        assert "compared 2 queries across 1 cell(s)" in text

    def test_failing_report_names_the_query(self, baseline_snapshot):
        candidate = _clone(baseline_snapshot)
        candidate["cells"][0]["queries"][1] = make_row(
            "Q2", explain="plan for Q2\n  full scan")
        text = render_report(compare_snapshots(baseline_snapshot, candidate))
        assert "verdict: FAIL" in text
        assert "PLAN REGRESSIONS (1):" in text
        assert "Q2" in text
        assert "+  full scan" in text
