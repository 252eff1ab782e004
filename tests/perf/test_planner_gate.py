"""Planner-era perf cells: per-operator counters in snapshots, and the
cost gate flagging an injected cardinality-estimate regression."""

import pytest

from repro.perf.collect import collect_snapshot
from repro.perf.report import (
    Q_ERROR_FLOOR,
    compare_snapshots,
    render_report,
)
from repro.perf.schema import validate_document


@pytest.fixture(scope="module")
def clean():
    return collect_snapshot(scales=(1,), label="planner-clean")


@pytest.fixture(scope="module")
def estimate_perturbed():
    return collect_snapshot(scales=(1,), label="planner-perturbed",
                            perturb_estimates=("Q5",))


class TestOperatorCells:
    def test_snapshot_still_validates(self, clean):
        assert validate_document(clean) == []

    def test_every_row_is_costed_with_operators(self, clean):
        [cell] = clean["cells"]
        for row in cell["queries"]:
            assert row["costed"] is True
            assert row["operators"], row["query"]
            assert row["decisions"]["steps-costed"] >= 1

    def test_operator_rows_pair_estimates_with_actuals(self, clean):
        [cell] = clean["cells"]
        for row in cell["queries"]:
            steps = [op for op in row["operators"]
                     if "strategy" in op]
            assert steps, row["query"]
            for op in steps:
                assert op["est_rows"] >= 0
                assert op["actual_rows"] >= 0
                assert op["calls"] >= 1

    def test_meta_records_the_injection(self, estimate_perturbed):
        assert estimate_perturbed["meta"]["estimate_perturbed"] == ["Q5"]
        assert validate_document(estimate_perturbed) == []

    def test_unknown_injection_target_rejected(self):
        with pytest.raises(ValueError):
            collect_snapshot(scales=(1,), label="bad",
                             perturb_estimates=("Q99",))


class TestCostGate:
    def test_self_compare_is_clean(self, clean):
        report = compare_snapshots(clean, clean)
        assert report["ok"]
        assert report["cost_regressions"] == []

    def test_injected_estimate_regression_is_flagged(
            self, clean, estimate_perturbed):
        """Answers are untouched by the injection, so only the planner
        columns can catch it — and they must."""
        report = compare_snapshots(clean, estimate_perturbed)
        assert not report["ok"]
        flagged = [entry for entry in report["cost_regressions"]
                   if entry["query"] == "Q5"]
        assert flagged, report["cost_regressions"]
        entry = flagged[0]
        assert entry["kind"] == "estimate-error"
        assert entry["candidate_q_error"] > Q_ERROR_FLOOR
        assert entry["candidate_q_error"] > entry["baseline_q_error"]
        # Results must NOT have changed — that is the point of the
        # injection: wrong estimates, right answers.
        assert not any(reg["kind"] == "results-changed"
                       for reg in report["plan_regressions"])
        rendered = render_report(report)
        assert "COST REGRESSIONS" in rendered
        assert "Q5" in rendered

    def test_other_queries_unaffected(self, clean, estimate_perturbed):
        report = compare_snapshots(clean, estimate_perturbed)
        assert all(entry["query"] == "Q5"
                   for entry in report["cost_regressions"])
        assert all(entry["query"] == "Q5"
                   for entry in report["plan_regressions"])
