"""The real collector: schema-valid output, self-comparison, perturb,
and the committed baseline gate."""

from pathlib import Path

import pytest

from repro.perf.collect import collect_snapshot
from repro.perf.report import compare_snapshots
from repro.perf.schema import KIND_SNAPSHOT, load_document, validate_document

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def collected():
    """One cheap real collection shared by the whole module."""
    return collect_snapshot(scales=(1,), label="test-collect")


class TestCollect:
    def test_snapshot_validates(self, collected):
        assert validate_document(collected) == []

    def test_covers_all_twelve_queries(self, collected):
        [cell] = collected["cells"]
        assert [row["query"] for row in cell["queries"]] \
            == [f"Q{n}" for n in range(1, 13)]
        assert cell["scale"] == 1
        assert not any(row["perturbed"] for row in cell["queries"])

    def test_cache_counters_recorded(self, collected):
        caches = collected["cells"][0]["caches"]
        # One miss then one steady-state hit per query.
        assert caches["plan_cache"]["misses"] == 12
        assert caches["plan_cache"]["hits"] == 12
        assert caches["result_cache"]["misses"] == 12
        assert caches["result_cache"]["hits"] == 12

    def test_self_report_is_clean(self, collected):
        """collect → report(A, A): zero regressions."""
        report = compare_snapshots(collected, collected)
        assert report["ok"]
        assert report["plan_regressions"] == []
        assert report["cost_regressions"] == []

    def test_unknown_perturb_target_rejected(self):
        with pytest.raises(ValueError, match="Q99"):
            collect_snapshot(perturb=("Q99",))


class TestPerturb:
    def test_perturbed_query_changes_plan_not_results(self, collected):
        perturbed = collect_snapshot(scales=(1,), label="perturbed",
                                     perturb=("Q5",))
        assert validate_document(perturbed) == []
        assert perturbed["meta"]["perturbed"] == ["Q5"]
        rows = {row["query"]: row
                for row in perturbed["cells"][0]["queries"]}
        assert rows["Q5"]["perturbed"]
        assert "perturbed: index-paths disabled" in rows["Q5"]["explain"]

        report = compare_snapshots(collected, perturbed)
        assert not report["ok"]
        plan_hits = {entry["query"]
                     for entry in report["plan_regressions"]}
        assert plan_hits == {"Q5"}
        [entry] = [e for e in report["plan_regressions"]
                   if e["kind"] == "plan-changed"]
        assert "perturbed: index-paths disabled" in entry["explain_diff"]
        # Perturbation changes *how*, never *what*: no results-changed
        # finding, so cardinalities agreed everywhere.
        assert all(e["kind"] == "plan-changed"
                   for e in report["plan_regressions"])


class TestCommittedBaseline:
    """The CI plan gate, run here: a fresh scale-4 collection against the
    committed ``PERF_BASELINE.json``."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return load_document(REPO_ROOT / "PERF_BASELINE.json",
                             expect_kind=KIND_SNAPSHOT)

    def test_head_matches_the_baseline(self, baseline):
        report = compare_snapshots(
            baseline, collect_snapshot(scales=(4,), label="head"))
        assert report["ok"], report
        assert report["compared"]["queries"] == 12
        assert report["missing"] == []

    def test_perturbed_plan_fails_naming_q5(self, baseline):
        report = compare_snapshots(baseline, collect_snapshot(
            scales=(4,), label="perturbed", perturb=("Q5",)))
        assert not report["ok"]
        assert [(entry["query"], entry["kind"])
                for entry in report["plan_regressions"]] \
            == [("Q5", "plan-changed")]

    def test_perturbed_estimates_fail_naming_q5(self, baseline):
        report = compare_snapshots(baseline, collect_snapshot(
            scales=(4,), label="est-perturbed", perturb_estimates=("Q5",)))
        assert not report["ok"]
        assert [(entry["query"], entry["kind"])
                for entry in report["cost_regressions"]] \
            == [("Q5", "estimate-error")]
