"""Scenario replay in the perf collector: pack-tagged cells."""

import pytest

from repro.perf.collect import collect_snapshot
from repro.perf.report import compare_snapshots
from repro.perf.schema import summarize_snapshot, validate_document
from repro.scenarios import ScenarioSuite, build_pack, write_pack


@pytest.fixture(scope="module")
def pack_dir(tmp_path_factory):
    suite = ScenarioSuite.generate(seed=13, cases=2)
    pack = build_pack(suite, suite.build_testbed())
    directory = tmp_path_factory.mktemp("scenario-pack")
    write_pack(pack, directory)
    return directory, pack.fingerprint


@pytest.fixture(scope="module")
def collected(pack_dir):
    directory, _ = pack_dir
    return collect_snapshot(scales=(1,), label="with-scenarios",
                            scenarios=directory)


class TestScenarioCells:
    def test_snapshot_stays_schema_valid(self, collected):
        """No schema version bump: a pack-tagged snapshot validates
        against the existing perf schema."""
        assert validate_document(collected) == []

    def test_scenario_cell_rides_along(self, collected, pack_dir):
        _, fingerprint = pack_dir
        canonical, scenario = collected["cells"]
        assert "scenario" not in canonical
        assert scenario["scenario"] == fingerprint
        assert [row["query"] for row in scenario["queries"]] == \
            ["S0000", "S0001"]

    def test_summary_names_the_pack(self, collected, pack_dir):
        _, fingerprint = pack_dir
        summary = summarize_snapshot(collected, "inline")
        tagged = [cell for cell in summary["cells"]
                  if cell.get("scenario")]
        assert [cell["scenario"] for cell in tagged] == [fingerprint]

    def test_self_report_keys_cells_by_scenario(self, collected):
        """compare_snapshots must not conflate the canonical scale-1 cell
        with the scenario scale-1 cell."""
        report = compare_snapshots(collected, collected)
        assert report["ok"]
        assert report["compared"]["cells"] == 2
        assert report["missing"] == []

    def test_baseline_without_scenarios_still_compares(self, collected):
        plain = collect_snapshot(scales=(1,), label="plain")
        report = compare_snapshots(plain, collected)
        # The canonical cell matches; the scenario cell is candidate-only,
        # reported as a coverage gap rather than a regression.
        assert report["compared"]["cells"] == 1
        assert report["plan_regressions"] == []
        [gap] = report["missing"]
        assert gap["missing_from"] == "baseline"
        assert gap["scenario"]
