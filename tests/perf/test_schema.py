"""Envelope, validation and the repo's own trajectory files."""

import json
from pathlib import Path

import pytest

from repro.perf.schema import (
    KIND_REPORT,
    KIND_SNAPSHOT,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SchemaError,
    is_stamped,
    load_document,
    stamp,
    summarize_snapshot,
    validate_document,
)

from .conftest import make_cell, make_row, make_snapshot

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestStamp:
    def test_header_comes_first(self):
        doc = stamp(KIND_REPORT, {"ok": True, "data": 1})
        assert list(doc)[:3] == ["schema", "schema_version", "kind"]
        assert doc["schema"] == SCHEMA_NAME
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == KIND_REPORT
        assert doc["data"] == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            stamp("trace", {})

    def test_is_stamped(self):
        assert is_stamped(stamp(KIND_REPORT, {}))
        assert not is_stamped({"ok": True})
        assert not is_stamped(["not", "a", "dict"])


class TestValidation:
    def test_fixture_snapshot_is_valid(self, baseline_snapshot):
        assert validate_document(baseline_snapshot) == []

    def test_wrong_schema_name(self, baseline_snapshot):
        baseline_snapshot["schema"] = "other"
        assert any("schema:" in p
                   for p in validate_document(baseline_snapshot))

    def test_newer_version_rejected(self, baseline_snapshot):
        baseline_snapshot["schema_version"] = SCHEMA_VERSION + 1
        assert any("newer than this reader" in p
                   for p in validate_document(baseline_snapshot))

    def test_unknown_kind(self, baseline_snapshot):
        baseline_snapshot["kind"] = "trace"
        assert any("kind:" in p
                   for p in validate_document(baseline_snapshot))

    def test_snapshot_requires_cells(self, baseline_snapshot):
        baseline_snapshot["cells"] = []
        assert any("cells: missing or empty" in p
                   for p in validate_document(baseline_snapshot))

    def test_duplicate_cells_flagged(self):
        cell = make_cell([make_row("Q1")])
        doc = make_snapshot([cell, dict(cell)])
        assert any("duplicate cell" in p for p in validate_document(doc))

    def test_bad_fingerprint_flagged(self):
        doc = make_snapshot([make_cell([make_row("Q1")])])
        doc["cells"][0]["queries"][0]["plan_fingerprint"] = "beef"
        assert any("plan_fingerprint" in p for p in validate_document(doc))

    def test_stat_ordering_enforced(self):
        doc = make_snapshot([make_cell([
            make_row("Q1", wall=(300_000, 200_000, 100_000))])])
        assert any("min <= median <= p95" in p
                   for p in validate_document(doc))

    def test_report_needs_a_verdict(self):
        report = {"baseline": {}, "candidate": {}, "plan_regressions": [],
                  "timing_regressions": [], "improvements": [], "ok": True}
        assert validate_document(stamp(KIND_REPORT, report)) == []
        del report["ok"]
        assert any("ok:" in p
                   for p in validate_document(stamp(KIND_REPORT, report)))


class TestLoadDocument:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_document(tmp_path / "absent.json")

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_document(path)

    def test_kind_mismatch(self, tmp_path, baseline_snapshot):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(baseline_snapshot))
        with pytest.raises(SchemaError, match="expected a 'report'"):
            load_document(path, expect_kind=KIND_REPORT)

    def test_unstamped_document_rejected(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"ok": True, "cells": []}))
        with pytest.raises(SchemaError, match="schema:"):
            load_document(path)

    def test_valid_snapshot_loads(self, tmp_path, baseline_snapshot):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(baseline_snapshot))
        doc = load_document(path, expect_kind=KIND_SNAPSHOT)
        assert doc["meta"]["label"] == "fixture"


class TestRepoTrajectoryFiles:
    """The committed perf baseline validates."""

    def test_committed_baseline_validates(self):
        doc = load_document(REPO_ROOT / "PERF_BASELINE.json",
                            expect_kind=KIND_SNAPSHOT)
        assert doc["meta"]["queries"] == 12
        assert doc["cells"]


class TestSummaries:
    def test_summarize_snapshot(self, baseline_snapshot):
        summary = summarize_snapshot(baseline_snapshot, "perf.json")
        assert summary["path"] == "perf.json"
        assert summary["label"] == "fixture"
        assert summary["cells"] == [
            {"scale": 1, "workers": 1, "queries": 2}]
