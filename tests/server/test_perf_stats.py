"""The ``perf`` block of ``/api/stats``: last committed snapshot link."""

import hashlib
import json
import os

import pytest

from repro.server import ThaliaApp
from repro.server.router import Request


def _hex(seed):
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()


def tiny_snapshot(label="committed"):
    """The smallest snapshot that passes full schema validation."""
    return {
        "schema": "thalia-perf", "schema_version": 1, "kind": "snapshot",
        "meta": {
            "label": label, "created": "2026-01-01T00:00:00Z",
            "seed": 2004, "queries": 1,
            "perturbed": [], "argv_hint": "tests",
        },
        "cells": [{
            "scale": 1,
            "content_fingerprint": _hex("content"),
            "queries": [{
                "query": "Q1", "perturbed": False,
                "plan_fingerprint": _hex("plan"),
                "explain_sha256": _hex("explain"),
                "explain": "plan for Q1", "rewrites": {}, "items": 3,
                "costed": True, "decisions": {}, "operators": [],
            }],
            "caches": {"plan_cache": {}, "result_cache": {}},
        }],
    }


def stats(app):
    response = app.handle(Request(method="GET", path="/api/stats"))
    assert response.status == 200
    return json.loads(response.body.decode("utf-8"))


@pytest.fixture
def make_app(paper_testbed, tmp_path):
    apps = []

    def build(perf_baseline):
        app = ThaliaApp(testbed=paper_testbed,
                        scores_path=tmp_path / "roll.jsonl",
                        perf_baseline=perf_baseline)
        apps.append(app)
        return app

    yield build
    for app in apps:
        app.close()


class TestPerfBlock:
    def test_missing_snapshot_reports_reason(self, make_app, tmp_path):
        app = make_app(tmp_path / "absent.json")
        perf = stats(app)["perf"]
        assert perf["baseline"] is None
        assert "absent.json" in perf["reason"]

    def test_valid_snapshot_is_summarized(self, make_app, tmp_path):
        path = tmp_path / "PERF_BASELINE.json"
        snapshot = tiny_snapshot(label="committed")
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        perf = stats(make_app(path))["perf"]
        assert perf["baseline"] == str(path)
        assert perf == {
            "baseline": str(path), "path": str(path), "schema_version": 1,
            "label": "committed", "created": "2026-01-01T00:00:00Z",
            "seed": 2004, "cells": [{"scale": 1, "queries": 1}],
        }

    def test_invalid_snapshot_flagged_not_fatal(self, make_app, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        perf = stats(make_app(path))["perf"]
        assert perf["invalid"] is True
        assert perf["baseline"] == str(path)

    def test_summary_tracks_file_changes(self, make_app, tmp_path):
        path = tmp_path / "PERF_BASELINE.json"
        snapshot = tiny_snapshot(label="v1")
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        app = make_app(path)
        assert stats(app)["perf"]["label"] == "v1"

        snapshot["meta"]["label"] = "v2"
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        # Force a visibly newer mtime so the memo must refresh.
        info = path.stat()
        os.utime(path, (info.st_atime, info.st_mtime + 10))
        assert stats(app)["perf"]["label"] == "v2"
