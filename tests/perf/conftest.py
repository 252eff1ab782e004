"""Builders for hand-made perf snapshots.

The report math is pure dict-in dict-out, so the diff-detection tests
construct tiny synthetic snapshots with exactly the plan shapes they
need instead of collecting anything.  Every helper returns documents
that pass :func:`repro.perf.schema.validate_document` — the tests assert
so.
"""

import hashlib

import pytest


def hexdigest(seed: str) -> str:
    """A deterministic sha256 hex string derived from *seed*."""
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()


def make_row(query="Q1", *, explain=None, items=3, perturbed=False):
    """One per-query snapshot row."""
    explain = explain if explain is not None \
        else f"plan for {query}\n  scan docs"
    return {
        "query": query,
        "perturbed": perturbed,
        "plan_fingerprint": hexdigest(f"plan:{explain}"),
        "explain_sha256": hexdigest(f"explain:{explain}"),
        "explain": explain,
        "rewrites": {},
        "costed": True,
        "decisions": {},
        "operators": [],
        "items": items,
    }


def make_cell(rows, *, scale=1):
    return {
        "scale": scale,
        "content_fingerprint": hexdigest(f"content:scale={scale}"),
        "queries": rows,
        "caches": {
            "plan_cache": {"hits": 12, "misses": 12, "lookups": 24},
            "result_cache": {"hits": 12, "misses": 12, "lookups": 24,
                             "served": 24},
        },
    }


def make_snapshot(cells, *, label="fixture", perturbed=()):
    return {
        "schema": "thalia-perf",
        "schema_version": 1,
        "kind": "snapshot",
        "meta": {
            "label": label,
            "created": "2026-01-01T00:00:00Z",
            "seed": 2004,
            "queries": len(cells[0]["queries"]) if cells else 0,
            "perturbed": sorted(perturbed),
            "argv_hint": "tests",
        },
        "cells": cells,
    }


@pytest.fixture
def baseline_snapshot():
    """Two queries, one cell — the canonical fixture baseline."""
    return make_snapshot([make_cell([
        make_row("Q1"),
        make_row("Q2", explain="plan for Q2\n  index lookup"),
    ])])
