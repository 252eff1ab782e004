"""The versioned on-disk formats of the perf framework.

Every JSON document the framework reads or writes carries the same
three-field header::

    {"schema": "thalia-perf", "schema_version": 1, "kind": "...", ...}

Two kinds exist:

* ``snapshot`` — what ``thalia perf collect`` writes: per
  (query × scale × workers) plan explains, fingerprints, timing
  statistics and cache counters.  Fully validated field by field.
* ``report`` — what ``thalia perf report`` emits.

A document without the header fails validation.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_NAME = "thalia-perf"
SCHEMA_VERSION = 1

KIND_SNAPSHOT = "snapshot"
KIND_REPORT = "report"

_KINDS = (KIND_SNAPSHOT, KIND_REPORT)

#: Statistics every timing block must provide, in canonical order.
STAT_KEYS = ("min", "median", "p95", "mean")


class SchemaError(ValueError):
    """A perf document failed validation; ``problems`` lists why."""

    def __init__(self, source: str, problems: list[str]) -> None:
        self.source = source
        self.problems = list(problems)
        preview = "; ".join(self.problems[:3])
        more = f" (+{len(self.problems) - 3} more)" \
            if len(self.problems) > 3 else ""
        super().__init__(f"{source}: {preview}{more}")


# --------------------------------------------------------------------------- #
# Stamping
# --------------------------------------------------------------------------- #

def is_stamped(doc: object) -> bool:
    """True when *doc* carries the ``thalia-perf`` envelope."""
    return isinstance(doc, dict) and doc.get("schema") == SCHEMA_NAME


def stamp(kind: str, payload: dict) -> dict:
    """A new document: envelope header first, then *payload*'s keys."""
    if kind not in _KINDS:
        raise ValueError(f"unknown perf document kind: {kind!r}")
    doc = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
    }
    for key, value in payload.items():
        if key not in doc:
            doc[key] = value
    return doc


def load_document(path: str | Path, expect_kind: str | None = None) -> dict:
    """Read and validate one perf JSON document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SchemaError(str(path), [f"unreadable: {exc}"]) from exc
    problems = validate_document(doc)
    if problems:
        raise SchemaError(str(path), problems)
    if expect_kind is not None and doc["kind"] != expect_kind:
        raise SchemaError(
            str(path),
            [f"expected a {expect_kind!r} document, got {doc['kind']!r}"])
    return doc


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #

def validate_document(doc: object) -> list[str]:
    """Problems with *doc*; empty means valid.

    Snapshots are validated structurally all the way down — they are
    the format the CI gate trusts; reports need their summaries, lists
    and verdict.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA_NAME:
        problems.append(f"schema: expected {SCHEMA_NAME!r}, "
                        f"got {doc.get('schema')!r}")
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        problems.append("schema_version: missing or not an integer")
    elif version > SCHEMA_VERSION:
        problems.append(f"schema_version: {version} is newer than this "
                        f"reader (max {SCHEMA_VERSION})")
    kind = doc.get("kind")
    if kind not in _KINDS:
        problems.append(f"kind: expected one of {_KINDS}, got {kind!r}")
        return problems
    if problems:
        return problems
    if kind == KIND_SNAPSHOT:
        problems.extend(_validate_snapshot(doc))
    else:
        problems.extend(_validate_report(doc))
    return problems


def _check(problems: list[str], condition: bool, message: str) -> bool:
    if not condition:
        problems.append(message)
    return condition


def _is_int(value: object, minimum: int = 0) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= minimum


def _is_hex(value: object) -> bool:
    return isinstance(value, str) and len(value) == 64 \
        and all(c in "0123456789abcdef" for c in value)


def _validate_stats_block(block: object, where: str,
                          problems: list[str]) -> None:
    if not _check(problems, isinstance(block, dict),
                  f"{where}: not an object"):
        return
    for key in STAT_KEYS:
        value = block.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value < 0:
            problems.append(f"{where}.{key}: missing or negative")
    if all(isinstance(block.get(k), (int, float)) for k in
           ("min", "median", "p95")):
        if not block["min"] <= block["median"] <= block["p95"]:
            problems.append(f"{where}: expected min <= median <= p95")


def _validate_snapshot(doc: dict) -> list[str]:
    problems: list[str] = []
    meta = doc.get("meta")
    if _check(problems, isinstance(meta, dict), "meta: missing"):
        for key in ("label", "created"):
            _check(problems, isinstance(meta.get(key), str),
                   f"meta.{key}: missing or not a string")
        for key in ("seed", "repeats", "warmup"):
            _check(problems, _is_int(meta.get(key)),
                   f"meta.{key}: missing or not a non-negative integer")
        _check(problems, _is_int(meta.get("repeats"), minimum=1),
               "meta.repeats: must be >= 1")
        host = meta.get("host")
        if _check(problems, isinstance(host, dict), "meta.host: missing"):
            for key in ("id", "platform", "python"):
                _check(problems, isinstance(host.get(key), str),
                       f"meta.host.{key}: missing or not a string")
        _check(problems, isinstance(meta.get("perturbed"), list),
               "meta.perturbed: missing or not a list")
    cells = doc.get("cells")
    if not _check(problems, isinstance(cells, list) and cells,
                  "cells: missing or empty"):
        return problems
    seen_cells = set()
    for position, cell in enumerate(cells):
        where = f"cells[{position}]"
        if not _check(problems, isinstance(cell, dict),
                      f"{where}: not an object"):
            continue
        for key in ("scale", "workers"):
            _check(problems, _is_int(cell.get(key), minimum=1),
                   f"{where}.{key}: missing or not a positive integer")
        _check(problems, _is_hex(cell.get("content_fingerprint")),
               f"{where}.content_fingerprint: not a sha256 hex digest")
        if cell.get("scenario") is not None:
            _check(problems, _is_hex(cell.get("scenario")),
                   f"{where}.scenario: not a pack fingerprint "
                   f"(sha256 hex digest)")
        # Scenario cells (replays of a generated pack) coexist with the
        # canonical cell at the same (scale, workers); the pack
        # fingerprint is part of the cell's identity.
        coords = (cell.get("scale"), cell.get("workers"),
                  cell.get("scenario"))
        if coords in seen_cells:
            problems.append(
                f"{where}: duplicate cell "
                f"scale={coords[0]} workers={coords[1]}"
                + (f" scenario={coords[2]}" if coords[2] else ""))
        seen_cells.add(coords)
        caches = cell.get("caches")
        if _check(problems, isinstance(caches, dict),
                  f"{where}.caches: missing"):
            for name in ("plan_cache", "result_cache"):
                _check(problems, isinstance(caches.get(name), dict),
                       f"{where}.caches.{name}: missing")
        queries = cell.get("queries")
        if not _check(problems, isinstance(queries, list) and queries,
                      f"{where}.queries: missing or empty"):
            continue
        for qpos, row in enumerate(queries):
            qwhere = f"{where}.queries[{qpos}]"
            if not _check(problems, isinstance(row, dict),
                          f"{qwhere}: not an object"):
                continue
            _check(problems, isinstance(row.get("query"), str)
                   and row.get("query"),
                   f"{qwhere}.query: missing label")
            for key in ("plan_fingerprint", "explain_sha256"):
                _check(problems, _is_hex(row.get(key)),
                       f"{qwhere}.{key}: not a sha256 hex digest")
            _check(problems, isinstance(row.get("explain"), str)
                   and row.get("explain"),
                   f"{qwhere}.explain: missing explain text")
            _check(problems, _is_int(row.get("items")),
                   f"{qwhere}.items: missing or negative")
            _check(problems, isinstance(row.get("rewrites"), dict),
                   f"{qwhere}.rewrites: missing")
            # Planner-era additions are optional (snapshots written
            # before the cost-based planner carry none of them; same
            # schema version, following the scenario-cell precedent) but
            # must be well-typed when present.
            if "operators" in row:
                if _check(problems, isinstance(row["operators"], list),
                          f"{qwhere}.operators: not a list"):
                    for opos, op_row in enumerate(row["operators"]):
                        _check(problems, isinstance(op_row, dict),
                               f"{qwhere}.operators[{opos}]: "
                               f"not an object")
            if "costed" in row:
                _check(problems, isinstance(row["costed"], bool),
                       f"{qwhere}.costed: not a boolean")
            if "decisions" in row:
                _check(problems, isinstance(row["decisions"], dict),
                       f"{qwhere}.decisions: not an object")
            _validate_stats_block(row.get("wall_ns"),
                                  f"{qwhere}.wall_ns", problems)
            _validate_stats_block(row.get("cpu_ns"),
                                  f"{qwhere}.cpu_ns", problems)
    return problems


def _validate_report(doc: dict) -> list[str]:
    problems: list[str] = []
    for key in ("baseline", "candidate"):
        _check(problems, isinstance(doc.get(key), dict),
               f"{key}: missing snapshot summary")
    for key in ("plan_regressions", "timing_regressions", "improvements"):
        _check(problems, isinstance(doc.get(key), list),
               f"{key}: missing list")
    # Reports written before the cost gate have no cost_regressions
    # list; when present it must be a list.
    if "cost_regressions" in doc:
        _check(problems, isinstance(doc["cost_regressions"], list),
               "cost_regressions: not a list")
    _check(problems, isinstance(doc.get("ok"), bool),
           "ok: missing verdict")
    return problems


# --------------------------------------------------------------------------- #
# Summaries (what /api/stats links)
# --------------------------------------------------------------------------- #

def summarize_snapshot(doc: dict, path: str | Path | None = None) -> dict:
    """A compact description of a snapshot, for ``/api/stats``."""
    meta = doc.get("meta", {})
    return {
        "path": str(path) if path is not None else None,
        "schema_version": doc.get("schema_version"),
        "label": meta.get("label"),
        "created": meta.get("created"),
        "host_id": meta.get("host", {}).get("id"),
        "seed": meta.get("seed"),
        "repeats": meta.get("repeats"),
        "cells": [
            {
                "scale": cell.get("scale"),
                "workers": cell.get("workers"),
                "queries": len(cell.get("queries", [])),
                **({"scenario": cell["scenario"]}
                   if cell.get("scenario") else {}),
            }
            for cell in doc.get("cells", [])
        ],
    }


__all__ = [
    "KIND_REPORT",
    "KIND_SNAPSHOT",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "STAT_KEYS",
    "SchemaError",
    "is_stamped",
    "load_document",
    "stamp",
    "summarize_snapshot",
    "validate_document",
]
