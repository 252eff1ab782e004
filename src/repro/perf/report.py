"""``thalia perf report`` — diff two snapshots into a regression report.

Two regression families, both exact and machine-independent, both
always enforced:

* **Plan regressions** — the candidate compiled a *different plan* for
  a query the baseline knew: ``plan_fingerprint`` or ``explain_sha256``
  changed, or the result cardinality moved.  The report carries a
  unified diff of the two explain trees so the offending operator
  choice is visible in the CI log.
* **Cost regressions** — the planner's cardinality estimates got worse:
  a query row's worst per-operator q-error (``max(est/act, act/est)``
  over the ``operators`` counters an analyzed run recorded) exceeds
  both an absolute gate (:data:`Q_ERROR_FLOOR`) and
  :data:`Q_ERROR_GROWTH` × the baseline's worst q-error.  Estimates are
  pure functions of the statistics and actuals are row counts.

A query or cell present on one side only is a *coverage gap*, listed
but not failing — unless no query is present on both sides, in which
case the report compared nothing and fails.

``compare_snapshots`` returns the machine-readable report (itself a
stamped ``thalia-perf`` document); :func:`render_report` renders the
human table.
"""

from __future__ import annotations

import difflib

from ..xquery.cost import q_error
from .schema import KIND_REPORT, stamp

#: A candidate row's worst q-error below this never flags: small-result
#: queries legitimately estimate 4 rows and see 1.
Q_ERROR_FLOOR = 4.0
#: ...and it must also be at least this factor worse than the
#: baseline's worst q-error for the same row.
Q_ERROR_GROWTH = 2.0


def _explain_diff(base_row: dict, cand_row: dict) -> str:
    diff = difflib.unified_diff(
        base_row.get("explain", "").splitlines(),
        cand_row.get("explain", "").splitlines(),
        fromfile="baseline", tofile="candidate", lineterm="")
    return "\n".join(diff)


def _worst_q_error(row: dict) -> tuple[float, dict | None]:
    """The row's worst per-operator cardinality-estimate error, with
    the offending operator; ``(0.0, None)`` when the row carries no
    estimate/actual pairs."""
    worst = 0.0
    worst_op = None
    for op_row in row.get("operators") or ():
        est = op_row.get("est_rows")
        actual = op_row.get("actual_rows")
        if est is None or actual is None:
            continue
        error = q_error(est, actual)
        if error > worst:
            worst = error
            worst_op = op_row
    return worst, worst_op


def _cell_key(cell: dict) -> tuple:
    """Cell identity: (scale, scenario pack fingerprint).

    Canonical cells carry no ``scenario`` field (it normalizes to ""),
    so a scenario cell never collides with the canonical cell at the
    same scale.
    """
    return (cell["scale"], cell.get("scenario") or "")


def _snapshot_ref(doc: dict) -> dict:
    meta = doc.get("meta", {})
    return {
        "label": meta.get("label"),
        "created": meta.get("created"),
        "perturbed": meta.get("perturbed", []),
    }


def compare_snapshots(baseline: dict, candidate: dict) -> dict:
    """The regression report for *candidate* compared against *baseline*."""
    base_cells = {_cell_key(cell): cell
                  for cell in baseline.get("cells", [])}
    cand_cells = {_cell_key(cell): cell
                  for cell in candidate.get("cells", [])}

    plan_regressions: list[dict] = []
    cost_regressions: list[dict] = []
    missing: list[dict] = []
    compared_cells = 0
    compared_queries = 0

    for coords in sorted(base_cells.keys() | cand_cells.keys()):
        scale, scenario = coords
        cell_ref = {"scale": scale}
        if scenario:
            cell_ref["scenario"] = scenario
        base_cell = base_cells.get(coords)
        cand_cell = cand_cells.get(coords)
        if base_cell is None or cand_cell is None:
            missing.append({
                **cell_ref,
                "missing_from": "baseline" if base_cell is None
                else "candidate",
            })
            continue
        compared_cells += 1
        base_rows = {row["query"]: row for row in base_cell["queries"]}
        cand_rows = {row["query"]: row for row in cand_cell["queries"]}
        for query in sorted(base_rows.keys() | cand_rows.keys(),
                            key=lambda q: (len(q), q)):
            base_row = base_rows.get(query)
            cand_row = cand_rows.get(query)
            if base_row is None or cand_row is None:
                missing.append({
                    **cell_ref, "query": query,
                    "missing_from": "baseline" if base_row is None
                    else "candidate",
                })
                continue
            compared_queries += 1
            where = {**cell_ref, "query": query}

            plan_changed = (
                base_row["plan_fingerprint"] != cand_row["plan_fingerprint"]
                or base_row["explain_sha256"] != cand_row["explain_sha256"])
            if plan_changed:
                plan_regressions.append({
                    **where,
                    "kind": "plan-changed",
                    "baseline_plan_fingerprint":
                        base_row["plan_fingerprint"],
                    "candidate_plan_fingerprint":
                        cand_row["plan_fingerprint"],
                    "baseline_explain_sha256": base_row["explain_sha256"],
                    "candidate_explain_sha256": cand_row["explain_sha256"],
                    "explain_diff": _explain_diff(base_row, cand_row),
                })
            if base_row["items"] != cand_row["items"]:
                plan_regressions.append({
                    **where,
                    "kind": "results-changed",
                    "baseline_items": base_row["items"],
                    "candidate_items": cand_row["items"],
                })

            cand_q, cand_op = _worst_q_error(cand_row)
            if cand_op is not None and cand_q > Q_ERROR_FLOOR:
                base_q, _base_op = _worst_q_error(base_row)
                # Only gate rows the baseline also instrumented — and
                # only when the error actually *grew*; a noisy estimate
                # both snapshots share is not a regression.
                if base_q and cand_q > base_q * Q_ERROR_GROWTH:
                    cost_regressions.append({
                        **where,
                        "kind": "estimate-error",
                        "baseline_q_error": round(base_q, 2),
                        "candidate_q_error": round(cand_q, 2),
                        "operator": cand_op.get("label"),
                        "operator_path": cand_op.get("path"),
                        "est_rows": cand_op.get("est_rows"),
                        "actual_rows": cand_op.get("actual_rows"),
                    })

    ok = compared_queries > 0 and not plan_regressions \
        and not cost_regressions
    return stamp(KIND_REPORT, {
        "baseline": _snapshot_ref(baseline),
        "candidate": _snapshot_ref(candidate),
        "compared": {"cells": compared_cells, "queries": compared_queries},
        "plan_regressions": plan_regressions,
        "cost_regressions": cost_regressions,
        "missing": missing,
        "ok": ok,
    })


# --------------------------------------------------------------------------- #
# Human rendering
# --------------------------------------------------------------------------- #

def _cell_label(entry: dict) -> str:
    label = f"scale={entry['scale']}"
    if entry.get("scenario"):
        label += f" scenario={entry['scenario'][:12]}"
    return label


def render_report(report: dict) -> str:
    """The regression report as a terminal table."""
    lines = []
    base, cand = report["baseline"], report["candidate"]
    lines.append(f"perf report: {base.get('label')} -> {cand.get('label')}")
    compared = report["compared"]
    lines.append(f"  compared {compared['queries']} queries across "
                 f"{compared['cells']} cell(s)")
    if not compared["queries"]:
        lines.append("")
        lines.append("NOTHING COMPARED: no query appears in a cell of "
                     "both snapshots (check --scales and --scenarios)")

    plan_regressions = report["plan_regressions"]
    if plan_regressions:
        lines.append("")
        lines.append(f"PLAN REGRESSIONS ({len(plan_regressions)}):")
        for entry in plan_regressions:
            lines.append(f"  {entry['query']} [{_cell_label(entry)}]: "
                         f"{entry['kind']}")
            diff = entry.get("explain_diff")
            if diff:
                lines.extend("    " + line for line in diff.splitlines())
            if entry["kind"] == "results-changed":
                lines.append(f"    items {entry['baseline_items']} -> "
                             f"{entry['candidate_items']}")
    cost_regressions = report["cost_regressions"]
    if cost_regressions:
        lines.append("")
        lines.append(f"COST REGRESSIONS ({len(cost_regressions)}):")
        for entry in cost_regressions:
            lines.append(
                f"  {entry['query']} [{_cell_label(entry)}]: worst q-error "
                f"{entry['baseline_q_error']} -> "
                f"{entry['candidate_q_error']}")
            lines.append(
                f"    at {entry.get('operator')}: est "
                f"{entry.get('est_rows')} rows, actual "
                f"{entry.get('actual_rows')}")
    if report["missing"]:
        lines.append("")
        lines.append(f"coverage gaps ({len(report['missing'])}):")
        for entry in report["missing"]:
            what = entry.get("query", "whole cell")
            lines.append(f"  {_cell_label(entry)} {what}: "
                         f"absent from {entry['missing_from']}")
    lines.append("")
    lines.append("verdict: OK — no regressions" if report["ok"]
                 else "verdict: FAIL")
    return "\n".join(lines)


__all__ = [
    "Q_ERROR_FLOOR",
    "Q_ERROR_GROWTH",
    "compare_snapshots",
    "render_report",
]
