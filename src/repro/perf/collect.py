"""``thalia perf collect`` — snapshot the plans the workload compiles to.

One *cell* per scale tier (plus one per replayed scenario pack); inside
each cell, one row per benchmark query with:

* the compiled plan's :meth:`~repro.xquery.plan.Plan.explain` text,
  its process-stable :attr:`~repro.xquery.plan.Plan.identity`
  (``plan_fingerprint``) and explain hash (``explain_sha256``);
* the result cardinality (``items``);
* per-operator EXPLAIN ANALYZE counters (``operators``): each plan runs
  once analyzed and its flattened explain tree — estimated vs. actual
  rows and calls per operator — rides along in the row, so the
  reporter can flag cardinality-estimate regressions, not just
  plan-shape changes;
* plan-cache and result-cache counters for the cell, collected on
  fresh, private cache instances so numbers are workload-deterministic.

Every recorded field is a pure function of the source tree, the seed
and the scale, so two snapshots compare exactly on any hardware.
Nothing here is timed: end-to-end timing belongs to ``perfbench/``.

Plans are *costed*: statistics are collected per testbed (cached by
content fingerprint) and fed to the planner, so snapshots exercise the
decisions production paths make.  ``perturb_estimates`` names queries
compiled against deliberately wrong (×100) cardinalities — answers stay
identical (samples are untouched) but every estimate is off, which is
the injected regression the reporter must flag.

Results are verified before a row is recorded: every query must return
the same items through the result cache as through a direct
``plan.execute``, and perturbed plans must still produce identical
answers (perturbation may only change *how*, never *what*).
"""

from __future__ import annotations

import os
from datetime import datetime, timezone
from typing import Callable, Iterable, Sequence

from ..catalogs import build_testbed, paper_universities
from ..core import QUERIES
from ..xquery.context import DocumentResolver
from ..xquery.differential import render
from ..xquery.plan import Plan, compile_query
from ..xquery.plan_cache import PlanCache
from ..xquery.results import ResultCache
from ..xquery.stats import collect_statistics
from .schema import KIND_SNAPSHOT, stamp

#: Cardinality multiplier for ``perturb_estimates`` queries: estimates
#: go wrong by ~this factor while answers stay byte-identical.
ESTIMATE_PERTURB_FACTOR = 100


def _operator_rows(plan: Plan) -> list[dict]:
    """The analyzed explain tree flattened into snapshot operator rows.

    One row per operator that carries an estimate or an actual; ``path``
    is the node's position in the explain tree (stable for a given plan
    shape), so baseline and candidate rows line up operator by operator.
    """
    data = plan.explain_data(analyze=True)
    rows: list[dict] = []

    def walk(entry: dict, path: str) -> None:
        estimated = entry.get("estimated")
        actual = entry.get("actual")
        if estimated is not None or actual is not None:
            row: dict = {"path": path, "kind": entry["kind"],
                         "label": entry["label"]}
            if estimated is not None:
                if "est_rows" in estimated:
                    row["est_rows"] = estimated["est_rows"]
                if "strategy" in estimated:
                    row["strategy"] = estimated["strategy"]
            if actual is not None:
                row["actual_rows"] = actual["rows"]
                row["calls"] = actual["calls"]
            rows.append(row)
        for position, child in enumerate(entry.get("children", ())):
            walk(child, f"{path}.{position}")

    walk(data["root"], "0")
    return rows


def collect_snapshot(*, seed: int = 2004,
                     scales: Sequence[int] = (1,),
                     label: str = "",
                     perturb: Iterable[str] = (),
                     perturb_estimates: Iterable[str] = (),
                     scenarios: "str | os.PathLike | None" = None,
                     progress: Callable[[str], None] | None = None) -> dict:
    """Snapshot the twelve-query workload; returns a stamped snapshot.

    ``perturb`` names queries (``"Q3"``) whose plans are compiled with
    the test-only index-path toggle off — the knob the acceptance test
    and the CI gate demo use to prove plan regressions are caught.
    ``perturb_estimates`` names queries planned against ×100-scaled
    cardinalities: answers are untouched but every row estimate is
    wrong, the injected regression the cost gate must flag.

    ``scenarios`` points at a generated pack directory (``thalia gen``);
    its synthesized queries are recorded as one extra scale-1 cell that
    carries the pack fingerprint in a ``scenario`` field.
    """
    perturbed = {name.strip().upper() for name in perturb if name.strip()}
    estimate_perturbed = {name.strip().upper()
                          for name in perturb_estimates if name.strip()}
    known = {f"Q{query.number}" for query in QUERIES}
    unknown = (perturbed | estimate_perturbed) - known
    if unknown:
        raise ValueError(f"cannot perturb unknown queries: "
                         f"{sorted(unknown)}")
    say = progress if progress is not None else (lambda message: None)

    cells = []
    for scale in scales:
        say(f"building testbed seed={seed} scale={scale}")
        testbed = build_testbed(seed=seed,
                                universities=paper_universities(),
                                scale=scale)
        documents = testbed.documents
        content_fp = testbed.content_fingerprint()
        statistics = collect_statistics(documents, fingerprint=content_fp)
        say(f"collecting cell scale={scale}")
        cells.append(_collect_cell(
            documents, content_fp, scale, perturbed=perturbed,
            statistics=statistics, estimate_perturbed=estimate_perturbed))

    if scenarios is not None:
        from ..scenarios.pack import load_pack
        pack = load_pack(scenarios)
        say(f"loading scenario pack {pack.fingerprint[:12]} "
            f"({len(pack.cases)} cases)")
        scenario_documents: dict = {}
        for case in pack.cases:
            scenario_documents.update(case.documents)
        workload = [(case.case_id, case.xquery) for case in pack.cases]
        pack_statistics = collect_statistics(scenario_documents,
                                             fingerprint=pack.fingerprint)
        say("collecting scenario cell")
        cells.append(_collect_cell(
            scenario_documents, pack.fingerprint, 1, perturbed=set(),
            workload=workload, statistics=pack_statistics,
            extra={"scenario": pack.fingerprint}))

    return stamp(KIND_SNAPSHOT, {
        "meta": {
            "label": label or "unlabeled",
            "created": datetime.now(timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "seed": seed,
            "queries": len(QUERIES),
            "perturbed": sorted(perturbed),
            "estimate_perturbed": sorted(estimate_perturbed),
            "argv_hint": "thalia perf collect",
        },
        "cells": cells,
    })


def _collect_cell(documents, content_fp: str, scale: int,
                  *, perturbed: set[str], statistics,
                  workload: Sequence[tuple[str, str]] | None = None,
                  estimate_perturbed: set[str] = frozenset(),
                  extra: dict | None = None) -> dict:
    if workload is None:
        workload = [(f"Q{query.number}", query.xquery)
                    for query in QUERIES]
    plan_cache = PlanCache()
    result_cache = ResultCache()
    # Lookup counters accumulate on the (shared, lazily-built) document
    # indexes; zero them so this cell's numbers describe this cell only.
    for document in documents.values():
        document.index().reset_counters()
    resolver = DocumentResolver(documents)
    rows = []
    for query_label, source in workload:
        # The straight (costed) plan is always compiled through the
        # cell's plan cache (a second get records the steady-state hit);
        # a perturbed plan replaces it for the row but is kept out of
        # the cache so nothing else can pick it up.
        plan = plan_cache.get(source, statistics=statistics)
        plan_cache.get(source, statistics=statistics)
        reference_items = render(plan.execute(resolver))
        if query_label in perturbed:
            plan = compile_query(source, perturb=True)
        elif query_label in estimate_perturbed:
            plan = compile_query(
                source, statistics=statistics.scaled(ESTIMATE_PERTURB_FACTOR))

        # Result-cache exercise (miss, then hit) doubles as the
        # correctness check: cached, direct and perturbed paths must
        # agree item for item before the row is recorded.
        cached_items = result_cache.get_or_compute(
            plan.identity, content_fp,
            lambda: render(plan.execute(resolver)))
        result_cache.get_or_compute(plan.identity, content_fp, lambda: ())
        if cached_items != reference_items:
            raise AssertionError(
                f"{query_label}: recorded plan diverged from the "
                f"reference results; refusing to record it")

        # One analyzed execution per query feeds the per-operator
        # EXPLAIN ANALYZE counters.
        plan.execute(resolver, analyze=True)
        rows.append({
            "query": query_label,
            "perturbed": query_label in perturbed,
            "plan_fingerprint": plan.identity,
            "explain_sha256": plan.explain_fingerprint,
            "explain": plan.explain(),
            "rewrites": dict(plan.rewrites),
            "costed": plan.costed,
            "decisions": dict(plan.decisions),
            "operators": _operator_rows(plan),
            "items": len(reference_items),
        })
    cell = {
        "scale": scale,
        "content_fingerprint": content_fp,
        "queries": rows,
        "caches": {
            "plan_cache": plan_cache.stats(),
            "result_cache": result_cache.stats(),
        },
    }
    if extra:
        cell.update(extra)
    return cell


__all__ = [
    "ESTIMATE_PERTURB_FACTOR",
    "collect_snapshot",
]
