"""``thalia perf collect`` — snapshot plans, timings and cache counters.

One *cell* per (scale tier × worker count); inside each cell, one row
per benchmark query with:

* the compiled plan's :meth:`~repro.xquery.plan.Plan.explain` text,
  its process-stable :attr:`~repro.xquery.plan.Plan.identity`
  (``plan_fingerprint``) and explain hash (``explain_sha256``) — the
  machine-independent facts the CI gate always enforces;
* wall-clock timing statistics over ``repeats`` measured batches
  (min/median/p95/mean, warmup batches discarded — the repeat-and-trim
  discipline) where one batch executes the plan once per worker,
  concurrently when ``workers > 1``;
* per-batch CPU time (``time.process_time_ns`` divided by executions),
  so a wall-time regression can be told apart from scheduler noise;
* plan-cache and result-cache counters for the cell, collected on
  fresh, private cache instances so numbers are workload-deterministic;
* per-operator EXPLAIN ANALYZE counters (``operators``): each plan runs
  once analyzed and its flattened explain tree — estimated vs. actual
  rows, calls, inclusive wall time per operator — rides along in the
  row, so the reporter can flag cardinality-estimate and cost
  regressions, not just plan-shape changes.

Measured plans are *costed*: statistics are collected per testbed
(cached by content fingerprint) and fed to the planner, so snapshots
exercise the decisions production paths make.  ``perturb_estimates``
names queries compiled against deliberately wrong (×100) cardinalities
— answers stay identical (samples are untouched) but every estimate is
off, which is the injected regression the reporter must flag.

Results are verified before timings are trusted: every query must
return the same items through the result cache as through a direct
``plan.execute``, and perturbed plans must still produce identical
answers (perturbation may only change *how*, never *what*).
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
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

DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 1

#: Timed executions per worker per measured batch.  Each execution is
#: wall-timed individually, so a cell contributes
#: ``repeats * workers * EXECUTIONS_PER_BATCH`` samples per query —
#: enough for min/median/p95 to mean something even at the CI gate's
#: economical ``--repeats 3``.
EXECUTIONS_PER_BATCH = 3


def host_fingerprint() -> dict:
    """Who measured: platform facts plus a stable digest of them.

    Two snapshots with the same ``id`` came from comparable hardware and
    interpreter builds, so their timings may be compared; across
    differing ids the reporter downgrades timing findings to
    informational (plan comparisons are always valid).
    """
    facts = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
    }
    digest = hashlib.sha256(
        repr(sorted(facts.items())).encode("utf-8")).hexdigest()
    return {"id": digest, **facts}


def _stats_ns(samples: Sequence[int]) -> dict:
    """min/median/p95/mean over nanosecond samples (nearest-rank p95)."""
    ordered = sorted(samples)
    count = len(ordered)
    if count % 2:
        median = ordered[count // 2]
    else:
        median = (ordered[count // 2 - 1] + ordered[count // 2]) // 2
    rank = max(0, -(-95 * count // 100) - 1)   # ceil(0.95 n) - 1
    return {
        "min": ordered[0],
        "median": median,
        "p95": ordered[rank],
        "mean": sum(ordered) // count,
        "samples": count,
    }


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
                row["wall_ns"] = actual["wall_ns"]
            rows.append(row)
        for position, child in enumerate(entry.get("children", ())):
            walk(child, f"{path}.{position}")

    walk(data["root"], "0")
    return rows


def _timed_executions(plan: Plan, documents) -> list[int]:
    samples = []
    for _ in range(EXECUTIONS_PER_BATCH):
        started = time.perf_counter_ns()
        plan.execute(documents)
        samples.append(time.perf_counter_ns() - started)
    return samples


def _run_batch(plan: Plan, documents, workers: int,
               pool: ThreadPoolExecutor | None) -> tuple[list[int], int]:
    """One measured batch: every worker runs the plan
    :data:`EXECUTIONS_PER_BATCH` times, each execution wall-timed
    individually; returns (wall samples, total process-CPU ns)."""
    cpu_started = time.process_time_ns()
    if pool is None:
        walls = _timed_executions(plan, documents)
    else:
        walls = [sample for worker_samples in pool.map(
            lambda _: _timed_executions(plan, documents), range(workers))
            for sample in worker_samples]
    return walls, time.process_time_ns() - cpu_started


def collect_snapshot(*, seed: int = 2004,
                     scales: Sequence[int] = (1,),
                     workers: Sequence[int] = (1,),
                     repeats: int = DEFAULT_REPEATS,
                     warmup: int = DEFAULT_WARMUP,
                     label: str = "",
                     perturb: Iterable[str] = (),
                     perturb_estimates: Iterable[str] = (),
                     scenarios: "str | os.PathLike | None" = None,
                     progress: Callable[[str], None] | None = None) -> dict:
    """Measure the twelve-query workload; returns a stamped snapshot.

    ``perturb`` names queries (``"Q3"``) whose plans are compiled with
    the test-only index-path toggle off — the knob the acceptance test
    and the CI gate demo use to prove plan regressions are caught.
    ``perturb_estimates`` names queries planned against ×100-scaled
    cardinalities: answers are untouched but every row estimate is
    wrong, the injected regression the cost gate must flag.

    ``scenarios`` points at a generated pack directory (``thalia gen``);
    its synthesized queries are measured as one extra cell per worker
    count.  Those cells carry the pack fingerprint in a ``scenario``
    field — same snapshot schema, and old snapshots (no such field)
    compare exactly as before.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
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
        for worker_count in workers:
            say(f"collecting cell scale={scale} workers={worker_count}")
            cells.append(_collect_cell(
                documents, content_fp, scale, worker_count,
                repeats=repeats, warmup=warmup, perturbed=perturbed,
                statistics=statistics,
                estimate_perturbed=estimate_perturbed))

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
        for worker_count in workers:
            say(f"collecting scenario cell workers={worker_count}")
            cells.append(_collect_cell(
                scenario_documents, pack.fingerprint, 1, worker_count,
                repeats=repeats, warmup=warmup, perturbed=set(),
                workload=workload, statistics=pack_statistics,
                extra={"scenario": pack.fingerprint}))

    snapshot = stamp(KIND_SNAPSHOT, {
        "meta": {
            "label": label or "unlabeled",
            "created": datetime.now(timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "host": host_fingerprint(),
            "seed": seed,
            "repeats": repeats,
            "warmup": warmup,
            "queries": len(QUERIES),
            "perturbed": sorted(perturbed),
            "estimate_perturbed": sorted(estimate_perturbed),
            "argv_hint": "thalia perf collect",
        },
        "cells": cells,
    })
    return snapshot


def _collect_cell(documents, content_fp: str, scale: int, workers: int,
                  *, repeats: int, warmup: int, perturbed: set[str],
                  workload: Sequence[tuple[str, str]] | None = None,
                  statistics=None,
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
    # Every execution in the cell resolves doc() through this one
    # resolver, so no timed sample pays for building it.
    resolver = DocumentResolver(documents)
    pool = ThreadPoolExecutor(max_workers=workers,
                              thread_name_prefix="thalia-perf") \
        if workers > 1 else None
    try:
        rows = []
        for query_label, source in workload:
            # The straight (costed, when statistics are available) plan
            # is always compiled through the cell's plan cache (a second
            # get records the steady-state hit); a perturbed plan
            # replaces it for measurement but is kept out of the cache
            # so nothing else can pick it up.
            plan = plan_cache.get(source, statistics=statistics)
            plan_cache.get(source, statistics=statistics)
            reference_items = render(plan.execute(resolver))
            if query_label in perturbed:
                plan = compile_query(source, perturb=True)
            elif query_label in estimate_perturbed and statistics is not None:
                plan = compile_query(
                    source,
                    statistics=statistics.scaled(ESTIMATE_PERTURB_FACTOR))

            # Result-cache exercise (miss, then hit) doubles as the
            # correctness check: cached, direct and perturbed paths must
            # agree item for item before any timing is recorded.
            cached_items = result_cache.get_or_compute(
                plan.identity, content_fp,
                lambda: render(plan.execute(resolver)))
            result_cache.get_or_compute(plan.identity, content_fp,
                                        lambda: ())
            if cached_items != reference_items:
                raise AssertionError(
                    f"{query_label}: measured plan diverged from the "
                    f"reference results; refusing to record timings")

            # One analyzed execution per query feeds the per-operator
            # EXPLAIN ANALYZE counters; it runs before the GC pause so
            # its (instrumented, slower) timings never mix with the
            # measured batches.
            plan.execute(resolver, analyze=True)
            operators = _operator_rows(plan)

            for _ in range(warmup):
                _run_batch(plan, resolver, workers, pool)
            wall_samples: list[int] = []
            cpu_samples: list[int] = []
            # Collector pauses (not disables) the cyclic GC around the
            # measured batches: at the ~100 µs scale of these queries a
            # collection landing inside one batch is the single largest
            # noise source, and it is scheduling noise, not plan cost.
            gc_was_enabled = gc.isenabled()
            gc.collect()
            if gc_was_enabled:
                gc.disable()
            try:
                for _ in range(repeats):
                    walls, cpu_ns = _run_batch(plan, resolver, workers,
                                               pool)
                    wall_samples.extend(walls)
                    cpu_samples.append(cpu_ns // max(1, len(walls)))
            finally:
                if gc_was_enabled:
                    gc.enable()
            rows.append({
                "query": query_label,
                "perturbed": query_label in perturbed,
                "plan_fingerprint": plan.identity,
                "explain_sha256": plan.explain_fingerprint,
                "explain": plan.explain(),
                "rewrites": dict(plan.rewrites),
                "costed": plan.costed,
                "decisions": dict(plan.decisions),
                "operators": operators,
                "items": len(reference_items),
                "wall_ns": _stats_ns(wall_samples),
                "cpu_ns": _stats_ns(cpu_samples),
            })
        cell = {
            "scale": scale,
            "workers": workers,
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
    finally:
        if pool is not None:
            pool.shutdown(wait=True)


__all__ = [
    "DEFAULT_REPEATS",
    "DEFAULT_WARMUP",
    "ESTIMATE_PERTURB_FACTOR",
    "collect_snapshot",
    "host_fingerprint",
]
