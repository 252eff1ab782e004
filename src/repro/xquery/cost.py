"""The cost model behind the statistics-driven planner.

Costs are abstract units roughly proportional to Python-level work per
node touched; they only ever *rank* alternatives, so the constants'
absolute values matter far less than their ratios:

* an index lookup pays a fixed probe (:data:`INDEX_LOOKUP_COST`) and
  then only touches the rows it returns;
* a tree scan pays :data:`SCAN_NODE_COST` for every node in the scanned
  pool (all children, or the whole subtree for the descendant axis);
* the synthetic document node is *never* index-covered — a probe there
  fails and falls back to a scan anyway, so its index cost is modeled
  as probe + scan, which makes the planner choose the direct scan.

Selectivity estimation works over the deterministic value samples of
:mod:`repro.xquery.stats`: a LIKE pattern or equality literal is matched
against the sample and the observed fraction is the estimate, with
conservative fallbacks (:data:`DEFAULT_SELECTIVITY` and friends) when no
sample applies.  Equality and LIKE read the sample through the memoized
per-tag value counts and LIKE match counts of
:class:`~repro.xquery.stats.DocumentStats`, so repeated estimates cost a
dict probe rather than a pass over the sample.  All estimates are pure
functions of the statistics, so costed plans are deterministic across
processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .stats import DocumentStats

#: Fixed price of one posting-list probe (dict lookup + slice).
INDEX_LOOKUP_COST = 4.0
#: Price per node visited by a tree scan.
SCAN_NODE_COST = 1.0
#: Price per row produced by a step (materialization + dedup checks).
ROW_COST = 0.5
#: Price of evaluating one predicate against one row.
PREDICATE_COST = 2.0

#: Fixed price of setting up one hash-join stage (table allocation, key
#: extraction closures).  Deliberately large relative to per-row costs so
#: tiny filtered inputs keep the nested loop and the strategy flips to
#: hash only once the pair product dominates — the scale-driven switch
#: the join smoke test asserts.
HASH_SETUP_COST = 24.0
#: Price of hashing one build-side row (key atomization + insert).
HASH_BUILD_COST = 1.5
#: Price of probing the table with one probe-side row.
HASH_PROBE_COST = 1.0
#: Price per joined tuple materialized by a join stage.
TUPLE_COST = 0.6

#: Fallback row estimate for a join input the planner cannot size.
DEFAULT_JOIN_ROWS = 8.0

#: Fallback selectivity for predicates the estimator cannot read.
DEFAULT_SELECTIVITY = 0.25
#: Fallback selectivity for an equality with no matching sample —
#: assume one distinct value out of the observed domain.
EQUALITY_FLOOR = 0.02
#: Fallback selectivity for a LIKE pattern with no sample to test.
LIKE_DEFAULT = 0.2


def index_step_cost(card: float, est_rows: float) -> float:
    """Cost of serving a step via posting lists: one probe per context
    item, then only the produced rows."""
    return card * INDEX_LOOKUP_COST + est_rows * ROW_COST


def scan_step_cost(card: float, pool_per_item: float,
                   est_rows: float) -> float:
    """Cost of a tree scan: the whole candidate pool is visited per
    context item (children or subtree), then rows are produced."""
    return card * max(1.0, pool_per_item) * SCAN_NODE_COST \
        + est_rows * ROW_COST


def document_node_index_cost(card: float, pool_per_item: float,
                             est_rows: float) -> float:
    """Index cost at the synthetic document node: the probe always
    misses (the node is outside the indexed tree) and execution falls
    back to the scan, so the probe is pure overhead."""
    return card * INDEX_LOOKUP_COST \
        + scan_step_cost(card, pool_per_item, est_rows)


# --------------------------------------------------------------------------- #
# Selectivity estimation over value samples
# --------------------------------------------------------------------------- #

def _fraction(matched: int, total: int, fallback: float) -> float:
    if not total:
        return fallback
    # Clamp into (0, 1]: a sample with zero matches still cannot prove
    # the predicate never matches, so the estimate floors at "one more
    # sample would have matched".
    return max(matched, 1) / (total + 1) if matched < total else 1.0


def like_selectivity(docstats: "DocumentStats", tag: str,
                     pattern) -> float:
    """Fraction of *tag*'s value samples matched by a compiled LIKE
    *pattern*."""
    total = len(docstats.samples(tag))
    if not total:
        return LIKE_DEFAULT
    return _fraction(docstats.like_matches(tag, pattern), total,
                     LIKE_DEFAULT)


def equality_selectivity(docstats: "DocumentStats", tag: str,
                         value: object) -> float:
    """Fraction of *tag*'s value samples equal to *value* (after the
    engine's string/number coercion), else one over the observed domain
    size."""
    total = len(docstats.samples(tag))
    if not total:
        return DEFAULT_SELECTIVITY
    counts = docstats.value_counts(tag)
    matched = counts.get(_comparable(value), 0)
    if matched:
        return _fraction(matched, total, EQUALITY_FLOOR)
    return max(EQUALITY_FLOOR, 1.0 / max(1, len(counts)))


def range_selectivity(samples: tuple[str, ...], op: str,
                      value: object) -> float:
    """Fraction of numerically-comparable *samples* satisfying
    ``sample <op> value``."""
    try:
        bound = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return DEFAULT_SELECTIVITY
    matched = total = 0
    for sample in samples:
        try:
            number = float(sample)
        except ValueError:
            continue
        total += 1
        if op == "<" and number < bound:
            matched += 1
        elif op == "<=" and number <= bound:
            matched += 1
        elif op == ">" and number > bound:
            matched += 1
        elif op == ">=" and number >= bound:
            matched += 1
    if not total:
        return DEFAULT_SELECTIVITY
    return _fraction(matched, total, DEFAULT_SELECTIVITY)


def inequality_selectivity(docstats: "DocumentStats", tag: str,
                           value: object) -> float:
    return max(EQUALITY_FLOOR,
               1.0 - equality_selectivity(docstats, tag, value))


def _comparable(value: object) -> str:
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else str(value)
    return str(value)


def comparison_selectivity(docstats: "DocumentStats", context_tag: str,
                           child_tag: str, op: str, value: object,
                           like_pattern=None) -> float:
    """Selectivity of ``context/child_tag <op> value`` predicates."""
    if like_pattern is not None:
        estimate = like_selectivity(docstats, child_tag, like_pattern)
        return estimate if op == "=" else \
            max(EQUALITY_FLOOR, 1.0 - estimate)
    if op == "=":
        return equality_selectivity(docstats, child_tag, value)
    if op == "!=":
        return inequality_selectivity(docstats, child_tag, value)
    return range_selectivity(docstats.samples(child_tag), op, value)


# --------------------------------------------------------------------------- #
# Join estimation (hash vs nested-loop stages)
# --------------------------------------------------------------------------- #

def join_selectivity(left_distinct: float, right_distinct: float) -> float:
    """Classic equi-join selectivity: ``1 / max(V(left), V(right))``.

    Distinct-value estimates come from
    :meth:`~repro.xquery.stats.DocumentStats.distinct_estimate`.
    """
    return 1.0 / max(1.0, float(left_distinct), float(right_distinct))


def join_cardinality(left_rows: float, right_rows: float,
                     selectivity: float) -> float:
    """Estimated output tuples of joining two inputs under a combined
    predicate *selectivity* (1.0 for a pure cartesian stage)."""
    return max(0.0, left_rows) * max(0.0, right_rows) \
        * min(1.0, max(0.0, selectivity))


def hash_join_cost(build_rows: float, probe_rows: float,
                   est_matches: float) -> float:
    """Cost of one hash stage: fixed setup, hash every build row, probe
    once per probe row, materialize the matches."""
    return HASH_SETUP_COST + build_rows * HASH_BUILD_COST \
        + probe_rows * HASH_PROBE_COST + est_matches * TUPLE_COST


def loop_join_cost(left_rows: float, right_rows: float,
                   est_matches: float) -> float:
    """Cost of one nested-loop stage: every pair pays one predicate
    evaluation, then matches are materialized."""
    return left_rows * right_rows * PREDICATE_COST \
        + est_matches * TUPLE_COST


# --------------------------------------------------------------------------- #
# Estimate-quality metric (shared with /api/stats and the plan goldens)
# --------------------------------------------------------------------------- #

def q_error(estimated: float, actual: float) -> float:
    """The symmetric cardinality-estimate error ``max(e/a, a/e)``.

    Both sides are shifted by one so zero-row operators stay finite;
    1.0 is a perfect estimate.  ``/api/stats`` reports its quantiles,
    and the costed explain goldens bound it per operator.
    """
    est = max(0.0, float(estimated)) + 1.0
    act = max(0.0, float(actual)) + 1.0
    return max(est / act, act / est)


def operator_q_errors(explain_data: dict) -> list[float]:
    """The q-error of every operator in an analyzed explain tree
    (:meth:`~repro.xquery.plan.Plan.explain_data` with ``analyze=True``)
    that carries both a row estimate and an actual row count."""
    errors: list[float] = []

    def walk(entry: dict) -> None:
        est_rows = entry.get("estimated", {}).get("est_rows")
        actual = entry.get("actual")
        if est_rows is not None and actual is not None:
            errors.append(q_error(est_rows, actual["rows"]))
        for child in entry["children"]:
            walk(child)

    walk(explain_data["root"])
    return errors


__all__ = [
    "DEFAULT_JOIN_ROWS",
    "DEFAULT_SELECTIVITY",
    "EQUALITY_FLOOR",
    "HASH_BUILD_COST",
    "HASH_PROBE_COST",
    "HASH_SETUP_COST",
    "INDEX_LOOKUP_COST",
    "LIKE_DEFAULT",
    "PREDICATE_COST",
    "ROW_COST",
    "SCAN_NODE_COST",
    "TUPLE_COST",
    "comparison_selectivity",
    "document_node_index_cost",
    "equality_selectivity",
    "hash_join_cost",
    "index_step_cost",
    "inequality_selectivity",
    "join_cardinality",
    "join_selectivity",
    "like_selectivity",
    "loop_join_cost",
    "operator_q_errors",
    "q_error",
    "range_selectivity",
    "scan_step_cost",
]
