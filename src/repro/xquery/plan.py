"""Compiled query plans: compile once, run many.

``compile_query(source)`` lowers the parsed AST into a small tree of
logical operators in one pass that also applies every rule-based
rewrite: constant folding (a literal-operand operator is run once and
replaced by its value), WHERE-to-predicate fusion, and *index-backed*
paths — path expressions rooted at a constant ``doc("name")`` call scan
the document's lazily-built :class:`~repro.xmlmodel.indexes.DocumentIndex`.

With ``compile_query(source, statistics=...)`` a cost-based planning
pass (see :mod:`repro.xquery.stats` and :mod:`repro.xquery.cost`) runs
after lowering and makes *costed* physical choices: index lookup vs.
tree scan per path step, pushed-predicate ordering by estimated
selectivity, and per-execution memoization of loop-invariant inner
FLWOR sources.  Every costed choice is answer-preserving by
construction — both step strategies produce document order, reordering
applies only within runs of provably total, boolean-valued predicates,
and memoization only to variable-independent sources — so a costed
plan returns byte-identical results, and raises exactly when, the
rule-based plan does (pinned by :mod:`repro.xquery.differential`).
Plans compiled *without* statistics are bit-for-bit the rule-based
plans of old, which keeps the golden explain suite byte-identical.

Every operator mirrors the tree-walking evaluator's semantics exactly —
several helpers (`LIKE` pattern compilation, atomic comparison, order
keys) are imported from :mod:`repro.xquery.evaluator` rather than
re-implemented, so the two engines cannot drift.  The contract, checked
by unit, golden and property tests: for any query and document set,
``Plan.execute`` and :func:`repro.xquery.evaluator.evaluate` produce
byte-identical results.

A :class:`Plan` additionally exposes:

* :meth:`Plan.explain_data` — the structured explain tree (op kind,
  estimated rows/costs/strategies where costed, actual row counts and
  inclusive wall time per operator after an analyzed run);
* :meth:`Plan.explain` — rendered from :meth:`Plan.explain_data`; the
  default text format is golden-pinned for the twelve benchmark
  queries, ``format="json"`` serializes the data tree, and
  ``analyze=True`` appends per-operator actuals (true EXPLAIN ANALYZE);
* :class:`PlanStats` — per-run parse/compile/exec nanoseconds plus nodes
  visited and index lookups, aggregated across runs for ``/api/stats``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from sys import intern as _intern
from typing import TYPE_CHECKING

from ..xmlmodel import XmlElement
from . import cost as _cost
from .ast import (
    Arithmetic,
    Comparison,
    ContextItem,
    ElementConstructor,
    Expr,
    FLWOR,
    ForClause,
    FunctionCall,
    IfExpr,
    Literal,
    Logical,
    Not,
    PathExpr,
    Quantified,
    Sequence,
    VarRef,
)
from .context import DynamicContext
from .errors import XQueryError, XQueryTypeError
from .evaluator import (
    _compare_atomic,
    _general_compare,
    _invert,
    _like_pattern,
    _order_key,
)
from .functions import (
    FunctionRegistry,
    default_registry,
    uses_builtin_doc,
)
from .parser import parse_query
from .runtime import (
    Seq,
    atomize,
    effective_boolean_value,
    format_number,
    singleton,
    string_value,
    to_number,
)

if TYPE_CHECKING:  # pragma: no cover
    from .stats import DocumentStats, Statistics


@dataclass(frozen=True)
class PlanStats:
    """Timings and counters for one plan execution."""

    parse_ns: int
    compile_ns: int
    exec_ns: int
    nodes_visited: int
    index_lookups: int

    def to_dict(self) -> dict:
        return {
            "parse_ns": self.parse_ns,
            "compile_ns": self.compile_ns,
            "exec_ns": self.exec_ns,
            "nodes_visited": self.nodes_visited,
            "index_lookups": self.index_lookups,
        }


class _ExecState:
    """Mutable per-execution counters threaded through the operators.

    ``index`` holds the :class:`~repro.xmlmodel.indexes.DocumentIndex` of
    the innermost enclosing index-backed path, so relative paths inside
    its predicates resolve through the index too; operators fall back to
    tree scans for any item the index does not cover.

    ``trace`` is ``None`` on normal executions; an analyzed execution
    (``Plan.execute(..., analyze=True)``) sets it to a dict mapping
    ``id(op-or-step)`` to ``[calls, rows produced, inclusive wall ns]``
    — the actuals behind EXPLAIN ANALYZE.  ``source_cache`` memoizes
    loop-invariant FLWOR sources (:class:`CachedSourceOp`) within one
    execution.
    """

    __slots__ = ("nodes_visited", "index_lookups", "index", "trace",
                 "source_cache")

    def __init__(self) -> None:
        self.nodes_visited = 0
        self.index_lookups = 0
        self.index = None
        self.trace: dict[int, list[int]] | None = None
        self.source_cache: dict[int, Seq] | None = None


def _atomize(seq: Seq, state: _ExecState) -> Seq:
    """:func:`~repro.xquery.runtime.atomize`, but element string values
    come from the active document index's cache when one is live."""
    index = state.index
    if index is None:
        return atomize(seq)
    result = []
    for item in seq:
        if isinstance(item, XmlElement):
            value = index.string_of(item)
            result.append(value if value is not None
                          else string_value(item))
        elif isinstance(item, (float, bool)):
            result.append(item)
        else:
            result.append(item)
    return result


class _Node:
    """One line of ``explain()`` output with nested children.

    ``kind`` is the stable operator-kind slug surfaced through
    :meth:`Plan.explain_data`; ``ref`` points back at the operator (or
    :class:`StepPlan`) the node describes, so cost annotations and
    analyzed actuals — both keyed by ``id(ref)`` — can be joined onto
    the rendered tree.  Purely structural wrapper lines carry
    ``kind="clause"`` and no ref.
    """

    __slots__ = ("label", "children", "kind", "ref")

    def __init__(self, label: str, children: list["_Node"] | None = None,
                 kind: str = "clause", ref: object | None = None):
        self.label = label
        self.children = children or []
        self.kind = kind
        self.ref = ref


def _render_data(entry: dict, depth: int, lines: list[str],
                 analyze: bool) -> None:
    """Text rendering of one :meth:`Plan.explain_data` node."""
    label = entry["label"]
    if analyze:
        actual = entry.get("actual")
        if actual is not None:
            label += (f"  (actual rows={actual['rows']} "
                      f"calls={actual['calls']} "
                      f"time={actual['wall_ns'] / 1e6:.3f}ms)")
    lines.append("  " * depth + label)
    for child in entry.get("children", ()):
        _render_data(child, depth + 1, lines, analyze)


def _literal_label(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    return "'" + str(value).replace("'", "''") + "'"


# --------------------------------------------------------------------------- #
# Operators
# --------------------------------------------------------------------------- #

class Op:
    """Base logical operator: ``run`` executes, ``explain_node`` renders."""

    __slots__ = ()

    def run(self, ctx: DynamicContext, state: _ExecState) -> Seq:
        raise NotImplementedError  # pragma: no cover

    def explain_node(self) -> _Node:
        raise NotImplementedError  # pragma: no cover


class LiteralOp(Op):
    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def run(self, ctx, state):
        return [self.value]

    def explain_node(self):
        return _Node(f"literal {_literal_label(self.value)}",
                     kind="literal", ref=self)


class VarRefOp(Op):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def run(self, ctx, state):
        return ctx.lookup(self.name)

    def explain_node(self):
        return _Node(f"var ${self.name}", kind="var", ref=self)


class ContextItemOp(Op):
    __slots__ = ()

    def run(self, ctx, state):
        if ctx.context_item is None:
            raise XQueryTypeError("'.' used outside a predicate focus")
        return [ctx.context_item]

    def explain_node(self):
        return _Node("context-item", kind="context-item", ref=self)


class DocOp(Op):
    """A constant ``doc("name")`` call resolved through the builtin."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def run(self, ctx, state):
        return [ctx.resolve_document(self.name)]

    def explain_node(self):
        return _Node(f'doc "{self.name}"', kind="doc", ref=self)


class FunctionCallOp(Op):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Op, ...]) -> None:
        self.name = name
        self.args = args

    def run(self, ctx, state):
        evaluated = [arg.run(ctx, state) for arg in self.args]
        return ctx.functions.call(ctx, self.name, evaluated)

    def explain_node(self):
        return _Node(f"call {self.name}/{len(self.args)}",
                     [arg.explain_node() for arg in self.args],
                     kind="call", ref=self)


class SequenceOp(Op):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Op, ...]) -> None:
        self.items = items

    def run(self, ctx, state):
        result: Seq = []
        for item in self.items:
            result.extend(item.run(ctx, state))
        return result

    def explain_node(self):
        return _Node(f"sequence[{len(self.items)}]",
                     [item.explain_node() for item in self.items],
                     kind="sequence", ref=self)


class IfOp(Op):
    __slots__ = ("condition", "then_branch", "else_branch")

    def __init__(self, condition: Op, then_branch: Op, else_branch: Op):
        self.condition = condition
        self.then_branch = then_branch
        self.else_branch = else_branch

    def run(self, ctx, state):
        if effective_boolean_value(self.condition.run(ctx, state)):
            return self.then_branch.run(ctx, state)
        return self.else_branch.run(ctx, state)

    def explain_node(self):
        return _Node("if", [
            _Node("condition", [self.condition.explain_node()]),
            _Node("then", [self.then_branch.explain_node()]),
            _Node("else", [self.else_branch.explain_node()]),
        ], kind="if", ref=self)


class LogicalOp(Op):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Op, right: Op) -> None:
        self.op = op
        self.left = left
        self.right = right

    def run(self, ctx, state):
        left = effective_boolean_value(self.left.run(ctx, state))
        if self.op == "and":
            if not left:
                return [False]
            return [effective_boolean_value(self.right.run(ctx, state))]
        if left:
            return [True]
        return [effective_boolean_value(self.right.run(ctx, state))]

    def explain_node(self):
        return _Node(f"logical '{self.op}'",
                     [self.left.explain_node(), self.right.explain_node()],
                     kind="logical", ref=self)


class NotOp(Op):
    __slots__ = ("operand",)

    def __init__(self, operand: Op) -> None:
        self.operand = operand

    def run(self, ctx, state):
        return [not effective_boolean_value(self.operand.run(ctx, state))]

    def explain_node(self):
        return _Node("not", [self.operand.explain_node()],
                     kind="not", ref=self)


class ArithmeticOp(Op):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Op, right: Op) -> None:
        self.op = op
        self.left = left
        self.right = right

    def run(self, ctx, state):
        left_seq = self.left.run(ctx, state)
        right_seq = self.right.run(ctx, state)
        if not left_seq or not right_seq:
            return []
        left = to_number(singleton(left_seq, "arithmetic"))
        right = to_number(singleton(right_seq, "arithmetic"))
        return [left + right if self.op == "+" else left - right]

    def explain_node(self):
        return _Node(f"arith '{self.op}'",
                     [self.left.explain_node(), self.right.explain_node()],
                     kind="arith", ref=self)


class ComparisonOp(Op):
    """General comparison with the LIKE pattern pre-compiled.

    ``like`` is ``None`` for plain comparisons, else
    ``(pattern_text, compiled_regex, values_side)`` where ``values_side``
    names the operand whose values are matched against the pattern.
    """

    __slots__ = ("op", "left", "right", "like")

    def __init__(self, op: str, left: Op, right: Op,
                 like: tuple | None) -> None:
        self.op = op
        self.left = left
        self.right = right
        self.like = like

    def run(self, ctx, state):
        left_seq = _atomize(self.left.run(ctx, state), state)
        right_seq = _atomize(self.right.run(ctx, state), state)
        if self.like is not None:
            _text, pattern, side = self.like
            values = left_seq if side == "left" else right_seq
            if self.op == "=":
                return [any(pattern.match(str(v)) for v in values)]
            return [any(not pattern.match(str(v)) for v in values)]
        return [_general_compare(self.op, left_seq, right_seq)]

    def explain_node(self):
        label = f"compare '{self.op}'"
        if self.like is not None:
            label += f" [like {_literal_label(self.like[0])}]"
        return _Node(label,
                     [self.left.explain_node(), self.right.explain_node()],
                     kind="compare", ref=self)


# --------------------------------------------------------------------------- #
# Paths
# --------------------------------------------------------------------------- #

class StepPlan:
    """One lowered path step; predicates carry a pushed-from-WHERE flag.

    ``strategy`` is the physical access choice: ``"auto"`` (rule-based:
    try the index, fall back to a scan — the only value un-costed plans
    ever carry), ``"index"`` (costed, same access path as auto) or
    ``"scan"`` (costed: skip the index probe outright).  Both index and
    scan produce document order, so the strategy can never change a
    step's output — only how fast it arrives.  ``est_rows`` is the
    planner's post-predicate row estimate, rendered in the explain tree
    and compared against analyzed actuals.
    """

    __slots__ = ("axis", "kind", "name", "predicates", "strategy",
                 "est_rows")

    def __init__(self, axis: str, kind: str, name: str,
                 predicates: tuple[tuple[Op, bool], ...]) -> None:
        self.axis = axis
        self.kind = kind
        # Element tags are interned at construction, so the scan filter's
        # ``node.tag == step.name`` is a pointer comparison first.
        self.name = _intern(name)
        self.predicates = predicates
        self.strategy = "auto"
        self.est_rows: int | None = None

    def explain_node(self) -> _Node:
        children = []
        for op, pushed in self.predicates:
            label = "predicate [pushed from where]" if pushed else "predicate"
            children.append(_Node(label, [op.explain_node()],
                                  kind="predicate"))
        label = f"step {self.axis} {self.kind} {self.name}"
        if self.strategy != "auto":
            label += f" [via {self.strategy}, est={self.est_rows}]"
        return _Node(label, children, kind="step", ref=self)


def _scan_candidates(step: StepPlan, item: XmlElement,
                     state: _ExecState) -> Seq:
    """Tree-scan step application, mirroring the interpreter."""
    if step.axis == "descendant":
        pool = [node for child in item.element_children
                for node in child.iter()]
    else:
        pool = item.element_children
    state.nodes_visited += len(pool)
    if step.kind == "element":
        if step.name == "*":
            return list(pool)
        return [node for node in pool if node.tag == step.name]
    if step.kind == "attribute":
        values: Seq = []
        targets = [item] if step.axis == "child" else pool
        for target in targets:
            value = target.get(step.name)
            if value is not None:
                values.append(value)
        return values
    targets = [item] if step.axis == "child" else pool
    texts: Seq = []
    for target in targets:
        direct = "".join(c for c in target.children if isinstance(c, str))
        if direct:
            texts.append(direct)
    return texts


def _indexed_candidates(step: StepPlan, item: XmlElement, index,
                        state: _ExecState) -> Seq | None:
    """Index-backed step application; None → caller must tree-scan.

    Only named element steps are index-eligible.  Items outside the
    indexed tree (in practice only the synthetic document node) fall
    back per-item.
    """
    if step.kind != "element" or step.name == "*":
        return None
    if step.axis == "child":
        found = index.children_of(item, step.name)
        if found is None:
            return None
        state.index_lookups += 1
        state.nodes_visited += len(found)
        return found
    found = index.descendants_of(item, step.name)
    if found is None:
        # The document node: a descendant step from it covers the whole
        # tree, which is exactly the tag's posting list.
        state.index_lookups += 1
        found = index.elements(step.name)
    else:
        state.index_lookups += 1
    state.nodes_visited += len(found)
    return found


def _filter_by_predicate(op: Op, sequence: Seq, ctx: DynamicContext,
                         state: _ExecState) -> Seq:
    size = len(sequence)
    if not size:
        return []
    if state.trace is None and state.index is not None:
        shape = _column_shape(op)
        if shape is not None:
            return _column_filter(op, shape, sequence, ctx, state)
    kept: Seq = []
    # One focused context, re-aimed per item: evaluation is eager, so no
    # operator can observe the focus after its own run() returns.
    focused = ctx.with_focus(sequence[0], 0, size)
    for position, item in enumerate(sequence, start=1):
        focused.context_item = item
        focused.context_position = position
        value = op.run(focused, state)
        if len(value) == 1 and isinstance(value[0], float):
            if value[0] == position:
                kept.append(item)
        elif effective_boolean_value(value):
            kept.append(item)
    return kept


def _column_shape(op: Op) -> tuple[str, object, bool] | None:
    """``(child tag, literal value, literal written first)`` when *op* is
    a ``./tag <op> literal`` comparison (either operand order, LIKE or
    plain) whose one child step the generic path would serve from the
    active document index; None for any other shape."""
    if type(op) is not ComparisonOp:
        return None
    if type(op.right) is LiteralOp:
        path, literal, first = op.left, op.right, False
    elif type(op.left) is LiteralOp:
        path, literal, first = op.right, op.left, True
    else:
        return None
    if type(path) is not PathOp or type(path.base) is not ContextItemOp \
            or len(path.steps) != 1:
        return None
    step = path.steps[0]
    if step.axis != "child" or step.kind != "element" or step.name == "*" \
            or step.predicates or step.strategy == "scan":
        return None
    return step.name, literal.value, first


def _column_filter(op: "ComparisonOp", shape: tuple[str, object, bool],
                   sequence: Seq, ctx: DynamicContext,
                   state: _ExecState) -> Seq:
    """The column kernel: :func:`_filter_by_predicate` for a
    ``./tag <op> literal`` predicate (see :func:`_column_shape`) in one
    loop over the candidates.

    Each covered candidate's child string values come from the active
    index's column memo (:meth:`DocumentIndex.column`) in one dict probe,
    and are tested with the LIKE pattern's ``match`` or with
    :func:`_general_compare`, exactly as :meth:`ComparisonOp.run` tests
    them.  It adds the plan counters (``index_lookups``,
    ``nodes_visited``) and the index's ``child_lookups`` /
    ``string_lookups`` the operator-by-operator path would have added,
    in bulk, up to the candidate that raised if one does.  A candidate
    outside the index takes the generic path.  Analyzed runs never come
    here, so EXPLAIN ANALYZE still sees every operator.
    """
    tag, literal, literal_first = shape
    index = state.index
    column = index.column(tag)
    probe = column.get
    match = op.like[1].match if op.like is not None else None
    positive = op.op == "="
    compare = op.op
    literal_seq = [literal]
    kept: Seq = []
    lookups = visited = 0
    focused = None
    try:
        for position, item in enumerate(sequence, start=1):
            values = probe(id(item))
            if values is None:
                if not index.covers(item):
                    if focused is None:
                        focused = ctx.with_focus(item, 0, len(sequence))
                    focused.context_item = item
                    focused.context_position = position
                    if effective_boolean_value(op.run(focused, state)):
                        kept.append(item)
                    continue
                values = ()
            lookups += 1
            visited += len(values)
            if match is not None:
                for value in values:
                    if (match(value) is not None) is positive:
                        kept.append(item)
                        break
            elif _general_compare(compare, literal_seq, values) \
                    if literal_first \
                    else _general_compare(compare, values, literal_seq):
                kept.append(item)
    finally:
        state.index_lookups += lookups
        state.nodes_visited += visited
        index.child_lookups += lookups
        index.string_lookups += visited
    return kept


def _apply_step_inner(step: StepPlan, sequence: Seq, ctx: DynamicContext,
                      state: _ExecState) -> Seq:
    # A costed "scan" strategy skips the index probe outright; "index"
    # and "auto" both try the index first and fall back per item.
    index = state.index if step.strategy != "scan" else None
    if len(sequence) == 1:
        # A single context item cannot produce duplicates (children and
        # descendants of one node are each visited once), so the id-dedup
        # bookkeeping is skipped.  This is the dominant shape: every step
        # after ``doc(...)`` in a straight-line path runs per FLWOR
        # binding, i.e. over one item.
        item = sequence[0]
        if not isinstance(item, XmlElement):
            raise XQueryTypeError(
                f"path step '{step.name}' applied to atomic value "
                f"{string_value(item)!r}")
        produced = None
        if index is not None:
            produced = _indexed_candidates(step, item, index, state)
        if produced is None:
            produced = _scan_candidates(step, item, state)
        result: Seq = list(produced)
    else:
        result = []
        seen: set[int] = set()
        for item in sequence:
            if not isinstance(item, XmlElement):
                raise XQueryTypeError(
                    f"path step '{step.name}' applied to atomic value "
                    f"{string_value(item)!r}")
            produced = None
            if index is not None:
                produced = _indexed_candidates(step, item, index, state)
            if produced is None:
                produced = _scan_candidates(step, item, state)
            for node in produced:
                if isinstance(node, XmlElement):
                    if id(node) in seen:
                        continue
                    seen.add(id(node))
                result.append(node)
    for predicate, _pushed in step.predicates:
        result = _filter_by_predicate(predicate, result, ctx, state)
    return result


def _apply_step(step: StepPlan, sequence: Seq, ctx: DynamicContext,
                state: _ExecState) -> Seq:
    trace = state.trace
    if trace is None:
        return _apply_step_inner(step, sequence, ctx, state)
    started = time.perf_counter_ns()
    result = _apply_step_inner(step, sequence, ctx, state)
    elapsed = time.perf_counter_ns() - started
    entry = trace.get(id(step))
    if entry is None:
        trace[id(step)] = [1, len(result), elapsed]
    else:
        entry[0] += 1
        entry[1] += len(result)
        entry[2] += elapsed
    return result


class PathOp(Op):
    """Generic path over an arbitrary base; steps use the enclosing
    index-backed path's document index when one is active."""

    __slots__ = ("base", "steps")

    label = "path"

    def __init__(self, base: Op, steps: tuple[StepPlan, ...]) -> None:
        self.base = base
        self.steps = steps

    def run(self, ctx, state):
        current = self.base.run(ctx, state)
        for step in self.steps:
            current = _apply_step(step, current, ctx, state)
        return current

    def explain_node(self):
        children = [_Node("base", [self.base.explain_node()])]
        children.extend(step.explain_node() for step in self.steps)
        return _Node(self.label, children, kind="path", ref=self)


class IndexedPathOp(Op):
    """Path rooted at a constant ``doc()``: steps resolve through the
    document's element-name index instead of tree scans."""

    __slots__ = ("doc_name", "steps")

    def __init__(self, doc_name: str, steps: tuple[StepPlan, ...]) -> None:
        self.doc_name = doc_name
        self.steps = steps

    def run(self, ctx, state):
        current: Seq = [ctx.resolve_document(self.doc_name)]
        previous = state.index
        state.index = ctx.documents.index(self.doc_name)
        try:
            for step in self.steps:
                current = _apply_step(step, current, ctx, state)
        finally:
            state.index = previous
        return current

    def explain_node(self):
        children = [step.explain_node() for step in self.steps]
        return _Node(f'index-path doc "{self.doc_name}"', children,
                     kind="index-path", ref=self)


class CachedSourceOp(Op):
    """Per-execution memo around a loop-invariant FLWOR source.

    The cost planner wraps inner ``for``-clause sources whose subtree
    references no variables and no context item: re-evaluating such a
    source once per outer binding always yields the same sequence, so
    the first evaluation is cached in the execution state and replayed
    — the order-preserving physical analogue of pulling the inner side
    of a nested-loop join out of the loop.  Result order is untouched
    because only *when* the source is evaluated changes, never what it
    yields or how the FLWOR iterates it.
    """

    __slots__ = ("source",)

    def __init__(self, source: Op) -> None:
        self.source = source

    def run(self, ctx, state):
        cache = state.source_cache
        if cache is None:
            cache = state.source_cache = {}
        cached = cache.get(id(self))
        if cached is None:
            cached = self.source.run(ctx, state)
            cache[id(self)] = cached
        return cached

    def explain_node(self):
        return _Node("cached-source", [self.source.explain_node()],
                     kind="cached-source", ref=self)


# --------------------------------------------------------------------------- #
# Join execution (hash / nested-loop stages over independent sources)
# --------------------------------------------------------------------------- #

class _JoinActual:
    """Identity anchor for one side of a join stage's ANALYZE actuals.

    Build/probe row counts are recorded into the execution trace under
    ``id()`` of these markers, exactly like operators — the explain tree
    references them so ``EXPLAIN ANALYZE`` can report build rows and
    probe rows per stage.
    """

    __slots__ = ("side",)

    def __init__(self, side: str) -> None:
        self.side = side


class _JoinStage:
    """One step of a join program: fold one more source into the tuples.

    ``edge`` is ``(bound_position, bound_key_op, new_key_op, conjunct)``
    for the primary equi-join conjunct a hash stage keys on (``None``
    for pure loop stages).  ``hash_filters`` are the remaining conjuncts
    first evaluable at this stage (secondary edges, non-equi cross
    predicates); ``loop_filters`` are the same plus the primary conjunct,
    in original conjunct order — the nested-loop path (chosen by cost
    *or* entered as the runtime fallback for type-mixing keys) evaluates
    them generically per candidate pair, preserving exact comparison
    semantics.
    """

    __slots__ = ("position", "variable", "strategy", "build", "edge",
                 "hash_filters", "loop_filters", "est_rows",
                 "build_actual", "probe_actual")

    def __init__(self, position: int, variable: str, strategy: str,
                 build: str, edge: tuple | None,
                 hash_filters: tuple[Op, ...],
                 loop_filters: tuple[Op, ...]) -> None:
        self.position = position
        self.variable = variable
        self.strategy = strategy        # "hash" | "loop"
        self.build = build              # "source" | "tuples" ("" for loop)
        self.edge = edge
        self.hash_filters = hash_filters
        self.loop_filters = loop_filters
        self.est_rows: int | None = None
        self.build_actual = _JoinActual("build")
        self.probe_actual = _JoinActual("probe")

    def explain_node(self, variables: tuple[str, ...]) -> _Node:
        children: list[_Node] = []
        if self.edge is not None:
            bound_position, bound_key, new_key, _conjunct = self.edge
            children.append(_Node(
                f"key ${variables[bound_position]}",
                [bound_key.explain_node()], kind="join-key"))
            children.append(_Node(
                f"key ${self.variable}",
                [new_key.explain_node()], kind="join-key"))
        if self.strategy == "hash":
            build_over = f"${self.variable}" if self.build == "source" \
                else "tuples"
            children.append(_Node(f"build [{build_over}]",
                                  kind="join-build", ref=self.build_actual))
            children.append(_Node("probe", kind="join-probe",
                                  ref=self.probe_actual))
            filters = self.hash_filters
        else:
            filters = self.loop_filters
        for op in filters:
            children.append(_Node("filter [hoisted]", [op.explain_node()],
                                  kind="join-filter"))
        label = f"{self.strategy}-join ${self.variable}"
        if self.strategy == "hash":
            label += f" [build={build_over}]"
        if self.est_rows is not None:
            label += f" [est={self.est_rows}]"
        return _Node(label, children, kind=f"{self.strategy}-join",
                     ref=self)


class JoinGroupOp(Op):
    """Hash/nested-loop join over a prefix of independent FLWOR sources.

    The cost planner builds one of these from ``for``-clauses whose
    sources reference none of the group's variables, plus the WHERE
    conjuncts that are *hoistable* (total, boolean-shaped, and only over
    group variables).  Execution:

    1. evaluate every raw source in clause order, stopping at the first
       empty one — exactly the combinations the nested loop would have
       evaluated;
    2. apply variable-free hoisted conjuncts once (the nested loop would
       have evaluated them per combination — they are total, so only
       the evaluation count differs);
    3. filter each source by its single-variable hoisted conjuncts,
       tagging every surviving item with its source position;
    4. run the join program: stages fold sources in the cost-chosen
       order, hashing on the primary equi-conjunct's atomized string
       keys (falling back to the generic nested loop when any key
       atomizes to a non-string) and applying the remaining conjuncts
       per candidate;
    5. sort the finished tuples by their original index vector —
       lexicographic order over clause-position indexes *is* the nested
       loop's emission order, so downstream clauses, ORDER BY stability
       and the returned sequence are byte-identical.

    Every hoisted conjunct is total, so no error can be masked by
    filtering earlier than the interpreter would have; non-hoistable
    conjuncts stay in the FLWOR's residual WHERE, evaluated at the
    innermost depth in their original order.
    """

    __slots__ = ("variables", "sources", "source_filters", "prefilters",
                 "start", "stages")

    def __init__(self, variables: tuple[str, ...],
                 sources: tuple[Op, ...],
                 source_filters: tuple[tuple[Op, ...], ...],
                 prefilters: tuple[Op, ...],
                 start: int, stages: tuple[_JoinStage, ...]) -> None:
        self.variables = variables
        self.sources = sources
        self.source_filters = source_filters
        self.prefilters = prefilters
        self.start = start
        self.stages = stages

    @property
    def order(self) -> tuple[int, ...]:
        return (self.start,) + tuple(stage.position
                                     for stage in self.stages)

    def run(self, ctx, state):
        raw: list[Seq] = []
        for source in self.sources:
            items = source.run(ctx, state)
            if not items:
                # The nested loop never evaluates sources deeper than
                # the first empty one — neither do we.
                return []
            raw.append(items)
        for op in self.prefilters:
            if not effective_boolean_value(op.run(ctx, state)):
                return []
        filtered: list[list[tuple[int, object]]] = []
        for position, items in enumerate(raw):
            tagged = list(enumerate(items))
            predicates = self.source_filters[position]
            if predicates:
                variable = self.variables[position]
                child = ctx.bind(variable, [])
                for predicate in predicates:
                    if not tagged:
                        break
                    kept = []
                    for index, item in tagged:
                        child._variables[variable] = [item]
                        if effective_boolean_value(
                                predicate.run(child, state)):
                            kept.append((index, item))
                    tagged = kept
            filtered.append(tagged)
        width = len(self.sources)
        tuples: list[tuple[list, list]] = []
        for index, item in filtered[self.start]:
            indices: list = [-1] * width
            items_row: list = [None] * width
            indices[self.start] = index
            items_row[self.start] = item
            tuples.append((indices, items_row))
        for stage in self.stages:
            if not tuples:
                break
            tuples = self._apply_stage(stage, tuples,
                                       filtered[stage.position], ctx, state)
        tuples.sort(key=lambda entry: entry[0])
        return [tuple(items_row) for _indices, items_row in tuples]

    # -- stage execution -------------------------------------------------- #

    def _apply_stage(self, stage: _JoinStage, tuples, new_items,
                     ctx, state) -> list:
        trace = state.trace
        started = time.perf_counter_ns() if trace is not None else 0
        result, build_rows, probe_rows = self._stage_inner(
            stage, tuples, new_items, ctx, state)
        if trace is not None:
            elapsed = time.perf_counter_ns() - started
            for ref, rows in ((stage, len(result)),
                              (stage.build_actual, build_rows),
                              (stage.probe_actual, probe_rows)):
                entry = trace.get(id(ref))
                wall = elapsed if ref is stage else 0
                if entry is None:
                    trace[id(ref)] = [1, rows, wall]
                else:
                    entry[0] += 1
                    entry[1] += rows
                    entry[2] += wall
        return result

    def _stage_inner(self, stage: _JoinStage, tuples, new_items,
                     ctx, state) -> tuple[list, int, int]:
        position = stage.position
        variable = stage.variable
        if stage.strategy == "hash" and stage.edge is not None:
            bound_position, bound_key, new_key, _conjunct = stage.edge
            new_atoms = self._side_keys(
                new_key, variable, [item for _i, item in new_items],
                ctx, state)
            bound_atoms = None
            if new_atoms is not None:
                bound_items: list = []
                seen_bound: set[int] = set()
                for indices, items_row in tuples:
                    bound_index = indices[bound_position]
                    if bound_index not in seen_bound:
                        seen_bound.add(bound_index)
                        bound_items.append(
                            (bound_index, items_row[bound_position]))
                per_item = self._side_keys(
                    bound_key, self.variables[bound_position],
                    [item for _i, item in bound_items], ctx, state)
                if per_item is not None:
                    bound_atoms = {
                        index: atoms for (index, _item), atoms
                        in zip(bound_items, per_item)}
            if new_atoms is not None and bound_atoms is not None:
                return self._hash_stage(stage, tuples, new_items,
                                        new_atoms, bound_atoms,
                                        bound_position, ctx, state)
        # Nested-loop path: cost-chosen loop stages and the runtime
        # fallback for key sequences with non-string atoms, where only
        # the generic per-pair comparison preserves numeric-promotion
        # semantics.
        scope = ctx.bind(variable, [])
        result = []
        for indices, items_row in tuples:
            for var_position, name in enumerate(self.variables):
                if indices[var_position] >= 0:
                    scope._variables[name] = [items_row[var_position]]
            for index, item in new_items:
                scope._variables[variable] = [item]
                if all(effective_boolean_value(op.run(scope, state))
                       for op in stage.loop_filters):
                    joined_indices = list(indices)
                    joined_items = list(items_row)
                    joined_indices[position] = index
                    joined_items[position] = item
                    result.append((joined_indices, joined_items))
        return result, 0, len(tuples) * len(new_items)

    def _side_keys(self, key_op: Op, variable: str, items, ctx,
                   state) -> list[list] | None:
        """Atomized string keys per item; None → fall back to the loop
        (some key atomized to a non-string)."""
        scope = ctx.bind(variable, [])
        keys: list[list] = []
        for item in items:
            scope._variables[variable] = [item]
            atoms = _atomize(key_op.run(scope, state), state)
            for atom in atoms:
                if type(atom) is not str:
                    return None
            keys.append(atoms)
        return keys

    def _hash_stage(self, stage: _JoinStage, tuples, new_items,
                    new_atoms, bound_atoms, bound_position, ctx,
                    state) -> tuple[list, int, int]:
        position = stage.position
        variable = stage.variable
        filters = stage.hash_filters
        scope = ctx.bind(variable, [])
        result = []

        def passes(indices, items_row, item) -> bool:
            if not filters:
                return True
            for var_position, name in enumerate(self.variables):
                if indices[var_position] >= 0:
                    scope._variables[name] = [items_row[var_position]]
            scope._variables[variable] = [item]
            return all(effective_boolean_value(op.run(scope, state))
                       for op in filters)

        def emit(indices, items_row, index, item) -> None:
            joined_indices = list(indices)
            joined_items = list(items_row)
            joined_indices[position] = index
            joined_items[position] = item
            result.append((joined_indices, joined_items))

        if stage.build == "source":
            table: dict[str, list[int]] = {}
            for slot, atoms in enumerate(new_atoms):
                for atom in dict.fromkeys(atoms):
                    table.setdefault(atom, []).append(slot)
            build_rows, probe_rows = len(new_items), len(tuples)
            for indices, items_row in tuples:
                atoms = bound_atoms[indices[bound_position]]
                if not atoms:
                    continue
                candidates: set[int] = set()
                for atom in atoms:
                    candidates.update(table.get(atom, ()))
                for slot in sorted(candidates):
                    index, item = new_items[slot]
                    if passes(indices, items_row, item):
                        emit(indices, items_row, index, item)
        else:
            table = {}
            for tuple_slot, (indices, _items_row) in enumerate(tuples):
                for atom in dict.fromkeys(
                        bound_atoms[indices[bound_position]]):
                    table.setdefault(atom, []).append(tuple_slot)
            build_rows, probe_rows = len(tuples), len(new_items)
            for slot, atoms in enumerate(new_atoms):
                if not atoms:
                    continue
                index, item = new_items[slot]
                candidates = set()
                for atom in atoms:
                    candidates.update(table.get(atom, ()))
                for tuple_slot in sorted(candidates):
                    indices, items_row = tuples[tuple_slot]
                    if passes(indices, items_row, item):
                        emit(indices, items_row, index, item)
        return result, build_rows, probe_rows

    def explain_node(self):
        children: list[_Node] = []
        for position, source in enumerate(self.sources):
            source_children = [source.explain_node()]
            for predicate in self.source_filters[position]:
                source_children.append(
                    _Node("filter [hoisted]", [predicate.explain_node()],
                          kind="join-filter"))
            children.append(_Node(f"source ${self.variables[position]}",
                                  source_children, kind="join-source"))
        for op in self.prefilters:
            children.append(_Node("filter [hoisted, invariant]",
                                  [op.explain_node()], kind="join-filter"))
        for stage in self.stages:
            children.append(stage.explain_node(self.variables))
        order = ", ".join(f"${self.variables[position]}"
                          for position in self.order)
        return _Node(f"join-group [order {order}]", children,
                     kind="join-group", ref=self)


# --------------------------------------------------------------------------- #
# FLWOR / quantifiers / constructors
# --------------------------------------------------------------------------- #

class FLWOROp(Op):
    __slots__ = ("clauses", "where", "order_specs", "returns")

    def __init__(self, clauses: tuple[tuple[str, str, Op], ...],
                 where: Op | None,
                 order_specs: tuple[tuple[Op, bool], ...],
                 returns: Op) -> None:
        self.clauses = clauses          # (kind, variable, op)
        self.where = where
        self.order_specs = order_specs  # (key op, descending)
        self.returns = returns

    def run(self, ctx, state):
        ordered: list[tuple[tuple, Seq]] = []

        def emit(scope: DynamicContext) -> None:
            produced = self.returns.run(scope, state)
            if self.order_specs:
                keys = []
                for key_op, descending in self.order_specs:
                    key = _order_key(key_op.run(scope, state))
                    if descending:
                        key = tuple(_invert(part) for part in key)
                    keys.append(key)
                ordered.append((tuple(keys), produced))
            else:
                ordered.append(((), produced))

        def recurse(depth: int, scope: DynamicContext) -> None:
            if depth == len(self.clauses):
                if self.where is not None:
                    if not effective_boolean_value(
                            self.where.run(scope, state)):
                        return
                emit(scope)
                return
            kind, variable, op = self.clauses[depth]
            if kind == "for":
                items = op.run(scope, state)
                if not items:
                    return
                # One child scope per depth, rebound per item: evaluation
                # is eager and each binding is a fresh list, so nothing
                # downstream can observe the re-binding.
                child = scope.bind(variable, [])
                for item in items:
                    child._variables[variable] = [item]
                    recurse(depth + 1, child)
            elif kind == "join":
                # A cost-planned join group: `variable` is the tuple of
                # group variable names and each produced row binds them
                # all at once, already in nested-loop emission order.
                rows = op.run(scope, state)
                if not rows:
                    return
                names = variable
                child = scope.bind(names[0], [])
                for row in rows:
                    for name, item in zip(names, row):
                        child._variables[name] = [item]
                    recurse(depth + 1, child)
            else:
                recurse(depth + 1,
                        scope.bind(variable, op.run(scope, state)))

        recurse(0, ctx)
        if self.order_specs:
            ordered.sort(key=lambda entry: entry[0])
        results: Seq = []
        for _, produced in ordered:
            results.extend(produced)
        return results

    def explain_node(self):
        children = []
        for kind, variable, op in self.clauses:
            if kind == "join":
                names = ", ".join(f"${name}" for name in variable)
                children.append(_Node(f"join {names}",
                                      [op.explain_node()]))
                continue
            marker = "in" if kind == "for" else ":="
            children.append(_Node(f"{kind} ${variable} {marker}",
                                  [op.explain_node()]))
        if self.where is not None:
            children.append(_Node("where", [self.where.explain_node()]))
        for key_op, descending in self.order_specs:
            direction = " descending" if descending else ""
            children.append(_Node(f"order-by{direction}",
                                  [key_op.explain_node()]))
        children.append(_Node("return", [self.returns.explain_node()]))
        return _Node("flwor", children, kind="flwor", ref=self)


class QuantifiedOp(Op):
    __slots__ = ("kind", "bindings", "condition")

    def __init__(self, kind: str, bindings: tuple[tuple[str, Op], ...],
                 condition: Op) -> None:
        self.kind = kind
        self.bindings = bindings
        self.condition = condition

    def run(self, ctx, state):
        some = self.kind == "some"

        def decided(depth: int, scope: DynamicContext) -> bool:
            # True once the overall answer is settled: `some` on the
            # first true condition, `every` on the first false — later
            # binding combinations are never evaluated (mirrors the
            # interpreter's short-circuit exactly).
            if depth == len(self.bindings):
                value = effective_boolean_value(
                    self.condition.run(scope, state))
                return value if some else not value
            variable, op = self.bindings[depth]
            items = op.run(scope, state)
            if not items:
                return False
            child = scope.bind(variable, [])
            for item in items:
                child._variables[variable] = [item]
                if decided(depth + 1, child):
                    return True
            return False

        settled = decided(0, ctx)
        return [settled if some else not settled]

    def explain_node(self):
        children = [_Node(f"${variable} in", [op.explain_node()])
                    for variable, op in self.bindings]
        children.append(_Node("satisfies", [self.condition.explain_node()]))
        return _Node(self.kind, children, kind="quantified", ref=self)


class ElementConstructorOp(Op):
    __slots__ = ("name", "content")

    def __init__(self, name: str, content: Op | None) -> None:
        self.name = name
        self.content = content

    def run(self, ctx, state):
        constructed = XmlElement(self.name)
        if self.content is not None:
            pending: list[str] = []

            def flush() -> None:
                if pending:
                    constructed.append(" ".join(pending))
                    pending.clear()

            for item in self.content.run(ctx, state):
                if isinstance(item, XmlElement):
                    flush()
                    constructed.append(item.copy())
                else:
                    pending.append(string_value(item))
            flush()
        return [constructed]

    def explain_node(self):
        children = [] if self.content is None \
            else [self.content.explain_node()]
        return _Node(f"element {self.name}", children,
                     kind="element", ref=self)


# --------------------------------------------------------------------------- #
# Per-operator instrumentation
# --------------------------------------------------------------------------- #

def _traced(run):
    """Wrap an operator's ``run`` with the EXPLAIN ANALYZE recorder.

    The fast path — no analysis requested — is one attribute read and a
    branch; analyzed executions accumulate ``[calls, rows, inclusive
    wall ns]`` per operator identity.  Times are inclusive of child
    operators (the Postgres convention for loops is matched on calls and
    rows: an operator run N times reports the totals over all N calls).
    """
    def traced_run(self, ctx, state):
        trace = state.trace
        if trace is None:
            return run(self, ctx, state)
        started = time.perf_counter_ns()
        result = run(self, ctx, state)
        elapsed = time.perf_counter_ns() - started
        entry = trace.get(id(self))
        if entry is None:
            trace[id(self)] = [1, len(result), elapsed]
        else:
            entry[0] += 1
            entry[1] += len(result)
            entry[2] += elapsed
        return result
    traced_run.__wrapped__ = run
    return traced_run


for _op_class in (LiteralOp, VarRefOp, ContextItemOp, DocOp, FunctionCallOp,
                  SequenceOp, IfOp, LogicalOp, NotOp, ArithmeticOp,
                  ComparisonOp, PathOp, IndexedPathOp, CachedSourceOp,
                  JoinGroupOp, FLWOROp, QuantifiedOp, ElementConstructorOp):
    _op_class.run = _traced(_op_class.run)
del _op_class


# --------------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------------- #

class _Lowerer:
    """AST → operator tree in one pass, applying every rule-based rewrite.

    * **Constant folding** — a comparison, arithmetic, ``not`` or
      logical whose lowered operands are all literals is run once, by
      the plan's own operator, and replaced by its single atomic value;
      an operator that raises is kept, so the error still surfaces at
      run time.  A logical with a literal left operand that decides the
      result alone folds too (the right operand never runs), and an
      ``if`` over a literal condition becomes the branch it takes.
      LIKE and constant-``doc()`` detection read the folded operands.
    * **WHERE-to-predicate fusion** — see :meth:`_fuse`.
    * **Index-backed paths** — a path rooted at a constant ``doc()``
      becomes an :class:`IndexedPathOp`.  ``index_paths=False``
      disables it: a test-only perturbation knob (see
      :func:`compile_query`) that forces a visibly different, slower
      plan so the perf regression gate can be exercised end to end.
    """

    def __init__(self, functions: FunctionRegistry,
                 index_paths: bool = True) -> None:
        self.functions = functions
        self.builtin_doc = uses_builtin_doc(functions)
        self.index_paths = index_paths
        self.folds = 0
        self.where_fused = 0
        self.indexed_paths = 0

    def rewrites(self) -> dict[str, int]:
        """The rewrite counters a plan reports, for the tree lowered so
        far."""
        return {
            "constant-fold": self.folds,
            "where-to-predicate": self.where_fused,
            "index-paths": self.indexed_paths,
        }

    def lower(self, node: Expr) -> Op:
        if isinstance(node, Literal):
            return LiteralOp(node.value)
        if isinstance(node, VarRef):
            return VarRefOp(node.name)
        if isinstance(node, ContextItem):
            return ContextItemOp()
        if isinstance(node, FunctionCall):
            return self._lower_call(node)
        if isinstance(node, PathExpr):
            return self._lower_path(node)
        if isinstance(node, Comparison):
            return self._fold(self._lower_comparison(node))
        if isinstance(node, Arithmetic):
            return self._fold(ArithmeticOp(node.op, self.lower(node.left),
                                           self.lower(node.right)))
        if isinstance(node, Logical):
            return self._lower_logical(node)
        if isinstance(node, Not):
            return self._fold(NotOp(self.lower(node.operand)))
        if isinstance(node, Sequence):
            return SequenceOp(tuple(self.lower(item)
                                    for item in node.items))
        if isinstance(node, IfExpr):
            return self._lower_if(node)
        if isinstance(node, FLWOR):
            return self._lower_flwor(node)
        if isinstance(node, Quantified):
            bindings = tuple((b.variable, self.lower(b.source))
                             for b in node.bindings)
            return QuantifiedOp(node.kind, bindings,
                                self.lower(node.condition))
        if isinstance(node, ElementConstructor):
            content = self.lower(node.content) \
                if node.content is not None else None
            return ElementConstructorOp(node.name, content)
        raise TypeError(  # pragma: no cover - parser emits known nodes
            f"cannot lower AST node {type(node).__name__}")

    # -- constant folding --------------------------------------------------- #

    def _fold(self, op: Op) -> Op:
        if not all(isinstance(child, LiteralOp) for child in _children(op)):
            return op
        try:
            value = op.run(DynamicContext(), _ExecState())
        except XQueryError:
            return op
        if len(value) == 1 and isinstance(value[0], (str, float, bool)):
            self.folds += 1
            return LiteralOp(value[0])
        return op

    def _lower_discarded(self, node: Expr) -> None:
        """Lower a subtree that folding drops: its constant folds count,
        its fusions and index paths never reach the plan."""
        counters = self.where_fused, self.indexed_paths
        self.lower(node)
        self.where_fused, self.indexed_paths = counters

    def _lower_logical(self, node: Logical) -> Op:
        left = self.lower(node.left)
        decides = node.op == "or"
        if isinstance(left, LiteralOp) \
                and effective_boolean_value([left.value]) == decides:
            # Short circuit: the right operand never runs, so dropping
            # it is exact.
            self._lower_discarded(node.right)
            self.folds += 1
            return LiteralOp(decides)
        return self._fold(LogicalOp(node.op, left, self.lower(node.right)))

    def _lower_if(self, node: IfExpr) -> Op:
        condition = self.lower(node.condition)
        if not isinstance(condition, LiteralOp):
            return IfOp(condition, self.lower(node.then_branch),
                        self.lower(node.else_branch))
        taken, dropped = node.then_branch, node.else_branch
        if not effective_boolean_value([condition.value]):
            taken, dropped = dropped, taken
        self._lower_discarded(dropped)
        self.folds += 1
        return self.lower(taken)

    # -- calls, paths, comparisons ----------------------------------------- #

    def _lower_call(self, node: FunctionCall) -> Op:
        args = tuple(self.lower(arg) for arg in node.args)
        if self.builtin_doc and node.name in ("doc", "fn:doc") \
                and len(args) == 1 and isinstance(args[0], LiteralOp) \
                and isinstance(args[0].value, str):
            return DocOp(args[0].value)
        return FunctionCallOp(node.name, args)

    def _lower_path(self, node: PathExpr) -> Op:
        base = self.lower(node.base)
        steps = tuple(
            StepPlan(step.axis, step.kind, step.name,
                     tuple((self.lower(predicate), False)
                           for predicate in step.predicates))
            for step in node.steps)
        if self.index_paths and isinstance(base, DocOp) and steps:
            self.indexed_paths += 1
            return IndexedPathOp(base.name, steps)
        return PathOp(base, steps)

    def _lower_comparison(self, node: Comparison) -> Op:
        left = self.lower(node.left)
        right = self.lower(node.right)
        like = None
        if node.op in ("=", "!="):
            for operand, side in ((right, "left"), (left, "right")):
                if isinstance(operand, LiteralOp) \
                        and isinstance(operand.value, str) \
                        and "%" in operand.value:
                    like = (operand.value, _like_pattern(operand.value),
                            side)
                    break
        return ComparisonOp(node.op, left, right, like)

    # -- FLWOR and fusion --------------------------------------------------- #

    def _lower_flwor(self, node: FLWOR) -> Op:
        clauses = tuple(
            ("for", clause.variable, self.lower(clause.source))
            if isinstance(clause, ForClause)
            else ("let", clause.variable, self.lower(clause.value))
            for clause in node.clauses)
        where = self.lower(node.where) if node.where is not None else None
        if where is not None and self._fuse(clauses, where):
            where = None
        order_specs = tuple((self.lower(spec.key), spec.descending)
                            for spec in node.order_specs)
        return FLWOROp(clauses, where, order_specs,
                       self.lower(node.returns))

    def _fuse(self, clauses: tuple, where: Op) -> bool:
        """WHERE-to-predicate fusion; True when the WHERE moved.

        For ``for $b in path where C($b) return R`` the conjuncts of
        ``C`` become pushed predicates on the path's last step (``$b``
        becomes ``.``), so the plan filters during the scan instead of
        materializing every binding first.  The WHERE fuses onto the
        innermost clause, which must be a ``for`` over a path ending in
        an element step, and only when every conjunct passes
        :func:`_fusable` and mentions no outer binding of this FLWOR — a
        conjunct over an outer binding is a join predicate, left in
        WHERE for the join planner.  Fusion is all-or-nothing, so the
        conjunct short-circuit order — and therefore which error
        surfaces first — is unchanged.
        """
        kind, variable, source = clauses[-1]
        if kind != "for" or not isinstance(source, (PathOp, IndexedPathOp)) \
                or not source.steps or source.steps[-1].kind != "element":
            return False
        outer = {name for _kind, name, _op in clauses[:-1]} - {variable}
        conjuncts = _split_conjuncts_op(where)
        if not all(_fusable(conjunct, variable)
                   and not _op_variables(conjunct) & outer
                   for conjunct in conjuncts):
            return False
        last = source.steps[-1]
        last.predicates += tuple((_focus_on(conjunct, variable), True)
                                 for conjunct in conjuncts)
        self.where_fused += len(conjuncts)
        return True


# --------------------------------------------------------------------------- #
# Cost-based planning
# --------------------------------------------------------------------------- #

#: Operator reversal for comparisons written literal-first.
_REVERSED_OP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=",
                "=": "=", "!=": "!="}


class _CostPlanner:
    """Statistics-driven physical planning over a lowered operator tree.

    Three answer-preserving decision families (see the module docstring)
    are applied in place; every choice is recorded in ``cost_info``
    (keyed ``id(op-or-step)``, joined onto the explain tree) and tallied
    in ``decisions``.  Estimates are pure functions of the statistics,
    so identical statistics produce identical costed plans in any
    process.
    """

    def __init__(self, statistics: "Statistics",
                 join_search: bool = True) -> None:
        self.statistics = statistics
        self.join_search = join_search
        self.cost_info: dict[int, dict] = {}
        self.decisions = {
            "cached-sources": 0,
            "hash-joins": 0,
            "hoisted-predicates": 0,
            "index-steps": 0,
            "join-groups": 0,
            "loop-joins": 0,
            "reordered-predicates": 0,
            "scan-steps": 0,
            "steps-costed": 0,
        }

    # -- tree walk -------------------------------------------------------- #

    def walk(self, op: Op) -> Op:
        if isinstance(op, FLWOROp):
            return self._cost_flwor(op)
        if isinstance(op, IndexedPathOp):
            self._cost_indexed_path(op)
        for child in _children(op):
            self.walk(child)
        return op

    def _cost_flwor(self, op: FLWOROp) -> Op:
        walked = [(kind, variable, self.walk(source))
                  for kind, variable, source in op.clauses]
        joined = None
        if self.join_search and op.where is not None and len(walked) >= 2:
            joined = self._plan_join(op, walked)
        if joined is not None:
            op.clauses = joined
        else:
            clauses = []
            for position, (kind, variable, source) in enumerate(walked):
                if kind == "for" and position > 0 \
                        and _is_loop_invariant(source):
                    # Inner loop-invariant sources re-evaluate once per
                    # outer binding; memoizing is cheaper whenever the
                    # outer side binds more than once, which statistics
                    # can't rule out — so the planner always takes it.
                    source = CachedSourceOp(source)
                    self.decisions["cached-sources"] += 1
                    self.cost_info[id(source)] = {"strategy": "memo"}
                clauses.append((kind, variable, source))
            op.clauses = tuple(clauses)
        if op.where is not None:
            self.walk(op.where)
        for key_op, _descending in op.order_specs:
            self.walk(key_op)
        self.walk(op.returns)
        return op

    # -- join planning ----------------------------------------------------- #

    def _plan_join(self, op: FLWOROp, walked: list) -> tuple | None:
        """Try to turn a prefix of *walked* clauses plus hoistable WHERE
        conjuncts into a cost-ordered :class:`JoinGroupOp` clause.

        Returns the transformed clause tuple (mutating ``op.where`` down
        to the residual conjuncts) or None to keep the nested loop.
        Safety rules — each one protects byte-identical results:

        * the group is a maximal prefix of ``for``-clauses whose sources
          reference none of the group's variables (clause order is the
          evaluation order the interpreter uses, so raw sources are
          still evaluated in it);
        * duplicate or tail-shadowed group names bail out — a conjunct
          mentioning the name would not unambiguously reference the
          group binding;
        * every clause *after* the group must be provably total:
          hoisted filtering evaluates strictly fewer combinations, so a
          tail source that could raise might lose its error;
        * a conjunct is hoisted only when it is total, boolean-shaped,
          over group variables only, and every conjunct *before* it is
          total (the interpreter stops at the first false conjunct, so
          an early false may hide a later raise — but only if some
          earlier conjunct could itself raise).
        """
        group: list[tuple[str, Op]] = []
        bound: set[str] = set()
        for kind, variable, source in walked:
            if kind != "for" or (_op_variables(source) & bound):
                break
            group.append((variable, source))
            bound.add(variable)
        if len(group) < 2:
            return None
        group_vars = tuple(variable for variable, _source in group)
        if len(set(group_vars)) != len(group_vars):
            return None
        tail = walked[len(group):]
        if {variable for _kind, variable, _source in tail} & bound:
            return None
        env = {variable: _binding_kind(source)
               for variable, source in group}
        for _kind, variable, source in tail:
            if not _op_cannot_raise(source, env):
                return None
            env[variable] = _binding_kind(source)

        conjuncts = _split_conjuncts_op(op.where)
        hoisted: list[Op] = []
        residual: list[Op] = []
        prefix_total = True
        for conjunct in conjuncts:
            total = _conjunct_cannot_raise(conjunct, env)
            if prefix_total and total \
                    and _op_variables(conjunct) <= bound:
                hoisted.append(conjunct)
            else:
                residual.append(conjunct)
            prefix_total = prefix_total and total
        if not hoisted:
            return None

        # -- classify hoisted conjuncts --------------------------------- #
        positions = {variable: index
                     for index, variable in enumerate(group_vars)}
        prefilters: list[Op] = []
        per_source: dict[str, list[Op]] = {v: [] for v in group_vars}
        edges: list[tuple] = []   # (hoist idx, lpos, lkey, rpos, rkey, op)
        cross: list[tuple] = []   # (hoist idx, frozenset positions, op)
        for hoist_index, conjunct in enumerate(hoisted):
            names = _op_variables(conjunct)
            if not names:
                prefilters.append(conjunct)
            elif len(names) == 1:
                per_source[next(iter(names))].append(conjunct)
            else:
                edge = _equi_edge(conjunct, positions)
                if edge is not None:
                    edges.append((hoist_index,) + edge + (conjunct,))
                else:
                    cross.append((hoist_index,
                                  frozenset(positions[name]
                                            for name in names), conjunct))

        # -- estimate filtered input sizes ------------------------------- #
        rows: list[float] = []
        docinfo: list[tuple] = []
        for variable, source in group:
            docstats, context_tag = self._source_docstats(source)
            base = self._source_rows(source)
            selectivity = 1.0
            for conjunct in per_source[variable]:
                selectivity *= _selectivity(conjunct, variable,
                                            context_tag, docstats)
            rows.append(max(base * selectivity, 0.05))
            docinfo.append((docstats, context_tag))

        def key_distinct(key_op: Op, position: int) -> float:
            docstats, _context_tag = docinfo[position]
            tag = _child_tag(key_op, group_vars[position])
            if tag is not None and docstats is not None:
                return float(docstats.distinct_estimate(tag))
            return max(1.0, rows[position])

        edge_records = [record + (
            _cost.join_selectivity(key_distinct(record[2], record[1]),
                                   key_distinct(record[4], record[3])),)
            for record in edges]
        # record = (hoist idx, lpos, lkey, rpos, rkey, op, selectivity)

        def connects(record, new: int, done: frozenset) -> bool:
            return (record[1] == new and record[3] in done) \
                or (record[3] == new and record[1] in done)

        def stage_estimates(done: frozenset, done_rows: float, new: int):
            """(out rows, loop cost, hash cost by build side) of folding
            source *new* into the tuples over *done*."""
            selectivity = 1.0
            has_edge = False
            for record in edge_records:
                if connects(record, new, done):
                    selectivity *= record[6]
                    has_edge = True
            for _index, poss, _conjunct in cross:
                if poss <= done | {new} and not poss <= done:
                    selectivity *= _cost.DEFAULT_SELECTIVITY
            out = _cost.join_cardinality(done_rows, rows[new], selectivity)
            loop = _cost.loop_join_cost(done_rows, rows[new], out)
            if has_edge:
                hash_source = _cost.hash_join_cost(rows[new], done_rows,
                                                   out)
                hash_tuples = _cost.hash_join_cost(done_rows, rows[new],
                                                   out)
            else:
                hash_source = hash_tuples = None
            return out, loop, hash_source, hash_tuples

        def best_stage_cost(done: frozenset, done_rows: float, new: int):
            out, loop, hash_source, hash_tuples = \
                stage_estimates(done, done_rows, new)
            best = min(candidate for candidate
                       in (loop, hash_source, hash_tuples)
                       if candidate is not None)
            return out, best

        def order_cost(order: tuple[int, ...]) -> float:
            total = 0.0
            done = frozenset((order[0],))
            done_rows = rows[order[0]]
            for new in order[1:]:
                out, best = best_stage_cost(done, done_rows, new)
                total += best
                done = done | {new}
                done_rows = out
            return total

        # -- join-order search: DP on subsets, greedy past 5 sources ----- #
        size = len(group)
        considered = 0
        if size <= 5:
            best_plan: dict[frozenset, tuple] = {
                frozenset((index,)): (0.0, rows[index], (index,))
                for index in range(size)}
            for subset_size in range(2, size + 1):
                for subset in itertools.combinations(range(size),
                                                     subset_size):
                    key = frozenset(subset)
                    entry = None
                    for last in subset:
                        previous = best_plan[key - {last}]
                        prev_cost, prev_rows, prev_order = previous
                        out, best = best_stage_cost(key - {last},
                                                    prev_rows, last)
                        considered += 1
                        candidate = (prev_cost + best, out,
                                     prev_order + (last,))
                        if entry is None or (candidate[0], candidate[2]) \
                                < (entry[0], entry[2]):
                            entry = candidate
                    best_plan[key] = entry
            chosen_cost, _final_rows, chosen_order = \
                best_plan[frozenset(range(size))]
        else:
            start = min(range(size), key=lambda index: (rows[index], index))
            order = [start]
            done = frozenset((start,))
            done_rows = rows[start]
            chosen_cost = 0.0
            while len(order) < size:
                pick = None
                for new in range(size):
                    if new in done:
                        continue
                    out, best = best_stage_cost(done, done_rows, new)
                    considered += 1
                    if pick is None or (best, new) < (pick[0], pick[1]):
                        pick = (best, new, out)
                chosen_cost += pick[0]
                done = done | {pick[1]}
                done_rows = pick[2]
                order.append(pick[1])
            chosen_order = tuple(order)

        # -- build the stage program ------------------------------------- #
        start = chosen_order[0]
        stages: list[_JoinStage] = []
        done = frozenset((start,))
        done_rows = rows[start]
        for new in chosen_order[1:]:
            stage_edges = [record for record in edge_records
                           if connects(record, new, done)]
            stage_cross = [entry for entry in cross
                           if entry[1] <= done | {new}
                           and not entry[1] <= done]
            out, loop, hash_source, hash_tuples = \
                stage_estimates(done, done_rows, new)
            options = [(loop, 0, "loop", "")]
            if hash_source is not None:
                options.append((hash_source, 1, "hash", "source"))
                options.append((hash_tuples, 2, "hash", "tuples"))
            cost_chosen, _rank, strategy, build = min(options)

            primary = None
            if strategy == "hash":
                primary = min(stage_edges,
                              key=lambda record: (record[6], record[0]))
            ordered_filters = [(record[0], record[5])
                               for record in stage_edges
                               if record is not primary]
            ordered_filters.extend((index, conjunct)
                                   for index, _poss, conjunct in stage_cross)
            ordered_filters.sort(key=lambda entry: entry[0])
            hash_filters = tuple(conjunct
                                 for _index, conjunct in ordered_filters)
            if primary is not None:
                ordered_filters.append((primary[0], primary[5]))
                ordered_filters.sort(key=lambda entry: entry[0])
            loop_filters = tuple(conjunct
                                 for _index, conjunct in ordered_filters)

            edge = None
            if primary is not None:
                if primary[1] in done:
                    edge = (primary[1], primary[2], primary[4], primary[5])
                else:
                    edge = (primary[3], primary[4], primary[2], primary[5])
            stage = _JoinStage(new, group_vars[new], strategy, build,
                               edge, hash_filters, loop_filters)
            info: dict = {
                "strategy": strategy,
                "est_rows": max(0, round(out)),
                "est_cost": round(cost_chosen, 3),
                "alternatives": [
                    {"strategy": "loop", "cost": round(loop, 3)}],
            }
            if hash_source is not None:
                info["alternatives"].append(
                    {"strategy": "hash", "build": f"${group_vars[new]}",
                     "cost": round(hash_source, 3)})
                info["alternatives"].append(
                    {"strategy": "hash", "build": "tuples",
                     "cost": round(hash_tuples, 3)})
            if strategy == "hash":
                info["build"] = f"${group_vars[new]}" \
                    if build == "source" else "tuples"
                build_rows = rows[new] if build == "source" else done_rows
                probe_rows = done_rows if build == "source" else rows[new]
                info["est_build_rows"] = max(0, round(build_rows))
                info["est_probe_rows"] = max(0, round(probe_rows))
            stage.est_rows = info["est_rows"]
            self.cost_info[id(stage)] = info
            self.decisions["hash-joins" if strategy == "hash"
                           else "loop-joins"] += 1
            stages.append(stage)
            done = done | {new}
            done_rows = out

        group_op = JoinGroupOp(
            variables=group_vars,
            sources=tuple(source for _variable, source in group),
            source_filters=tuple(tuple(per_source[variable])
                                 for variable in group_vars),
            prefilters=tuple(prefilters),
            start=start,
            stages=tuple(stages))
        self.decisions["join-groups"] += 1
        self.decisions["hoisted-predicates"] += len(hoisted)
        clause_order = tuple(range(size))
        group_info = {
            "strategy": "join-group",
            "order": [f"${group_vars[position]}"
                      for position in chosen_order],
            "est_rows": max(0, round(done_rows)),
            "est_cost": round(chosen_cost, 3),
            "orders_considered": considered,
            "alternatives": [{
                "order": [f"${group_vars[position]}"
                          for position in clause_order],
                "cost": round(order_cost(clause_order), 3),
            }],
        }
        self.cost_info[id(group_op)] = group_info

        op.where = _join_conjuncts_op(residual) if residual else None
        clauses: list = [("join", group_vars, group_op)]
        for kind, variable, source in tail:
            if kind == "for" and _is_loop_invariant(source):
                source = CachedSourceOp(source)
                self.decisions["cached-sources"] += 1
                self.cost_info[id(source)] = {"strategy": "memo"}
            clauses.append((kind, variable, source))
        return tuple(clauses)

    def _source_rows(self, source: Op) -> float:
        """Row estimate for one group source, reusing the step costing
        this planner already recorded for indexed paths."""
        if isinstance(source, IndexedPathOp):
            for step in reversed(source.steps):
                info = self.cost_info.get(id(step))
                if info and "est_rows" in info:
                    return float(info["est_rows"])
        if isinstance(source, (DocOp, LiteralOp)):
            return 1.0
        if isinstance(source, SequenceOp):
            return float(len(source.items))
        return _cost.DEFAULT_JOIN_ROWS

    def _source_docstats(self, source: Op) -> tuple:
        """(document statistics, context tag) for ``$var``-relative
        estimation over a group source, when the source is an indexed
        path ending in a named element step."""
        if isinstance(source, IndexedPathOp):
            docstats = self.statistics.for_document(source.doc_name)
            steps = source.steps
            if steps and steps[-1].kind == "element" \
                    and steps[-1].name != "*":
                return docstats, steps[-1].name
            return docstats, None
        return None, None

    # -- path-step costing ------------------------------------------------ #

    def _cost_indexed_path(self, op: IndexedPathOp) -> None:
        docstats = self.statistics.for_document(op.doc_name)
        if docstats is None:
            return
        card = 1.0
        context_tag: str | None = None   # None = the #document node
        for step in op.steps:
            if step.kind != "element" or step.name == "*":
                # Attribute, text and wildcard steps have exactly one
                # physical strategy; estimate rows and stop costing —
                # the context tag is no longer a single element name.
                est = card if step.kind != "element" \
                    else card * docstats.avg_children(context_tag)
                self.cost_info[id(step)] = {
                    "est_rows": max(0, round(est))}
                break
            card, context_tag = self._cost_step(step, card, context_tag,
                                                docstats)

    def _cost_step(self, step: StepPlan, card: float,
                   context_tag: str | None,
                   docstats: "DocumentStats") -> tuple[float, str]:
        self.decisions["steps-costed"] += 1
        if step.axis == "child":
            est = card * docstats.fanout(context_tag, step.name)
            pool = docstats.avg_children(context_tag)
            if context_tag is None:
                # The document node is outside the index: a probe there
                # always misses and falls back to the scan.
                index_cost = _cost.document_node_index_cost(card, pool, est)
            else:
                index_cost = _cost.index_step_cost(card, est)
            scan_cost = _cost.scan_step_cost(card, pool, est)
        else:
            if context_tag is None:
                est = float(docstats.tag_count(step.name))
            else:
                parents = docstats.tag_count(context_tag)
                est = card * (docstats.tag_count(step.name) / parents
                              if parents else 0.0)
            # Descendant steps are index-served even from the document
            # node (the whole posting list); the scan walks the subtree.
            index_cost = _cost.index_step_cost(card, est)
            scan_cost = _cost.scan_step_cost(
                card, docstats.avg_subtree(context_tag), est)

        chosen = "index" if index_cost <= scan_cost else "scan"
        step.strategy = chosen
        self.decisions[f"{chosen}-steps"] += 1
        selectivity = self._cost_predicates(step, docstats)
        est_after = est * selectivity
        step.est_rows = max(0, round(est_after))
        info = {
            "strategy": chosen,
            "est_rows": step.est_rows,
            "est_cost": round(min(index_cost, scan_cost), 3),
            "alternatives": [
                {"strategy": "index", "cost": round(index_cost, 3)},
                {"strategy": "scan", "cost": round(scan_cost, 3)},
            ],
        }
        if step.predicates:
            info["est_selectivity"] = round(selectivity, 4)
        self.cost_info[id(step)] = info
        return max(est_after, 0.0), step.name

    def _cost_predicates(self, step: StepPlan,
                         docstats: "DocumentStats") -> float:
        if not step.predicates:
            return 1.0
        selectivities = [_selectivity(predicate, _CONTEXT, step.name,
                                      docstats)
                         for predicate, _pushed in step.predicates]
        for (predicate, _pushed), estimate in zip(step.predicates,
                                                  selectivities):
            self.cost_info.setdefault(id(predicate), {})[
                "est_selectivity"] = round(estimate, 4)
        # Pushed-from-WHERE predicates form a contiguous suffix (fusion
        # appends them) and are provably boolean-valued, so running the
        # most selective first filters the same set in fewer predicate
        # evaluations.  Hand-written predicates keep their positions —
        # a positional predicate must never move.  Predicates that can
        # raise (numeric coercion of a non-numeric value, even in an
        # operand of a LIKE comparison) are barriers:
        # moving anything across one would change which items reach it
        # before a short-circuit, turning an error into a silent filter
        # (or vice versa) — only runs of total predicates may permute.
        pushed_count = sum(1 for _predicate, pushed in step.predicates
                           if pushed)
        start = len(step.predicates) - pushed_count
        if pushed_count > 1 and all(
                pushed for _predicate, pushed in step.predicates[start:]):
            suffix = list(step.predicates[start:])
            reordered = list(suffix)
            run_start = 0
            for position in range(len(suffix) + 1):
                at_barrier = position == len(suffix) \
                    or not _conjunct_cannot_raise(suffix[position][0],
                                                  _FOCUS)
                if not at_barrier:
                    continue
                run = range(run_start, position)
                order = sorted(run, key=lambda j: (
                    selectivities[start + j], j))
                for target, source_pos in zip(run, order):
                    reordered[target] = suffix[source_pos]
                run_start = position + 1
            if reordered != suffix:
                step.predicates = step.predicates[:start] \
                    + tuple(reordered)
                self.decisions["reordered-predicates"] += 1
        product = 1.0
        for estimate in selectivities:
            product *= estimate
        return product


# --------------------------------------------------------------------------- #
# Plan analysis: operator children, totality, comparison shapes and
# selectivity.  One analysis serves predicate reordering (where the
# context item ``.`` is the binding) and join hoisting (where the group
# variables are): the context item is just another element-kinded
# binding, named :data:`_CONTEXT` in a binding-kind environment.
# --------------------------------------------------------------------------- #

#: The binding name the analysis gives the context item ``.``.
_CONTEXT = "."

#: The environment inside a costed step's predicates: the focus is one
#: of the step's (named) elements.
_FOCUS = {_CONTEXT: "element"}

#: Builtins guaranteed to return a single boolean.
_BOOLEAN_FUNCTIONS = frozenset({
    "contains", "starts-with", "ends-with", "matches",
    "empty", "exists", "boolean", "not", "true", "false",
})

#: Builtins whose value depends on the predicate focus.
_FOCUS_FUNCTIONS = frozenset({"position", "last"})

#: Operators that never have children; most nodes of a plan are these,
#: so :func:`_children` answers them first.
_LEAF_OPS = (LiteralOp, VarRefOp, ContextItemOp, DocOp)

#: Operators whose value changes only when one of their children's does.
_TRANSPARENT_OPS = (FunctionCallOp, SequenceOp, IfOp, LogicalOp, NotOp,
                    ArithmeticOp, ComparisonOp, PathOp, IndexedPathOp)


def _children(op: Op) -> list[Op]:
    """Every operator directly under *op*, step predicates included."""
    if isinstance(op, _LEAF_OPS):
        return []
    if isinstance(op, (PathOp, IndexedPathOp)):
        children = [op.base] if isinstance(op, PathOp) else []
        children.extend(predicate for step in op.steps
                        for predicate, _pushed in step.predicates)
        return children
    if isinstance(op, FunctionCallOp):
        return list(op.args)
    if isinstance(op, SequenceOp):
        return list(op.items)
    if isinstance(op, IfOp):
        return [op.condition, op.then_branch, op.else_branch]
    if isinstance(op, (LogicalOp, ArithmeticOp, ComparisonOp)):
        return [op.left, op.right]
    if isinstance(op, NotOp):
        return [op.operand]
    if isinstance(op, CachedSourceOp):
        return [op.source]
    if isinstance(op, FLWOROp):
        children = [source for _kind, _variable, source in op.clauses]
        if op.where is not None:
            children.append(op.where)
        children.extend(key_op for key_op, _descending in op.order_specs)
        children.append(op.returns)
        return children
    if isinstance(op, JoinGroupOp):
        children = list(op.sources) + list(op.prefilters)
        for filters in op.source_filters:
            children.extend(filters)
        for stage in op.stages:
            children.extend(stage.loop_filters)
        return children
    if isinstance(op, QuantifiedOp):
        return [source for _variable, source in op.bindings] \
            + [op.condition]
    if isinstance(op, ElementConstructorOp) and op.content is not None:
        return [op.content]
    return []


def _is_loop_invariant(op: Op) -> bool:
    """True when *op*'s subtree references no variable and no context
    item, so its value cannot change across outer FLWOR bindings.

    FLWORs, quantifiers and constructors bind or construct — they stay
    conservatively variant.
    """
    if isinstance(op, (LiteralOp, DocOp, CachedSourceOp)):
        return True
    return isinstance(op, _TRANSPARENT_OPS) \
        and all(_is_loop_invariant(child) for child in _children(op))


def _op_variables(op: Op) -> frozenset[str]:
    """Every variable name referenced anywhere under *op*.

    Over-approximate on purpose: variables bound by nested FLWORs or
    quantifiers are included too, so a source is only ever judged
    *more* dependent than it really is — never less.
    """
    names: set[str] = set()
    stack: list[Op] = [op]
    while stack:
        node = stack.pop()
        if isinstance(node, VarRefOp):
            names.add(node.name)
        stack.extend(_children(node))
    return frozenset(names)


def _binding_of(op: Op) -> str | None:
    """The binding *op* reads directly: a variable's name, or
    :data:`_CONTEXT` for ``.``; None for anything else."""
    if isinstance(op, VarRefOp):
        return op.name
    if isinstance(op, ContextItemOp):
        return _CONTEXT
    return None


def _binding_kind(op: Op) -> str:
    """What a ``for`` over *op* binds each item to: ``"element"``,
    ``"string"``, ``"atomic"`` (numbers/booleans) or ``"unknown"``."""
    if isinstance(op, CachedSourceOp):
        return _binding_kind(op.source)
    if isinstance(op, DocOp):
        return "element"
    if isinstance(op, (PathOp, IndexedPathOp)) and op.steps:
        return "element" if op.steps[-1].kind == "element" else "string"
    if isinstance(op, LiteralOp):
        return "string" if isinstance(op.value, str) else "atomic"
    if isinstance(op, SequenceOp) and op.items \
            and all(isinstance(item, LiteralOp) for item in op.items):
        if all(isinstance(item.value, str) for item in op.items):
            return "string"
        return "atomic"
    return "unknown"


def _operand_kind(op: Op, env: dict[str, str]) -> str:
    """The atom kind a comparison operand's value atomizes to, given
    the bindings' kinds in *env*: ``"string"``, ``"number"``, ``"bool"``
    or ``"unknown"``."""
    if isinstance(op, LiteralOp):
        if isinstance(op.value, bool):
            return "bool"
        if isinstance(op.value, float):
            return "number"
        return "string"
    if isinstance(op, (VarRefOp, ContextItemOp)):
        # Elements atomize to their string value.
        if env.get(_binding_of(op)) in ("element", "string"):
            return "string"
        return "unknown"
    if isinstance(op, (PathOp, IndexedPathOp)):
        # Elements, attributes and text steps all atomize to strings.
        return "string"
    if isinstance(op, SequenceOp):
        kinds = {_operand_kind(item, env) for item in op.items}
        if len(kinds) == 1:
            return kinds.pop()
        return "unknown"
    return "unknown"


def _op_cannot_raise(op: Op, env: dict[str, str]) -> bool:
    """True when evaluating *op* can never raise, with bindings of the
    kinds recorded in *env* (``.`` under :data:`_CONTEXT`).

    Node values atomize to strings, so a comparison is total when both
    operands are and they stay on one atom kind: a LIKE pattern matches
    the text of any atom, and boolean literals only admit (total)
    effective-boolean equality, while a number against node text forces
    ``to_number``, which raises on non-numeric values.  Arithmetic and
    function calls count as raising.  Doc-rooted paths count as raising
    too — a missing document raises
    :class:`~repro.xquery.errors.XQueryNameError`, and no plan choice
    may hide that.  Unbound-variable errors are out of scope: a
    reference to a genuinely unbound name is a broken query, not a
    plan-dependent behavior this engine defends.
    """
    if isinstance(op, (LiteralOp, VarRefOp)):
        return True
    if isinstance(op, ContextItemOp):
        # '.' raises outside a predicate focus.
        return _CONTEXT in env
    if isinstance(op, PathOp):
        if env.get(_binding_of(op.base)) != "element":
            return False
        for position, step in enumerate(op.steps):
            if step.kind != "element" and position < len(op.steps) - 1:
                # Attribute/text steps yield strings; a further step on
                # an atomic raises.
                return False
            focus = {**env, _CONTEXT: "element" if step.kind == "element"
                     else "string"}
            if any(not _conjunct_cannot_raise(predicate, focus)
                   for predicate, _pushed in step.predicates):
                return False
        return True
    if isinstance(op, ComparisonOp):
        if not (_op_cannot_raise(op.left, env)
                and _op_cannot_raise(op.right, env)):
            return False
        if op.like is not None:
            return True
        left_kind = _operand_kind(op.left, env)
        right_kind = _operand_kind(op.right, env)
        if op.op in ("=", "!=") and "bool" in (left_kind, right_kind):
            # Boolean general comparison takes the (total) effective-
            # boolean-value path on singletons of any kind.
            return "unknown" not in (left_kind, right_kind)
        if left_kind == right_kind and left_kind in ("string", "number"):
            return True
        return False
    if isinstance(op, LogicalOp):
        # and/or take the effective boolean value of each side, which
        # raises on multi-item atomic sequences — require boolean shape.
        return _conjunct_cannot_raise(op.left, env) \
            and _conjunct_cannot_raise(op.right, env)
    if isinstance(op, NotOp):
        return _conjunct_cannot_raise(op.operand, env)
    if isinstance(op, SequenceOp):
        return all(_op_cannot_raise(item, env) for item in op.items)
    return False


def _boolean_shaped(op: Op) -> bool:
    """True when *op* always yields a singleton boolean, so taking its
    effective boolean value cannot raise and, as a predicate, it never
    switches to position-filter semantics."""
    if isinstance(op, (ComparisonOp, LogicalOp, NotOp)):
        return True
    if isinstance(op, FunctionCallOp):
        return op.name.removeprefix("fn:") in _BOOLEAN_FUNCTIONS
    return isinstance(op, LiteralOp) and isinstance(op.value, bool)


def _conjunct_cannot_raise(op: Op, env: dict[str, str]) -> bool:
    """Total as a WHERE conjunct or step predicate: evaluation never
    raises *and* the result is boolean-shaped (its effective boolean
    value never raises either, and it is never a positional filter)."""
    return _boolean_shaped(op) and _op_cannot_raise(op, env)


def _child_tag(op: Op, binding: str) -> str | None:
    """The tag of a bare ``binding/child::Tag`` operand, else None."""
    if isinstance(op, PathOp) and _binding_of(op.base) == binding \
            and len(op.steps) == 1:
        step = op.steps[0]
        if step.axis == "child" and step.kind == "element" \
                and step.name != "*" and not step.predicates:
            return step.name
    return None


def _comparison_shape(op: ComparisonOp, binding: str) \
        -> tuple[str, str, object] | None:
    """Decompose ``binding/Tag <op> literal`` (either operand order)
    into ``(tag, normalized op, literal value)``; None when
    unreadable."""
    tag = _child_tag(op.left, binding)
    if tag is not None and isinstance(op.right, LiteralOp):
        return tag, op.op, op.right.value
    tag = _child_tag(op.right, binding)
    if tag is not None and isinstance(op.left, LiteralOp):
        return tag, _REVERSED_OP.get(op.op, op.op), op.left.value
    return None


def _selectivity(op: Op, binding: str, context_tag: str | None,
                 docstats: "DocumentStats | None") -> float:
    """Estimated fraction of *binding*'s items (elements tagged
    *context_tag*) that satisfy the predicate *op*, read as
    ``binding/Tag <op> literal`` comparisons under and/or/not against
    the document statistics; the default wherever it is unreadable."""
    if docstats is None or context_tag is None:
        return _cost.DEFAULT_SELECTIVITY
    if isinstance(op, ComparisonOp):
        shape = _comparison_shape(op, binding)
        if shape is None:
            return _cost.DEFAULT_SELECTIVITY
        child_tag, cmp_op, literal = shape
        pattern = op.like[1] if op.like is not None else None
        return _cost.comparison_selectivity(
            docstats, context_tag, child_tag, cmp_op, literal, pattern)
    if isinstance(op, LogicalOp):
        left = _selectivity(op.left, binding, context_tag, docstats)
        right = _selectivity(op.right, binding, context_tag, docstats)
        if op.op == "and":
            return left * right
        return min(1.0, left + right - left * right)
    if isinstance(op, NotOp):
        inner = _selectivity(op.operand, binding, context_tag, docstats)
        return max(_cost.EQUALITY_FLOOR, 1.0 - inner)
    return _cost.DEFAULT_SELECTIVITY


def _fusable(op: Op, variable: str) -> bool:
    """May WHERE conjunct *op* become a predicate on ``$variable``'s path?

    It must be boolean-shaped and focus-free: no ``.``, ``position()``
    or ``last()`` of its own, and no FLWOR or quantifier that could
    shadow the variable.  ``$variable`` must also not occur inside a
    nested step predicate, where ``.`` means that step's item and the
    substitution would read the wrong node.
    """
    if not _boolean_shaped(op):
        return False
    stack = [(op, False)]
    while stack:
        node, nested = stack.pop()
        if isinstance(node, (ContextItemOp, FLWOROp, QuantifiedOp)):
            return False
        if isinstance(node, FunctionCallOp) \
                and node.name.removeprefix("fn:") in _FOCUS_FUNCTIONS:
            return False
        if nested and isinstance(node, VarRefOp) and node.name == variable:
            return False
        if isinstance(node, (PathOp, IndexedPathOp)):
            if isinstance(node, PathOp):
                stack.append((node.base, nested))
            stack.extend((predicate, True) for step in node.steps
                         for predicate, _pushed in step.predicates)
        else:
            stack.extend((child, nested) for child in _children(node))
    return True


def _focus_on(op: Op, variable: str) -> Op:
    """Rewrite ``$variable`` under *op* to ``.``, in place.

    Operator slots are followed, step predicates (held by
    :class:`StepPlan`, not an operator) are not — :func:`_fusable` has
    already ruled out the variable there.
    """
    if isinstance(op, VarRefOp) and op.name == variable:
        return ContextItemOp()
    for slot in op.__slots__:
        value = getattr(op, slot)
        if isinstance(value, Op):
            setattr(op, slot, _focus_on(value, variable))
        elif isinstance(value, tuple) and value \
                and isinstance(value[0], Op):
            setattr(op, slot, tuple(_focus_on(item, variable)
                                    for item in value))
    return op


def _split_conjuncts_op(op: Op) -> list[Op]:
    """Flatten a lowered WHERE into its ``and``-conjuncts, in
    evaluation order."""
    if isinstance(op, LogicalOp) and op.op == "and":
        return _split_conjuncts_op(op.left) + _split_conjuncts_op(op.right)
    return [op]


def _join_conjuncts_op(conjuncts: list[Op]) -> Op:
    """Rebuild a left-associated ``and`` chain (the parser's shape)."""
    joined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        joined = LogicalOp("and", joined, conjunct)
    return joined


def _equi_edge(op: Op, positions: dict[str, int]) -> tuple | None:
    """Decompose an equality conjunct into a join edge
    ``(left position, left key op, right position, right key op)`` when
    each operand references exactly one (distinct) group variable."""
    if not isinstance(op, ComparisonOp) or op.op != "=" \
            or op.like is not None:
        return None
    left_names = _op_variables(op.left)
    right_names = _op_variables(op.right)
    if len(left_names) != 1 or len(right_names) != 1:
        return None
    left_var = next(iter(left_names))
    right_var = next(iter(right_names))
    if left_var == right_var:
        return None
    if left_var not in positions or right_var not in positions:
        return None
    return (positions[left_var], op.left, positions[right_var], op.right)


# --------------------------------------------------------------------------- #
# The Plan object and compilation entry point
# --------------------------------------------------------------------------- #

class Plan:
    """A compiled query: immutable operator tree + cumulative run stats.

    ``ast`` is the parsed query.  A plan bound from a template (see
    :mod:`repro.xquery.template`) is built without parsing its text, and
    parses it on first access.
    """

    def __init__(self, source: str, ast: Expr | None, root: Op,
                 functions: FunctionRegistry, parse_ns: int,
                 compile_ns: int, rewrites: dict[str, int],
                 perturbed: bool = False,
                 cost_info: dict[int, dict] | None = None,
                 decisions: dict[str, int] | None = None,
                 statistics_fingerprint: str | None = None,
                 joinless: bool = False) -> None:
        self.source = source
        self._ast = ast
        self.root = root
        self.functions = functions
        self.parse_ns = parse_ns
        self.compile_ns = compile_ns
        self.rewrites = dict(rewrites)
        self.perturbed = perturbed
        self.cost_info = cost_info if cost_info is not None else {}
        self.decisions = dict(decisions) if decisions else {}
        self.statistics_fingerprint = statistics_fingerprint
        self.costed = statistics_fingerprint is not None
        self.joinless = joinless
        self._lock = threading.Lock()
        self._fingerprint: str | None = None
        self._identity: str | None = None
        self._explain_fingerprint: str | None = None
        self._last_trace: dict[int, list[int]] | None = None
        self.runs = 0
        self.analyzed_runs = 0
        self.total_exec_ns = 0
        self.total_nodes_visited = 0
        self.total_index_lookups = 0
        self.last_stats: PlanStats | None = None

    @property
    def ast(self) -> Expr:
        if self._ast is None:
            self._ast = parse_query(self.source)
        return self._ast

    @property
    def fingerprint(self) -> str:
        """Stable identity of this plan's *computation*: sha256 over the
        query source and the function registry's fingerprint.

        Two plans compiled from identical source against registries with
        identical contents fingerprint the same, so result-cache entries
        (see :mod:`repro.xquery.results`) survive recompilation; swapping
        a function implementation changes the fingerprint and with it the
        cache key.  Costed plans share the rule-based plan's fingerprint
        on purpose: costed choices are answer-preserving, so their cached
        results are interchangeable.  Equal to :func:`query_fingerprint`
        of the plan's source and registry; memoized, since a plan's
        registry never changes after compilation.
        """
        if self._fingerprint is None:
            self._fingerprint = query_fingerprint(self.source, self.functions)
        return self._fingerprint

    @property
    def identity(self) -> str:
        """Process-independent identity of this plan's computation.

        sha256 over the query source and the registry's *stable*
        fingerprint (``module.qualname`` names, not ``id()``), so two
        interpreter runs — today's collect and last month's committed
        baseline — agree on whether they compiled the same plan.  Costed
        plans additionally mix in the statistics fingerprint: a plan
        whose physical choices were driven by different statistics is a
        different plan.  The perf framework stores this as
        ``plan_fingerprint``; in-process caches keep keying on
        :attr:`fingerprint`.
        """
        if self._identity is None:
            digest = hashlib.sha256(self.source.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(repr(
                self.functions.stable_fingerprint()).encode("utf-8"))
            if self.perturbed:
                digest.update(b"\x00perturbed")
            if self.statistics_fingerprint is not None:
                digest.update(b"\x00stats:")
                digest.update(self.statistics_fingerprint.encode("utf-8"))
            if self.joinless:
                # A costed plan compiled with the join search disabled
                # (the differential reference) is a different plan.
                digest.update(b"\x00joinless")
            self._identity = digest.hexdigest()
        return self._identity

    @property
    def explain_fingerprint(self) -> str:
        """sha256 of the default :meth:`explain` text — a stable hash of
        the chosen operator tree.  Two plans that picked different
        operators (e.g. index-path vs tree-scan, or differently-costed
        step strategies) hash differently even when their query source
        is identical; byte-stability across processes is pinned by a
        differential test."""
        if self._explain_fingerprint is None:
            self._explain_fingerprint = hashlib.sha256(
                self.explain().encode("utf-8")).hexdigest()
        return self._explain_fingerprint

    def execute(self, documents=None, variables=None, *,
                analyze: bool = False) -> Seq:
        """Run the plan against a document set; thread-safe.

        *documents* is a :class:`~repro.xquery.context.DocumentResolver`
        or a plain name -> document mapping, which is wrapped in a fresh
        resolver per call; callers that execute repeatedly over the same
        documents pass one resolver (``Testbed.document_resolver()``).
        ``analyze=True`` records per-operator actuals (calls, rows,
        inclusive wall time) for :meth:`explain_data`/:meth:`explain`
        ``analyze`` rendering.  The recorded trace is the *last*
        analyzed execution's; results are identical either way.
        """
        context = DynamicContext(documents=documents,
                                 functions=self.functions,
                                 variables=variables)
        state = _ExecState()
        if analyze:
            state.trace = {}
        started = time.perf_counter_ns()
        result = self.root.run(context, state)
        exec_ns = time.perf_counter_ns() - started
        stats = PlanStats(parse_ns=self.parse_ns,
                          compile_ns=self.compile_ns,
                          exec_ns=exec_ns,
                          nodes_visited=state.nodes_visited,
                          index_lookups=state.index_lookups)
        with self._lock:
            self.runs += 1
            self.total_exec_ns += exec_ns
            self.total_nodes_visited += state.nodes_visited
            self.total_index_lookups += state.index_lookups
            self.last_stats = stats
            if analyze:
                self.analyzed_runs += 1
                self._last_trace = state.trace
        return result

    def _summary(self) -> str:
        summary = " ".join(self.source.split())
        if len(summary) > 60:
            summary = summary[:57] + "..."
        return summary

    def explain_data(self, analyze: bool = False) -> dict:
        """The structured explain tree: a stable, JSON-serializable dict.

        Top level: query summary and full source, rewrite counters,
        planner decision counters, perturbation/costing flags and the
        statistics fingerprint the costed choices were derived from.
        ``root`` is the operator tree — per node its ``kind`` slug, the
        rendered ``label``, an ``estimated`` block where the planner
        recorded one (row estimate, chosen strategy, cost of the chosen
        and rejected alternatives, predicate selectivities) and, with
        ``analyze=True``, an ``actual`` block (calls, rows, inclusive
        wall ns) from the most recent ``execute(..., analyze=True)``.

        ``analyze=True`` requires a prior analyzed execution — there is
        nothing actual to report otherwise.
        """
        trace = None
        if analyze:
            with self._lock:
                trace = self._last_trace
            if trace is None:
                raise ValueError(
                    "no analyzed execution recorded; run "
                    "plan.execute(documents, analyze=True) first")
        cost_info = self.cost_info

        def walk(node: _Node) -> dict:
            entry: dict = {"kind": node.kind, "label": node.label}
            ref = node.ref
            if ref is not None:
                estimated = cost_info.get(id(ref))
                if estimated is not None:
                    entry["estimated"] = estimated
                if trace is not None:
                    recorded = trace.get(id(ref))
                    if recorded is not None:
                        entry["actual"] = {
                            "calls": recorded[0],
                            "rows": recorded[1],
                            "wall_ns": recorded[2],
                        }
            entry["children"] = [walk(child) for child in node.children]
            return entry

        return {
            "version": 1,
            "source": self._summary(),
            "xquery": self.source,
            "perturbed": self.perturbed,
            "costed": self.costed,
            "statistics_fingerprint": self.statistics_fingerprint,
            "rewrites": dict(sorted(self.rewrites.items())),
            "decisions": dict(sorted(self.decisions.items())),
            "analyzed": trace is not None,
            "root": walk(self.root.explain_node()),
        }

    def explain(self, analyze: bool = False, format: str = "text") -> str:
        """Deterministic rendering of :meth:`explain_data`.

        The default ``(analyze=False, format="text")`` output is
        golden-pinned and byte-identical across processes; ``analyze``
        appends per-operator actuals, ``format="json"`` serializes the
        data tree instead.
        """
        data = self.explain_data(analyze=analyze)
        if format == "json":
            return json.dumps(data, indent=2)
        if format != "text":
            raise ValueError(f"unknown explain format: {format!r}")
        rewrites = ", ".join(f"{name}={count}"
                             for name, count in data["rewrites"].items())
        lines = [f"plan for: {data['source']}"]
        if data["perturbed"]:
            # Only perturbed plans carry the marker line, so the twelve
            # golden explain files stay byte-identical.
            lines.append("perturbed: index-paths disabled")
        lines.append(f"rewrites: {rewrites}")
        if data["costed"]:
            decisions = ", ".join(f"{name}={count}" for name, count
                                  in data["decisions"].items())
            lines.append(f"costed: {decisions}")
        _render_data(data["root"], 0, lines, analyze)
        return "\n".join(lines)

    def stats_snapshot(self) -> dict:
        """Cumulative counters for ``/api/stats``."""
        with self._lock:
            runs = self.runs
            total_exec_ns = self.total_exec_ns
            nodes = self.total_nodes_visited
            lookups = self.total_index_lookups
        return {
            "runs": runs,
            "parse_ns": self.parse_ns,
            "compile_ns": self.compile_ns,
            "total_exec_ns": total_exec_ns,
            "avg_exec_ns": total_exec_ns // runs if runs else 0,
            "nodes_visited": nodes,
            "index_lookups": lookups,
        }

    def __repr__(self) -> str:
        summary = " ".join(self.source.split())
        if len(summary) > 40:
            summary = summary[:37] + "..."
        return f"Plan({summary!r}, runs={self.runs})"


def query_fingerprint(source: str,
                      functions: FunctionRegistry | None = None) -> str:
    """The result-cache identity of running *source* against *functions*
    (default: the builtins), without compiling it: sha256 over the
    source and the registry's memoized fingerprint text.  It is what
    :attr:`Plan.fingerprint` returns for a plan compiled from the same
    pair, so a served query can probe the result cache before it pays
    for a plan."""
    registry = functions if functions is not None else default_registry()
    digest = hashlib.sha256(source.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(registry.fingerprint_bytes())
    return digest.hexdigest()


def compile_query(source: str,
                  functions: FunctionRegistry | None = None, *,
                  perturb: bool = False,
                  statistics: "Statistics | None" = None,
                  join_search: bool = True) -> Plan:
    """Compile XQuery text to a :class:`Plan` (no caching here; see
    :mod:`repro.xquery.plan_cache`).

    ``statistics`` (see :func:`repro.xquery.stats.collect_statistics`)
    enables the cost-based planning pass; without it the plan is the
    rule-based plan, bit for bit.  ``perturb=True`` is a test-only
    toggle that disables the index-path rewrite, yielding a deliberately
    different (and slower) plan; it wins over ``statistics`` — a
    perturbed plan is the forced-tree-scan reference the costed path is
    differentially tested against.  The perf framework uses it to prove
    the regression gate fires; perturbed plans are never cached, so
    production paths cannot pick one up.

    ``join_search=False`` disables only the join-order/hash-join pass of
    the costed planner (meaningless without ``statistics``): the result
    is the pre-join costed plan — the forced-nested-loop reference the
    join execution engine is differentially tested against.
    """
    registry = functions if functions is not None else default_registry()
    started = time.perf_counter_ns()
    ast_root = parse_query(source)
    parse_ns = time.perf_counter_ns() - started

    started = time.perf_counter_ns()
    lowerer = _Lowerer(registry, index_paths=not perturb)
    root = lowerer.lower(ast_root)
    return _finish_plan(source, ast_root, root, registry, parse_ns, started,
                        lowerer.rewrites(), statistics, perturb,
                        join_search)


def _finish_plan(source: str, ast_root: Expr | None, root: Op,
                 registry: FunctionRegistry, parse_ns: int, started: int,
                 rewrites: dict[str, int],
                 statistics: "Statistics | None", perturb: bool,
                 join_search: bool) -> Plan:
    """Cost a freshly lowered tree *root* (when *statistics* is given and
    the plan is not perturbed) and wrap it in a :class:`Plan` whose
    compile time runs from *started*.  Shared by :func:`compile_query`
    and by template binding (:mod:`repro.xquery.template`), so a bound
    plan is costed exactly as a fresh compile is."""
    cost_info = None
    decisions = None
    statistics_fingerprint = None
    joinless = False
    if statistics is not None and not perturb:
        planner = _CostPlanner(statistics, join_search=join_search)
        root = planner.walk(root)
        cost_info = planner.cost_info
        decisions = planner.decisions
        statistics_fingerprint = statistics.fingerprint
        joinless = not join_search
    compile_ns = time.perf_counter_ns() - started
    return Plan(source, ast_root, root, registry, parse_ns, compile_ns,
                rewrites=rewrites,
                perturbed=perturb,
                cost_info=cost_info,
                decisions=decisions,
                statistics_fingerprint=statistics_fingerprint,
                joinless=joinless)


__all__ = [
    "Op",
    "Plan",
    "PlanStats",
    "compile_query",
    "query_fingerprint",
]
