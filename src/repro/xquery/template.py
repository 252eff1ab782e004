"""Plan templates: parse and lower once per query shape, bind literals.

Served queries are mostly one shape with different literals (a client
pasting a search word into ``WHERE $c/Title = '%…%'``).  A
:class:`PlanTemplate` holds such a query's lowered operator tree *before*
costing, with its comparison literals marked as slots; binding the
literals of another text of the same shape clones the tree with the new
values and costs the clone, which yields exactly the plan a fresh
:func:`~repro.xquery.plan.compile_query` of that text would build.

**The key rule** (:func:`template_shape`).  A template is keyed by the
query's token stream in which each *candidate* STRING token — one written
directly beside a comparison operator — becomes a slot tagged with whether
it contains ``%`` (which switches a comparison between LIKE and plain).
Every other token stays in the key with its value: ``doc()`` arguments,
function arguments, numbers, keywords, names.  Whitespace, comments and
keyword case are not part of the key.

**How a template is built** (:meth:`PlanTemplate.build`).  The text is
compiled without statistics (so not costed) with a unique sentinel in
each slot, keeping the slot's ``%`` tag.  The parser and the lowerer
read no STRING value but through those literals, so the sentinel tree
is the same for every text of the key, and a slot is found by its
sentinel, not by the text's own values.  Lowering reads a literal's
value in only three places: constant folding (both operands literal),
``doc()`` resolution, and LIKE detection.  A template is kept only when
every sentinel is one string literal that is a direct operand of a
comparison whose other operand is not a literal, so the comparison
never folds and its LIKE-ness is the slot's ``%`` tag.  Otherwise (say
``$x = 'a' + 1``, or ``'a' = 'b'``, which folds), or when the sentinel
text does not compile, the key holds no template and every text of it
compiles in full.

Costing is re-run per binding (its estimates read the literals), so
``est_rows``, step strategies, predicate order, ``decisions`` and explain
output are those of a fresh compile; a bound plan's ``source``,
``fingerprint`` and ``identity`` come from its own text.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from .errors import XQueryError
from .evaluator import _like_pattern
from .functions import FunctionRegistry
from .parser import _COMPARISON_OPS
from .plan import (
    _LEAF_OPS,
    ComparisonOp,
    LiteralOp,
    Op,
    Plan,
    StepPlan,
    _children,
    _finish_plan,
)
from .tokens import STRING, SYMBOL, Token

if TYPE_CHECKING:  # pragma: no cover
    from .stats import Statistics

#: A comparison operator token, as ``token[:2]``.
_COMPARATORS = frozenset((SYMBOL, op) for op in _COMPARISON_OPS)

#: Key entries standing for a slot, by whether its literal has a ``%``.
_SLOT = {False: ("slot", ""), True: ("slot", "%")}


def template_shape(tokens: list[Token]) -> tuple[tuple, list[Token]] | None:
    """``(key, candidate STRING tokens)`` of a token stream, or None when
    it has no candidate (nothing to bind, so no template)."""
    key = []
    slots: list[Token] = []
    # The stream ends with EOF, so a STRING always has a next token, and
    # the "previous" of a leading STRING, tokens[-1], is that EOF.
    for position, token in enumerate(tokens):
        kind, value, _offset = token
        if kind == STRING and (tokens[position - 1][:2] in _COMPARATORS
                               or tokens[position + 1][:2] in _COMPARATORS):
            key.append(_SLOT["%" in value])
            slots.append(token)
        else:
            key.append((kind, value))
    if not slots:
        return None
    return tuple(key), slots


class PlanTemplate:
    """A lowered, not yet costed operator tree with slot literals.

    Immutable once built: binding clones it, so one template serves any
    number of threads.
    """

    __slots__ = ("root", "slots", "rewrites")

    def __init__(self, root: Op, slots: tuple[int, ...],
                 rewrites: dict[str, int]) -> None:
        self.root = root
        self.slots = slots          # id() of each slot's LiteralOp
        self.rewrites = rewrites

    @classmethod
    def build(cls, source: str, slots: list[Token],
              compile_text: Callable[[str], Plan]) -> "PlanTemplate | None":
        """The template of the key :func:`template_shape` read from
        *source* as *slots*, or None when a slot is not safe (see the
        module docstring).  *compile_text* compiles a text without
        statistics."""
        # A mark no string literal of the text contains, so no literal
        # but a slot can equal a sentinel.
        mark = "\x00"
        while mark in source:
            mark += "\x00"
        sentinels = [f"{mark}{number}{mark}{'%' if '%' in token.value else ''}"
                     for number, token in enumerate(slots)]
        pieces = []
        end = 0
        for token, sentinel in zip(slots, sentinels):
            quote = source[token.position]
            pieces += (source[end:token.position], "'", sentinel, "'")
            end = token.position + 2 + len(
                token.value.replace(quote, quote * 2))
        pieces.append(source[end:])
        try:
            plan = compile_text("".join(pieces))
        except XQueryError:
            return None
        wanted = set(sentinels)
        seen: list[str] = []
        operands: dict[str, LiteralOp] = {}
        stack: list[Op] = [plan.root]
        while stack:
            op = stack.pop()
            if type(op) is LiteralOp and op.value in wanted:
                seen.append(op.value)
            elif type(op) is ComparisonOp:
                for operand, other in ((op.left, op.right),
                                       (op.right, op.left)):
                    if type(operand) is LiteralOp \
                            and operand.value in wanted \
                            and type(other) is not LiteralOp:
                        operands[operand.value] = operand
            stack.extend(_children(op))
        if sorted(seen) != sorted(sentinels) \
                or len(operands) != len(sentinels):
            return None
        return cls(plan.root,
                   tuple(id(operands[sentinel]) for sentinel in sentinels),
                   plan.rewrites)

    def bind(self, source: str, literals: list[str],
             functions: FunctionRegistry, statistics: "Statistics | None",
             parse_ns: int) -> Plan:
        """The plan of *source*, a text of this template's shape whose
        candidate literals are *literals*: the template tree cloned with
        them, then costed against *statistics* as a fresh compile is."""
        started = time.perf_counter_ns()
        root = _rebind(self.root, dict(zip(self.slots, literals)))
        return _finish_plan(source, None, root, functions, parse_ns,
                            started, self.rewrites, statistics,
                            perturb=False, join_search=True)


def _rebind(op: Op, values: dict[int, str]) -> Op:
    """A copy of the lowered tree under *op* with each slot literal (keyed
    by ``id()``) holding its value from *values*.  Leaves without a new
    value are shared (nothing mutates them); every other operator and
    step is copied slot by slot, because costing rewrites FLWOR clauses
    and path steps in place."""
    kind = type(op)
    if kind is LiteralOp:
        value = values.get(id(op))
        return op if value is None else LiteralOp(value)
    if kind in _LEAF_OPS:
        return op
    clone = object.__new__(kind)
    for slot in kind.__slots__:
        setattr(clone, slot, _rebind_value(getattr(op, slot), values))
    if kind is ComparisonOp and clone.like is not None:
        _text, _pattern, side = clone.like
        pattern = (clone.right if side == "left" else clone.left).value
        clone.like = (pattern, _like_pattern(pattern), side)
    return clone


def _rebind_value(value, values: dict[int, str]):
    """One operator slot's value, copied by :func:`_rebind`: operators,
    steps and the tuples holding them (clauses, predicates, arguments)."""
    if isinstance(value, Op):
        return _rebind(value, values)
    if isinstance(value, tuple):
        return tuple([_rebind_value(item, values) for item in value])
    if isinstance(value, StepPlan):
        return StepPlan(value.axis, value.kind, value.name,
                        _rebind_value(value.predicates, values))
    return value


__all__ = ["PlanTemplate", "template_shape"]
