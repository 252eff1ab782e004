"""Function library for the XQuery subset.

Functions receive the dynamic evaluation context plus one *sequence* per
argument and return a sequence. The registry is copy-on-extend so that an
integration system can register its user-defined functions (the paper's
"external functions", which the scoring function charges complexity points
for) without mutating the shared builtins.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import XQueryNameError, XQueryTypeError
from .runtime import (
    Seq,
    atomize,
    effective_boolean_value,
    one_string,
    singleton,
    string_value,
    to_number,
)

if TYPE_CHECKING:  # pragma: no cover
    from .context import DynamicContext

XQueryFunction = Callable[["DynamicContext", list[Seq]], Seq]


class FunctionRegistry:
    """Name → implementation map with arity checking.

    Arity may be an int, a tuple of accepted ints, or a ``(min, None)``
    tuple meaning "at least min".
    """

    def __init__(self) -> None:
        self._functions: dict[str, tuple[XQueryFunction, object]] = {}
        self._fingerprint: tuple | None = None
        self._fingerprint_bytes: bytes | None = None
        self._stable_fingerprint: tuple | None = None

    def register(self, name: str, fn: XQueryFunction,
                 arity: object = 1) -> None:
        """Register *fn* under *name* (and without its namespace prefix)."""
        self._functions[name] = (fn, arity)
        self._fingerprint = None
        self._fingerprint_bytes = None
        self._stable_fingerprint = None

    def copy(self) -> "FunctionRegistry":
        dup = FunctionRegistry()
        dup._functions = dict(self._functions)
        dup._fingerprint = self._fingerprint
        dup._fingerprint_bytes = self._fingerprint_bytes
        dup._stable_fingerprint = self._stable_fingerprint
        return dup

    def fingerprint(self) -> tuple:
        """A hashable token identifying this registry's *contents*.

        Two registries holding the same (name → implementation) entries
        fingerprint identically, so independently-built copies of the
        builtin registry share plan-cache entries; registering a different
        implementation under an existing name changes the fingerprint and
        therefore the cache key.

        Memoized so cache lookups keyed on it (PlanCache's hot path, the
        ResultCache's plan fingerprints) cost a dict probe, not a sort;
        :meth:`register` invalidates the memo.
        """
        if self._fingerprint is None:
            self._fingerprint = tuple(sorted(
                (name, id(fn))
                for name, (fn, _arity) in self._functions.items()))
        return self._fingerprint

    def fingerprint_bytes(self) -> bytes:
        """The UTF-8 ``repr`` of :meth:`fingerprint`, the text a query
        fingerprint hashes; memoized, because building it costs tens of
        microseconds and every served query hashes it."""
        if self._fingerprint_bytes is None:
            self._fingerprint_bytes = repr(self.fingerprint()).encode("utf-8")
        return self._fingerprint_bytes

    def stable_fingerprint(self) -> tuple:
        """Like :meth:`fingerprint`, but reproducible across processes.

        Implementations are named by ``module.qualname`` instead of
        ``id()``, so two interpreter runs that register the same functions
        agree on the token.  :attr:`Plan.identity` mixes it in, and the
        costed explain goldens pin that identity: a golden written in one
        process must compare equal to a fresh compile in another.  It is
        deliberately *not* the cache key — distinct closures can share a
        qualname, and caches must never conflate them — so
        :meth:`fingerprint` keeps keying the plan and result caches.
        """
        if self._stable_fingerprint is None:
            self._stable_fingerprint = tuple(sorted(
                (name, f"{fn.__module__}.{fn.__qualname__}", repr(arity))
                for name, (fn, arity) in self._functions.items()))
        return self._stable_fingerprint

    def resolves_to(self, name: str, fn: "XQueryFunction") -> bool:
        """True when calling *name* would dispatch to exactly *fn*."""
        entry = self._resolve(name)
        return entry is not None and entry[0] is fn

    def names(self) -> list[str]:
        return sorted(self._functions)

    def __contains__(self, name: str) -> bool:
        return self._resolve(name) is not None

    def _resolve(self, name: str) -> tuple[XQueryFunction, object] | None:
        if name in self._functions:
            return self._functions[name]
        # Accept the fn: prefix for builtins: fn:contains == contains.
        if name.startswith("fn:") and name[3:] in self._functions:
            return self._functions[name[3:]]
        return None

    def call(self, context: "DynamicContext", name: str,
             args: list[Seq]) -> Seq:
        entry = self._resolve(name)
        if entry is None:
            raise XQueryNameError(f"unknown function: {name}()")
        fn, arity = entry
        self._check_arity(name, arity, len(args))
        return fn(context, args)

    @staticmethod
    def _check_arity(name: str, arity: object, count: int) -> None:
        if isinstance(arity, int):
            if count != arity:
                raise XQueryTypeError(
                    f"{name}() expects {arity} argument(s), got {count}")
            return
        if isinstance(arity, tuple):
            low, high = arity
            if high is None:
                if count < low:
                    raise XQueryTypeError(
                        f"{name}() expects at least {low} argument(s), "
                        f"got {count}")
                return
            if count not in range(low, high + 1):
                raise XQueryTypeError(
                    f"{name}() expects {low}..{high} argument(s), got {count}")


# --------------------------------------------------------------------------- #
# Builtin implementations
# --------------------------------------------------------------------------- #

def _fn_doc(context: "DynamicContext", args: list[Seq]) -> Seq:
    name = one_string(args[0], "doc()")
    return [context.resolve_document(name)]


def _fn_contains(context: "DynamicContext", args: list[Seq]) -> Seq:
    haystack = one_string(args[0], "contains()") if args[0] else ""
    needle = one_string(args[1], "contains()")
    return [needle in haystack]


def _fn_starts_with(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "starts-with()") if args[0] else ""
    return [text.startswith(one_string(args[1], "starts-with()"))]


def _fn_ends_with(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "ends-with()") if args[0] else ""
    return [text.endswith(one_string(args[1], "ends-with()"))]


def _fn_lower_case(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [one_string(args[0], "lower-case()").lower()] if args[0] else [""]


def _fn_upper_case(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [one_string(args[0], "upper-case()").upper()] if args[0] else [""]


def _fn_string(context: "DynamicContext", args: list[Seq]) -> Seq:
    if not args[0]:
        return [""]
    return [string_value(singleton(args[0], "string()"))]


def _fn_number(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [to_number(singleton(args[0], "number()"))]


def _fn_count(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [float(len(args[0]))]


def _fn_empty(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [not args[0]]


def _fn_exists(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [bool(args[0])]


def _fn_boolean(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [effective_boolean_value(args[0])]


def _fn_true(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [True]


def _fn_false(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [False]


def _fn_concat(context: "DynamicContext", args: list[Seq]) -> Seq:
    parts = []
    for arg in args:
        parts.append(string_value(singleton(arg, "concat()")) if arg else "")
    return ["".join(parts)]


def _fn_string_join(context: "DynamicContext", args: list[Seq]) -> Seq:
    separator = one_string(args[1], "string-join()") if len(args) > 1 else ""
    return [separator.join(str(v) for v in atomize(args[0]))]


def _fn_normalize_space(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "normalize-space()") if args[0] else ""
    return [" ".join(text.split())]


def _fn_string_length(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "string-length()") if args[0] else ""
    return [float(len(text))]


def _fn_substring_before(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "substring-before()") if args[0] else ""
    marker = one_string(args[1], "substring-before()")
    before, found, _ = text.partition(marker)
    return [before if found else ""]


def _fn_substring_after(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "substring-after()") if args[0] else ""
    marker = one_string(args[1], "substring-after()")
    _, found, after = text.partition(marker)
    return [after if found else ""]


def _fn_substring(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "substring()") if args[0] else ""
    start = int(to_number(singleton(args[1], "substring()")))
    if len(args) > 2:
        length = int(to_number(singleton(args[2], "substring()")))
        return [text[max(start - 1, 0):max(start - 1, 0) + length]]
    return [text[max(start - 1, 0):]]


def _fn_matches(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "matches()") if args[0] else ""
    pattern = one_string(args[1], "matches()")
    try:
        return [re.search(pattern, text) is not None]
    except re.error as exc:
        raise XQueryTypeError(f"invalid regex {pattern!r}: {exc}") from exc


def _fn_replace(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "replace()") if args[0] else ""
    pattern = one_string(args[1], "replace()")
    replacement = one_string(args[2], "replace()")
    try:
        return [re.sub(pattern, replacement, text)]
    except re.error as exc:
        raise XQueryTypeError(f"invalid regex {pattern!r}: {exc}") from exc


def _fn_tokenize(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "tokenize()") if args[0] else ""
    pattern = one_string(args[1], "tokenize()")
    try:
        return [part for part in re.split(pattern, text) if part != ""]
    except re.error as exc:
        raise XQueryTypeError(f"invalid regex {pattern!r}: {exc}") from exc


def _fn_translate(context: "DynamicContext", args: list[Seq]) -> Seq:
    text = one_string(args[0], "translate()") if args[0] else ""
    source = one_string(args[1], "translate()")
    target = one_string(args[2], "translate()")
    table = {}
    for index, ch in enumerate(source):
        table[ord(ch)] = target[index] if index < len(target) else None
    return [text.translate(table)]


def _fn_distinct_values(context: "DynamicContext", args: list[Seq]) -> Seq:
    seen: set = set()
    out: Seq = []
    for value in atomize(args[0]):
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def _fn_name(context: "DynamicContext", args: list[Seq]) -> Seq:
    from ..xmlmodel import XmlElement
    item = singleton(args[0], "name()")
    if not isinstance(item, XmlElement):
        raise XQueryTypeError("name() requires an element")
    return [item.tag]


def _fn_data(context: "DynamicContext", args: list[Seq]) -> Seq:
    return list(atomize(args[0]))


def _fn_not(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [not effective_boolean_value(args[0])]


def _numeric_items(seq: Seq, what: str) -> list[float]:
    return [to_number(item) for item in seq]


def _fn_sum(context: "DynamicContext", args: list[Seq]) -> Seq:
    return [float(sum(_numeric_items(args[0], "sum()")))]


def _fn_avg(context: "DynamicContext", args: list[Seq]) -> Seq:
    values = _numeric_items(args[0], "avg()")
    if not values:
        return []
    return [sum(values) / len(values)]


def _fn_min(context: "DynamicContext", args: list[Seq]) -> Seq:
    values = _numeric_items(args[0], "min()")
    return [min(values)] if values else []


def _fn_max(context: "DynamicContext", args: list[Seq]) -> Seq:
    values = _numeric_items(args[0], "max()")
    return [max(values)] if values else []


def _fn_position(context: "DynamicContext", args: list[Seq]) -> Seq:
    if context.context_item is None:
        raise XQueryTypeError("position() used outside a predicate focus")
    return [float(context.context_position)]


def _fn_last(context: "DynamicContext", args: list[Seq]) -> Seq:
    if context.context_item is None:
        raise XQueryTypeError("last() used outside a predicate focus")
    return [float(context.context_size)]


def builtin_registry() -> FunctionRegistry:
    """A fresh registry pre-loaded with the builtin function library."""
    registry = FunctionRegistry()
    builtins: Iterable[tuple[str, XQueryFunction, object]] = [
        ("doc", _fn_doc, 1),
        ("contains", _fn_contains, 2),
        ("starts-with", _fn_starts_with, 2),
        ("ends-with", _fn_ends_with, 2),
        ("lower-case", _fn_lower_case, 1),
        ("upper-case", _fn_upper_case, 1),
        ("string", _fn_string, 1),
        ("number", _fn_number, 1),
        ("count", _fn_count, 1),
        ("empty", _fn_empty, 1),
        ("exists", _fn_exists, 1),
        ("boolean", _fn_boolean, 1),
        ("true", _fn_true, 0),
        ("false", _fn_false, 0),
        ("concat", _fn_concat, (2, None)),
        ("string-join", _fn_string_join, (1, 2)),
        ("normalize-space", _fn_normalize_space, 1),
        ("string-length", _fn_string_length, 1),
        ("substring-before", _fn_substring_before, 2),
        ("substring-after", _fn_substring_after, 2),
        ("substring", _fn_substring, (2, 3)),
        ("matches", _fn_matches, 2),
        ("replace", _fn_replace, 3),
        ("tokenize", _fn_tokenize, 2),
        ("translate", _fn_translate, 3),
        ("distinct-values", _fn_distinct_values, 1),
        ("name", _fn_name, 1),
        ("data", _fn_data, 1),
        ("not", _fn_not, 1),
        ("sum", _fn_sum, 1),
        ("avg", _fn_avg, 1),
        ("min", _fn_min, 1),
        ("max", _fn_max, 1),
        ("position", _fn_position, 0),
        ("last", _fn_last, 0),
    ]
    for name, fn, arity in builtins:
        registry.register(name, fn, arity)
    return registry


_DEFAULT_REGISTRY: FunctionRegistry | None = None


def default_registry() -> FunctionRegistry:
    """The shared builtin registry used when a caller passes no functions.

    Treated as immutable by convention: callers that want to register
    user-defined functions must :meth:`FunctionRegistry.copy` first (the
    UDF library already does).  Sharing one instance lets the plan cache
    key default compilations identically across call sites.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = builtin_registry()
    return _DEFAULT_REGISTRY


def uses_builtin_doc(registry: FunctionRegistry) -> bool:
    """True when ``doc()`` in *registry* is the builtin resolver.

    The planner only lowers ``doc("name")`` to an index-backed document
    scan when the call would dispatch to the builtin implementation; a
    registry that rebinds ``doc`` keeps the generic function-call path.
    """
    return registry.resolves_to("doc", _fn_doc)
