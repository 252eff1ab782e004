"""Per-document element and attribute indexes.

Testbed documents are immutable once built, so each
:class:`~repro.xmlmodel.element.XmlDocument` can carry a lazily-built
:class:`DocumentIndex` that is constructed exactly once and never
invalidated.  The index assigns every element a preorder interval
``[enter, exit)`` and groups elements by tag name, which turns the two
hot path-step shapes of the XQuery engine into dictionary lookups:

* ``child::Name``   — ``children_of(parent, "Name")``, a per-parent map
  from tag to the child elements in document order;
* ``descendant::Name`` — ``descendants_of(node, "Name")``, a bisect over
  the tag's document-order posting list using the preorder intervals.

Both return results in exactly the order a naive tree scan produces, so
an index-backed query plan is byte-identical to the tree-walking
interpreter — just faster.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .element import XmlElement


class DocumentIndex:
    """Immutable name/attribute index over one document tree.

    The index keeps approximate lookup counters (plain ints, no lock —
    under CPython's GIL a rare lost increment is acceptable for metrics)
    so ``/api/stats`` can report how hard scaled runs lean on it.
    """

    __slots__ = ("root", "_enter", "_exit", "_by_tag", "_children",
                 "_attr_names", "_strings", "_columns", "element_count",
                 "child_lookups", "descendant_lookups", "string_lookups")

    def __init__(self, root: "XmlElement") -> None:
        self.root = root
        self.child_lookups = 0
        self.descendant_lookups = 0
        self.string_lookups = 0
        # id(element) -> preorder enter / exit counters.
        self._enter: dict[int, int] = {}
        self._exit: dict[int, int] = {}
        # tag -> ([enter, ...], [element, ...]) parallel posting lists,
        # both in document order.
        self._by_tag: dict[str, tuple[list[int], list["XmlElement"]]] = {}
        # id(parent) -> {tag: [child elements in order]}
        self._children: dict[int, dict[str, list["XmlElement"]]] = {}
        self._attr_names: set[str] = set()
        # id(element) -> normalized string value, filled on demand.
        self._strings: dict[int, str] = {}
        # tag -> {id(parent): (normalized string of each *tag* child)},
        # built on first use by column().
        self._columns: dict[str, dict[int, tuple[str, ...]]] = {}
        counter = 0

        def walk(node: "XmlElement") -> None:
            nonlocal counter
            self._enter[id(node)] = counter
            enters, elems = self._by_tag.setdefault(node.tag, ([], []))
            enters.append(counter)
            elems.append(node)
            counter += 1
            self._attr_names.update(node.attrib)
            per_tag = self._children.setdefault(id(node), {})
            for child in node.children:
                if isinstance(child, str):
                    continue
                per_tag.setdefault(child.tag, []).append(child)
                walk(child)
            self._exit[id(node)] = counter

        walk(root)
        self.element_count = counter

    # -- membership ------------------------------------------------------ #

    def covers(self, node: "XmlElement") -> bool:
        """True when *node* belongs to the indexed tree."""
        return id(node) in self._enter

    def has_tag(self, tag: str) -> bool:
        return tag in self._by_tag

    def has_attribute(self, name: str) -> bool:
        return name in self._attr_names

    @property
    def tags(self) -> list[str]:
        return sorted(self._by_tag)

    @property
    def attribute_names(self) -> list[str]:
        return sorted(self._attr_names)

    # -- lookups --------------------------------------------------------- #

    def elements(self, tag: str) -> list["XmlElement"]:
        """All elements with *tag*, whole document, document order."""
        entry = self._by_tag.get(tag)
        return list(entry[1]) if entry else []

    def tag_count(self, tag: str) -> int:
        """Posting-list cardinality of *tag* (0 when absent)."""
        entry = self._by_tag.get(tag)
        return len(entry[1]) if entry else 0

    def tag_counts(self) -> dict[str, int]:
        """``{tag: posting-list length}`` over the whole document."""
        return {tag: len(elems)
                for tag, (_enters, elems) in self._by_tag.items()}

    def subtree_size(self, node: "XmlElement") -> int | None:
        """Number of strict element descendants of a covered *node*
        (``exit - enter - 1`` over the preorder intervals), or None when
        *node* is outside the indexed tree."""
        enter = self._enter.get(id(node))
        if enter is None:
            return None
        return self._exit[id(node)] - enter - 1

    def children_of(self, parent: "XmlElement",
                    tag: str) -> list["XmlElement"] | None:
        """Direct children of *parent* with *tag*, or None when *parent*
        is not part of the indexed tree.  Returns the internal posting
        list — callers must not mutate it."""
        per_tag = self._children.get(id(parent))
        if per_tag is None:
            return None
        self.child_lookups += 1
        return per_tag.get(tag, _EMPTY)

    def descendants_of(self, node: "XmlElement",
                       tag: str) -> list["XmlElement"] | None:
        """Strict descendants of *node* with *tag* in document order, or
        None when *node* is not part of the indexed tree."""
        enter = self._enter.get(id(node))
        if enter is None:
            return None
        self.descendant_lookups += 1
        entry = self._by_tag.get(tag)
        if entry is None:
            return []
        enters, elems = entry
        lo = bisect_right(enters, enter)            # strictly after node
        hi = bisect_left(enters, self._exit[id(node)])
        return elems[lo:hi]

    def string_of(self, node: "XmlElement") -> str | None:
        """Cached whitespace-normalized string value of a covered element
        (documents are immutable, so the value never goes stale), or None
        when *node* is outside the indexed tree."""
        self.string_lookups += 1
        cached = self._strings.get(id(node))
        if cached is None:
            if id(node) not in self._enter:
                return None
            cached = node.normalized_text
            self._strings[id(node)] = cached
        return cached

    def column(self, tag: str) -> dict[int, tuple[str, ...]]:
        """``{id(parent): string values of its *tag* children}``, in
        document order, for every parent with at least one such child: what
        ``children_of(parent, tag)`` and ``string_of`` on each result would
        return, read in one dict probe.  A covered parent missing from the
        column has no *tag* children.

        Built once per tag on first use and never invalidated.  Racing
        builders each build a full column and the first published wins,
        so no reader sees a partial one.  The lookups a reader stands in
        for are not counted here; the reader adds them.
        """
        column = self._columns.get(tag)
        if column is not None:
            return column
        strings = self._strings
        built: dict[int, tuple[str, ...]] = {}
        for parent_id, per_tag in self._children.items():
            children = per_tag.get(tag)
            if not children:
                continue
            values = []
            for child in children:
                value = strings.get(id(child))
                if value is None:
                    value = strings[id(child)] = child.normalized_text
                values.append(value)
            built[parent_id] = tuple(values)
        return self._columns.setdefault(tag, built)

    # -- metrics ---------------------------------------------------------- #

    def reset_counters(self) -> None:
        """Zero the lookup counters so repeated perf collections measure
        only their own window instead of accumulating forever."""
        self.child_lookups = 0
        self.descendant_lookups = 0
        self.string_lookups = 0

    def stats(self) -> dict:
        """Size and usage counters for the stats endpoint."""
        return {
            "elements": self.element_count,
            "tags": len(self._by_tag),
            "attributes": len(self._attr_names),
            "postings": sum(len(elems) for _, elems in self._by_tag.values()),
            "string_cache_entries": len(self._strings),
            "child_lookups": self.child_lookups,
            "descendant_lookups": self.descendant_lookups,
            "string_lookups": self.string_lookups,
        }

    def __repr__(self) -> str:
        return (f"DocumentIndex(root={self.root.tag!r}, "
                f"elements={self.element_count}, tags={len(self._by_tag)})")


_EMPTY: list = []
