"""Lightweight XML document model used throughout the THALIA reproduction.

The model intentionally supports *mixed content* (text interleaved with child
elements) because the extracted course catalogs contain values such as
``<a href="...">Intro to Algorithms</a> D hr. MWF 11-12`` where a hyperlink
and free text share one field — the exact union-type heterogeneity Benchmark
Query 3 exercises.

Design notes:

* An element's ``children`` is an ordered list whose items are either
  :class:`XmlElement` instances or plain ``str`` text runs.
* Equality is deep and structural (tag, attributes, normalized children),
  which gives the round-trip property ``parse(serialize(doc)) == doc`` that
  the test suite checks with hypothesis.
* Navigation helpers (``find``, ``findall``, ``iter``) cover the needs of the
  integration mappings and the XQuery evaluator without pulling in lxml.
"""

from __future__ import annotations

from sys import intern as _intern
from typing import Callable, Iterable, Iterator, Union

Child = Union["XmlElement", str]

_NAME_EXTRA = set("0123456789.-·")


def _is_name_start(ch: str) -> bool:
    return ch == "_" or ch.isalpha()


def _is_name_char(ch: str) -> bool:
    return _is_name_start(ch) or ch in _NAME_EXTRA


def is_valid_name(name: str) -> bool:
    """Return True if *name* is acceptable as an element or attribute name.

    This is a pragmatic subset of the XML Name production: a letter (any
    script — German testbed sources use tags like ``Gebäude``) or
    underscore to start, then letters, digits, ``.``, ``-`` and ``·``.
    Namespace colons are allowed in the middle (``xs:element``).
    """
    if not name:
        return False
    head, colon, tail = name.partition(":")
    if colon and (not head or not tail or ":" in tail):
        return False
    parts = [head] if not colon else [head, tail]
    for part in parts:
        if not part or not _is_name_start(part[0]):
            return False
        if any(not _is_name_char(ch) for ch in part[1:]):
            return False
    return True


class XmlElement:
    """A single XML element with attributes and ordered mixed content."""

    __slots__ = ("tag", "attrib", "children")

    def __init__(self, tag: str, attrib: dict[str, str] | None = None,
                 children: Iterable[Child] | None = None) -> None:
        if not is_valid_name(tag):
            raise ValueError(f"invalid element name: {tag!r}")
        # Tag names repeat massively across a document (every Course, every
        # Title, ...); interning makes ``node.tag == name`` a pointer check
        # on the hot path-step comparisons and dedups the strings.
        self.tag = _intern(tag)
        self.attrib: dict[str, str] = dict(attrib) if attrib else {}
        self.children: list[Child] = list(children) if children else []

    @classmethod
    def _unchecked(cls, tag: str, attrib: dict[str, str]) -> "XmlElement":
        """Construct without name validation — for parsers whose input has
        already passed a well-formedness check (expat); hot-path only."""
        node = object.__new__(cls)
        node.tag = _intern(tag)
        node.attrib = attrib
        node.children = []
        return node

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def append(self, child: Child) -> "XmlElement":
        """Append a child element or text run; returns self for chaining."""
        if not isinstance(child, (XmlElement, str)):
            raise TypeError(f"child must be XmlElement or str, got {type(child)!r}")
        self.children.append(child)
        return self

    def extend(self, children: Iterable[Child]) -> "XmlElement":
        for child in children:
            self.append(child)
        return self

    def set(self, key: str, value: str) -> "XmlElement":
        """Set an attribute; returns self for chaining."""
        if not is_valid_name(key):
            raise ValueError(f"invalid attribute name: {key!r}")
        self.attrib[key] = str(value)
        return self

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.attrib.get(key, default)

    # ------------------------------------------------------------------ #
    # Content access
    # ------------------------------------------------------------------ #

    @property
    def element_children(self) -> list["XmlElement"]:
        """Child *elements* only, in document order."""
        return [c for c in self.children if isinstance(c, XmlElement)]

    @property
    def text(self) -> str:
        """All descendant text concatenated in document order.

        Unlike ElementTree's ``.text`` this gives the full flattened string
        value of the element, matching XPath's ``string()`` semantics, which
        is what comparisons in the benchmark queries need.
        """
        parts: list[str] = []
        for child in self.children:
            if isinstance(child, str):
                parts.append(child)
            else:
                parts.append(child.text)
        return "".join(parts)

    @property
    def normalized_text(self) -> str:
        """Flattened text with runs of whitespace collapsed and trimmed."""
        return " ".join(self.text.split())

    def has_element_children(self) -> bool:
        return any(isinstance(c, XmlElement) for c in self.children)

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #

    def find(self, tag: str) -> "XmlElement | None":
        """First direct child element with the given tag, or None."""
        for child in self.children:
            if isinstance(child, XmlElement) and child.tag == tag:
                return child
        return None

    def findall(self, tag: str) -> list["XmlElement"]:
        """All direct child elements with the given tag, in order."""
        return [c for c in self.children
                if isinstance(c, XmlElement) and c.tag == tag]

    def findtext(self, tag: str, default: str | None = None) -> str | None:
        """Flattened text of the first matching child, or *default*."""
        child = self.find(tag)
        return child.text if child is not None else default

    def iter(self, tag: str | None = None) -> Iterator["XmlElement"]:
        """Depth-first iterator over this element and all descendants."""
        if tag is None or self.tag == tag:
            yield self
        for child in self.element_children:
            yield from child.iter(tag)

    def walk(self, predicate: Callable[["XmlElement"], bool]) -> Iterator["XmlElement"]:
        """Depth-first iterator over descendants satisfying *predicate*."""
        return (node for node in self.iter() if predicate(node))

    # ------------------------------------------------------------------ #
    # Structural equality & representation
    # ------------------------------------------------------------------ #

    def _normalized_children(self) -> list[Child]:
        """Children with adjacent text runs merged and empty runs dropped."""
        merged: list[Child] = []
        for child in self.children:
            if isinstance(child, str):
                if not child:
                    continue
                if merged and isinstance(merged[-1], str):
                    merged[-1] = merged[-1] + child
                    continue
            merged.append(child)
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XmlElement):
            return NotImplemented
        if self.tag != other.tag or self.attrib != other.attrib:
            return False
        mine = self._normalized_children()
        theirs = other._normalized_children()
        if len(mine) != len(theirs):
            return False
        return all(a == b for a, b in zip(mine, theirs))

    def __hash__(self) -> int:  # structural, matches __eq__
        return hash((self.tag, tuple(sorted(self.attrib.items())),
                     tuple(c if isinstance(c, str) else hash(c)
                           for c in self._normalized_children())))

    def __repr__(self) -> str:
        n_children = len(self.element_children)
        return (f"XmlElement({self.tag!r}, attrib={self.attrib!r}, "
                f"children={n_children} element(s))")

    def copy(self) -> "XmlElement":
        """Deep structural copy."""
        return XmlElement(
            self.tag,
            dict(self.attrib),
            [c if isinstance(c, str) else c.copy() for c in self.children],
        )


class XmlDocument:
    """An XML document: a root element plus optional source identity.

    ``source_name`` records which testbed source (e.g. ``"brown"``) the
    document came from; the XQuery ``doc()`` function resolves names against
    a catalog of documents keyed this way.

    Documents are immutable once built, so :meth:`index` lazily constructs
    a per-document :class:`~repro.xmlmodel.indexes.DocumentIndex` exactly
    once and caches it for the document's lifetime (never invalidated).
    """

    __slots__ = ("root", "source_name", "_index")

    def __init__(self, root: XmlElement, source_name: str | None = None) -> None:
        if not isinstance(root, XmlElement):
            raise TypeError("root must be an XmlElement")
        self.root = root
        self.source_name = source_name
        self._index = None

    def index(self) -> "DocumentIndex":
        """The element-name/attribute index, built on first use."""
        if self._index is None:
            from .indexes import DocumentIndex
            self._index = DocumentIndex(self.root)
        return self._index

    @property
    def index_built(self) -> bool:
        """True once :meth:`index` has materialized (stats endpoints use
        this to report on indexes without forcing their construction)."""
        return self._index is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XmlDocument):
            return NotImplemented
        return self.root == other.root

    def __hash__(self) -> int:
        return hash(self.root)

    def __repr__(self) -> str:
        return f"XmlDocument(root={self.root.tag!r}, source={self.source_name!r})"

    def copy(self) -> "XmlDocument":
        return XmlDocument(self.root.copy(), self.source_name)


def element(tag: str, *children: Child, **attrib: str) -> XmlElement:
    """Terse element constructor for builders and tests.

    >>> element("Course", element("Title", "Databases"), code="CS145").tag
    'Course'
    """
    node = XmlElement(tag, {k: str(v) for k, v in attrib.items()})
    node.extend(children)
    return node
