"""XML-core fast-path tests.

The scale tier made the XML core's hot paths profile-guided: guarded
escaping, an iterative exact serializer with a ride-along digest, a
trusted parse path, and XQuery path steps served from a
:class:`DocumentIndex`.  Every fast path must be *observably identical*
to the code it replaced — these tests pin that equivalence, including on
scale-generated documents far larger than the paper's.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro import xquery
from repro.catalogs import build_testbed, paper_universities
from repro.integration.mappings import _steps
from repro.xmlmodel import (
    XmlElement,
    element,
    escape_attr,
    escape_text,
    parse_element,
    parse_xml,
    serialize,
    serialize_digest,
)
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import evaluate
from repro.xquery.parser import parse_query

# ---------------------------------------------------------------------- #
# Reference implementations: the pre-guard escape chains and the
# recursive serializer built on them.
# ---------------------------------------------------------------------- #

def _legacy_escape_text(value: str) -> str:
    return (value.replace("&", "&amp;")
                 .replace("<", "&lt;")
                 .replace(">", "&gt;"))


def _legacy_escape_attr(value: str) -> str:
    return (value.replace("&", "&amp;")
                 .replace("<", "&lt;")
                 .replace(">", "&gt;")
                 .replace('"', "&quot;")
                 .replace("\n", "&#10;")
                 .replace("\t", "&#9;"))


def _legacy_open_tag(node: XmlElement, self_closing: bool) -> str:
    attrs = "".join(f' {key}="{_legacy_escape_attr(value)}"'
                    for key, value in node.attrib.items())
    return f"<{node.tag}{attrs}{'/' if self_closing else ''}>"


def _legacy_serialize_node(node: XmlElement, parts: list[str]) -> None:
    if not node.children:
        parts.append(_legacy_open_tag(node, self_closing=True))
        return
    parts.append(_legacy_open_tag(node, self_closing=False))
    for child in node.children:
        if isinstance(child, str):
            parts.append(_legacy_escape_text(child))
        else:
            _legacy_serialize_node(child, parts)
    parts.append(f"</{node.tag}>")


def _legacy_serialize(document) -> str:
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    _legacy_serialize_node(document.root, parts)
    return "".join(parts)


_any_text = st.text(
    alphabet=st.characters(codec="utf-8",
                           exclude_categories=("Cs", "Cc", "Co")),
    max_size=60)


class TestEscapeGuards:
    def test_clean_text_returned_unchanged(self):
        value = "Intro to Algorithms D hr. MWF 11-12"
        assert escape_text(value) is value
        assert escape_attr(value) is value

    def test_specials_still_escaped(self):
        assert escape_text("A & B < C > D") == "A &amp; B &lt; C &gt; D"
        assert escape_attr('say "hi"\nnow\t') == "say &quot;hi&quot;&#10;now&#9;"

    def test_attr_guard_covers_newline_and_tab(self):
        assert escape_attr("a\nb") == "a&#10;b"
        assert escape_attr("a\tb") == "a&#9;b"
        assert escape_text("a\nb") == "a\nb"   # legal in element content

    @settings(max_examples=200, deadline=None)
    @given(_any_text)
    def test_escape_text_matches_legacy(self, value):
        assert escape_text(value) == _legacy_escape_text(value)

    @settings(max_examples=200, deadline=None)
    @given(_any_text)
    def test_escape_attr_matches_legacy(self, value):
        assert escape_attr(value) == _legacy_escape_attr(value)


# ---------------------------------------------------------------------- #
# Serializer digest and trusted parse on scale-generated documents
# ---------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def scaled_document():
    bed = build_testbed(universities=paper_universities()[:1], scale=8)
    return bed.source(bed.slugs[0]).document


class TestSerializeDigest:
    def test_matches_recursive_serializer(self, scaled_document):
        assert serialize(scaled_document, xml_declaration=True) == \
            _legacy_serialize(scaled_document)

    def test_digest_matches_separate_hash(self, scaled_document):
        text, sha = serialize_digest(scaled_document, xml_declaration=True)
        assert text == serialize(scaled_document, xml_declaration=True)
        assert sha == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_small_document_digest(self):
        node = element("r", element("a", "x & y"), code="1")
        text, sha = serialize_digest(node)
        assert text == serialize(node)
        assert sha == hashlib.sha256(text.encode("utf-8")).hexdigest()

    @settings(max_examples=60, deadline=None)
    @given(_any_text)
    def test_digest_on_arbitrary_text_children(self, value):
        node = XmlElement("r", {}, [value] if value else [])
        text, sha = serialize_digest(node)
        assert text == serialize(node)
        assert sha == hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestTrustedRoundTrip:
    def test_trusted_parse_equals_validating_parse(self, scaled_document):
        text = serialize(scaled_document, xml_declaration=True)
        trusted = parse_xml(text, trusted=True)
        validating = parse_xml(text)
        assert trusted == validating

    def test_scaled_document_round_trips(self, scaled_document):
        text = serialize(scaled_document)
        assert parse_element(text) == scaled_document.root

    def test_deep_document_serializes_iteratively(self):
        # ~5000 levels would blow Python's recursion limit in a recursive
        # serializer; the iterative walker must not care.
        root = node = XmlElement("n0")
        for depth in range(1, 5000):
            child = XmlElement(f"n{depth % 7}")
            node.children.append(child)
            node = child
        text = serialize(root)
        assert text.startswith("<n0><n1>")
        # Structural __eq__ is recursive, so round-trip at the byte level.
        assert serialize(parse_element(text)) == text


# ---------------------------------------------------------------------- #
# Index-backed XQuery path steps == the tree-walking interpreter; the
# mapping reader's split is memoized
# ---------------------------------------------------------------------- #

_PATHS = (
    "/Course/Title",
    "//Title",
    "/Course[2]",
    "/Course/Title/a/@href",
    "//Course/Instructor",
    "/Course/*",
)


def _xquery_path(document, path):
    return f"doc('{document.source_name}')/{document.root.tag}{path}"


class TestCompiledPathParity:
    def test_mapping_path_split_is_memoized(self):
        assert _steps("Course/Title") is _steps("Course/Title")

    def test_index_and_scan_agree_on_scaled_document(self, scaled_document):
        documents = {scaled_document.source_name: scaled_document}
        for path in _PATHS:
            source = _xquery_path(scaled_document, path)
            indexed = xquery.compile(source).execute(documents)
            scanned = evaluate(parse_query(source),
                               DynamicContext(documents=documents))
            assert indexed == scanned, path
            assert indexed, path

    def test_index_lookup_counters_advance(self, scaled_document):
        index = scaled_document.index()
        before = index.stats()["descendant_lookups"]
        xquery.compile(_xquery_path(scaled_document, "//Course")).execute(
            {scaled_document.source_name: scaled_document})
        assert index.stats()["descendant_lookups"] > before
