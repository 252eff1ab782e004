"""Path selection over :class:`XmlElement` trees.

Two readers select elements by path.  The XQuery engine is the one
general path language: child and descendant steps, ``*``, ``@name``,
``text()``, positional and equality predicates.  Integration mappings
read records with :func:`repro.integration.mappings.select_path`, which
takes only child tag names joined by ``/`` and rejects anything else
with :class:`XmlPathError`.
"""

import pytest

from repro import xquery
from repro.integration import (
    DEFAULT_LEXICON,
    MISSING,
    CopyText,
    MappingContext,
    NullableField,
)
from repro.integration.mappings import select_path
from repro.xmlmodel import XmlDocument, XmlPathError, element


@pytest.fixture()
def catalog():
    return element(
        "umd",
        element(
            "Course",
            element("CourseName", "Software Engineering"),
            element("Section",
                    element("time", "MW 10:00", room="CHM 1407"),
                    id="0101"),
            element("Section",
                    element("time", "TT 14:00", room="EGR 2154"),
                    id="0201"),
            code="CMSC435",
        ),
        element(
            "Course",
            element("CourseName", "Data Structures"),
            element("Section", element("time", "F 9:00"), id="0101"),
            code="CMSC420",
        ),
    )


def select(catalog, path):
    """Items the XQuery path ``doc('umd')/umd<path>`` selects."""
    plan = xquery.compile(f"doc('umd')/umd{path}")
    return plan.execute({"umd": XmlDocument(catalog, source_name="umd")})


def read(op, record):
    out = {}
    op.apply(record, out, MappingContext(source="umd",
                                         lexicon=DEFAULT_LEXICON))
    return out


class TestParsePath:
    """A mapping path that is not a chain of child names fails loudly."""

    def test_rejects_empty(self, catalog):
        with pytest.raises(XmlPathError):
            select_path(catalog, "")

    def test_rejects_blank(self, catalog):
        with pytest.raises(XmlPathError):
            select_path(catalog, "   ")

    def test_rejects_trailing_descendant(self, catalog):
        with pytest.raises(XmlPathError):
            select_path(catalog, "Course//")

    def test_rejects_attribute_mid_path(self, catalog):
        with pytest.raises(XmlPathError):
            select_path(catalog, "@code/Section")

    def test_rejects_unbalanced_brackets(self, catalog):
        with pytest.raises(XmlPathError):
            select_path(catalog, "Course[@code='x'")

    def test_rejects_empty_predicate(self, catalog):
        with pytest.raises(XmlPathError):
            select_path(catalog, "Course[]")

    def test_rejects_zero_position(self, catalog):
        with pytest.raises(XmlPathError):
            select_path(catalog, "Course[0]")

    def test_rejects_garbage_predicate(self, catalog):
        with pytest.raises(XmlPathError):
            select_path(catalog, "Course[a b c]")

    def test_rejects_predicate_on_text(self, catalog):
        with pytest.raises(XmlPathError):
            select_path(catalog, "Course/text()[1]")


class TestSelect:
    """The XQuery engine covers every shape of path; on child chains it
    agrees with the mapping reader."""

    def test_child_step(self, catalog):
        assert len(select(catalog, "/Course")) == 2
        assert select(catalog, "/Course") == select_path(catalog, "Course")

    def test_nested_steps(self, catalog):
        sections = select(catalog, "/Course/Section")
        assert [s.get("id") for s in sections] == ["0101", "0201", "0101"]
        assert sections == select_path(catalog, "Course/Section")

    def test_wildcard(self, catalog):
        children = select(catalog, "/Course[1]/*")
        assert [c.tag for c in children] == \
            ["CourseName", "Section", "Section"]

    def test_descendant_axis(self, catalog):
        times = select(catalog, "//time")
        assert len(times) == 3

    def test_descendant_mid_path(self, catalog):
        rooms = select(catalog, "/Course//time/@room")
        assert rooms == ["CHM 1407", "EGR 2154"]

    def test_position_predicate(self, catalog):
        second = select(catalog, "/Course[2]/CourseName")
        assert second[0].text == "Data Structures"

    def test_attribute_predicate(self, catalog):
        matches = select(catalog, "/Course[@code='CMSC420']")
        assert len(matches) == 1

    def test_child_text_predicate(self, catalog):
        matches = select(catalog, "/Course[CourseName='Data Structures']")
        assert matches[0].get("code") == "CMSC420"

    def test_attribute_selection(self, catalog):
        codes = select(catalog, "/Course/@code")
        assert codes == ["CMSC435", "CMSC420"]

    def test_missing_attribute_contributes_nothing(self, catalog):
        assert select(catalog, "/Course/Section/@missing") == []

    def test_text_step(self, catalog):
        names = select(catalog, "/Course/CourseName/text()")
        assert names == ["Software Engineering", "Data Structures"]

    def test_no_match_returns_empty(self, catalog):
        assert select(catalog, "/Lecture") == []
        assert select_path(catalog, "Lecture") == []

    def test_chained_predicates(self, catalog):
        matches = select(
            catalog, "/Course[CourseName='Software Engineering']/Section[2]")
        assert matches[0].get("id") == "0201"


class TestHelpers:
    """What a mapping operator reads through a path."""

    def test_select_elements_rejects_attribute_paths(self, catalog):
        with pytest.raises(XmlPathError):
            select_path(catalog, "Course/@code")

    def test_select_elements(self, catalog):
        assert len(select_path(catalog, "Course")) == 2

    def test_first_match_in_document_order(self, catalog):
        first = select_path(catalog, "Course/CourseName")[0]
        assert first.text == "Software Engineering"

    def test_no_match_is_empty(self, catalog):
        assert select_path(catalog, "Nope") == []

    def test_operator_reads_normalized_first_text(self, catalog):
        assert read(CopyText("Course/CourseName", "title"), catalog) == \
            {"title": "Software Engineering"}

    def test_attribute_value_through_xquery(self, catalog):
        assert select(catalog, "/Course[1]/@code") == ["CMSC435"]

    def test_absent_path_yields_the_null_policy(self, catalog):
        assert read(NullableField("textbook", "Nope", MISSING), catalog) == \
            {"textbook": MISSING}
