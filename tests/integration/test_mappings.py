"""Mapping operator unit tests."""

import pytest

from repro.integration import (
    Capability,
    ClassificationList,
    CodeFromTitle,
    CopyInstructor,
    CopyRoom,
    CopyText,
    DecomposeCompositeTitle,
    EntryLevelExplicit,
    EntryLevelFromComment,
    FlattenUnionTitle,
    GermanSource,
    InstructorsFromSectionTitles,
    InstructorsFromTermColumns,
    MappingContext,
    MappingError,
    Mediator,
    NullableField,
    NumericUnits,
    ParseTimeRange,
    RoomFromText,
    SectionStructure,
    SourceMapping,
    SplitInstructors,
    WorkloadUnits,
    MISSING,
    INAPPLICABLE,
    DEFAULT_LEXICON,
)
from repro.xmlmodel import XmlDocument, XmlPathError, element


@pytest.fixture()
def ctx():
    return MappingContext(source="test", lexicon=DEFAULT_LEXICON)


def apply(op, record, ctx):
    out = {}
    op.apply(record, out, ctx)
    return out


class TestCopyOps:
    def test_copy_text(self, ctx):
        record = element("Course", element("CourseTitle", "  DB  Systems "))
        out = apply(CopyText("CourseTitle", "title"), record, ctx)
        assert out == {"title": "DB Systems"}

    def test_copy_text_rstrip(self, ctx):
        record = element("Course", element("CourseName", "Data Structures;"))
        out = apply(CopyText("CourseName", "title", rstrip=";"), record, ctx)
        assert out["title"] == "Data Structures"

    def test_copy_text_absent_leaves_out_empty(self, ctx):
        out = apply(CopyText("Nope", "title"), element("Course"), ctx)
        assert out == {}

    def test_copy_instructor_appends(self, ctx):
        record = element("Course", element("Instructor", "Mark"))
        out = {"instructors": ("Prior",)}
        CopyInstructor("Instructor").apply(record, out, ctx)
        assert out["instructors"] == ("Prior", "Mark")

    def test_copy_room(self, ctx):
        record = element("Course", element("Room", "CIT 165"))
        out = apply(CopyRoom("Room"), record, ctx)
        assert out["rooms"] == ("CIT 165",)

    def test_code_from_title(self, ctx):
        record = element(
            "Course", element("title", "EECS484 Database Management Systems"))
        out = apply(CodeFromTitle("title"), record, ctx)
        assert out == {"code": "EECS484",
                       "title": "Database Management Systems"}

    def test_code_from_title_no_code(self, ctx):
        record = element("Course", element("title", "Databases"))
        out = apply(CodeFromTitle("title"), record, ctx)
        assert out == {"title": "Databases"}

    def test_numeric_units(self, ctx):
        record = element("Course", element("Units", "12"))
        assert apply(NumericUnits("Units"), record, ctx) == {"units": 12.0}

    def test_numeric_units_garbage_raises(self, ctx):
        record = element("Course", element("Units", "viele"))
        with pytest.raises(MappingError):
            apply(NumericUnits("Units"), record, ctx)


class TestTimeOps:
    def test_cmu_style(self, ctx):
        record = element("Course", element("Time", "1:30 - 2:50"),
                         element("Day", "TTh"))
        out = apply(ParseTimeRange("Time", days_path="Day"), record, ctx)
        assert out == {"start_minute": 810, "end_minute": 890, "days": "TTh"}

    def test_leading_days_in_value(self, ctx):
        record = element("Course", element("Time", "MWF 16:00-17:15"))
        out = apply(ParseTimeRange("Time", clock="24h"), record, ctx)
        assert out["days"] == "MWF"
        assert out["start_minute"] == 960

    def test_trailing_room_ignored(self, ctx):
        record = element("Course",
                         element("meets", "MW 10:30 - 12:00, 1013 DOW"))
        out = apply(ParseTimeRange("meets"), record, ctx)
        assert out["start_minute"] == 630
        assert out["end_minute"] == 720

    def test_no_range_raises(self, ctx):
        record = element("Course", element("Time", "by arrangement"))
        with pytest.raises(MappingError, match="no time range"):
            apply(ParseTimeRange("Time"), record, ctx)

    def test_room_from_text(self, ctx):
        record = element("Course",
                         element("meets", "MW 10:30 - 12:00, 1013 DOW"))
        out = apply(RoomFromText("meets"), record, ctx)
        assert out["rooms"] == ("1013 DOW",)


class TestUnionAndComposite:
    def _brown_title(self, text, href=None):
        title = element("Title")
        if href:
            title.append(element("a", text, href=href))
            title.append(" D hr. MWF 11-12")
        else:
            title.append(text)
        return element("Course", title)

    def test_flatten_union_title_with_anchor(self, ctx):
        record = self._brown_title("Intro to Algorithms",
                                   href="http://x/cs016")
        out = apply(FlattenUnionTitle("Title"), record, ctx)
        assert out["title_url"] == "http://x/cs016"
        assert out["title"] == "Intro to Algorithms D hr. MWF 11-12"

    def test_flatten_union_title_plain(self, ctx):
        record = self._brown_title("Plain Title")
        out = apply(FlattenUnionTitle("Title"), record, ctx)
        assert out == {"title": "Plain Title"}

    def test_decompose_composite(self, ctx):
        record = self._brown_title("Computer NetworksM hr. M 3-5:30")
        out = apply(DecomposeCompositeTitle("Title"), record, ctx)
        assert out["title"] == "Computer Networks"
        assert out["days"] == "M"
        assert out["start_minute"] == 900
        assert out["end_minute"] == 1050
        assert out["extras"]["hour_block"] == "M"

    def test_decompose_with_comma_days(self, ctx):
        record = self._brown_title("Software EngK hr. T,Th 2:30-4")
        out = apply(DecomposeCompositeTitle("Title"), record, ctx)
        assert out["days"] == "TTh"
        assert out["title"] == "Software Eng"

    def test_decompose_failure_raises(self, ctx):
        record = self._brown_title("No schedule here")
        with pytest.raises(MappingError, match="does not decompose"):
            apply(DecomposeCompositeTitle("Title"), record, ctx)

    def test_workload_units_paper_value(self, ctx):
        record = element("Vorlesung", element("Umfang", "2V1U"))
        assert apply(WorkloadUnits("Umfang"), record, ctx) == {"units": 9.0}

    def test_workload_units_garbage(self, ctx):
        record = element("Vorlesung", element("Umfang", "nach Absprache"))
        with pytest.raises(MappingError):
            apply(WorkloadUnits("Umfang"), record, ctx)

    def test_german_source_marks_language(self, ctx):
        assert apply(GermanSource(), element("Vorlesung"), ctx) == \
            {"language": "de"}


class TestNullOps:
    def test_nullable_field_value(self, ctx):
        record = element("course", element("text", "'Model Checking'"))
        out = apply(NullableField("textbook", "text", MISSING), record, ctx)
        assert out["textbook"] == "'Model Checking'"

    def test_nullable_field_empty_value(self, ctx):
        record = element("course", element("text"))
        out = apply(NullableField("textbook", "text", MISSING), record, ctx)
        assert out["textbook"] is MISSING

    def test_nullable_field_absent_element(self, ctx):
        out = apply(NullableField("textbook", "text", MISSING),
                    element("course"), ctx)
        assert out["textbook"] is MISSING

    def test_nullable_field_schema_wide(self, ctx):
        out = apply(NullableField("open_to", None, INAPPLICABLE),
                    element("Vorlesung"), ctx)
        assert out["open_to"] is INAPPLICABLE

    def test_capability_depends_on_kind(self):
        assert NullableField("x", None, MISSING).capability is \
            Capability.NULL_HANDLING
        assert NullableField("x", None, INAPPLICABLE).capability is \
            Capability.SEMANTIC_NULL


class TestInferenceOps:
    def test_entry_level_explicit_none(self, ctx):
        record = element("Course", element("prerequisite", "None"))
        out = apply(EntryLevelExplicit("prerequisite"), record, ctx)
        assert out["entry_level"] is True

    def test_entry_level_explicit_prereq(self, ctx):
        record = element("Course", element("prerequisite", "EECS281"))
        out = apply(EntryLevelExplicit("prerequisite"), record, ctx)
        assert out["entry_level"] is False

    def test_entry_level_from_comment_marker(self, ctx):
        record = element("Course",
                         element("Comment", "First course in sequence"))
        out = apply(EntryLevelFromComment("Comment"), record, ctx)
        assert out["entry_level"] is True

    def test_entry_level_from_comment_prereq(self, ctx):
        record = element("Course",
                         element("Comment", "Prerequisite: 15-213"))
        out = apply(EntryLevelFromComment("Comment"), record, ctx)
        assert out["entry_level"] is False

    def test_entry_level_no_comment_defaults_true(self, ctx):
        out = apply(EntryLevelFromComment("Comment"), element("Course"), ctx)
        assert out["entry_level"] is True

    def test_classification_list(self, ctx):
        record = element("Course", element("Restricted", "JR or SR"))
        out = apply(ClassificationList("Restricted"), record, ctx)
        assert out["open_to"] == ("JR", "SR")

    def test_classification_empty_is_unrestricted(self, ctx):
        record = element("Course", element("Restricted"))
        out = apply(ClassificationList("Restricted"), record, ctx)
        assert out["open_to"] == ()


class TestStructuralOps:
    def _umd_course(self):
        return element(
            "Course",
            element("Sections",
                    element("Section",
                            element("title", "0101(13795) Singh, H."),
                            element("time", "MW 10:00am-11:15am CHM 1407")),
                    element("Section",
                            element("title", "0201(13796) Memon, A."),
                            element("time", "TTh 2:00pm-3:15pm EGR 2154"))))

    def test_section_structure_rooms(self, ctx):
        out = apply(SectionStructure("Sections/Section/time"),
                    self._umd_course(), ctx)
        assert out["rooms"] == ("CHM 1407", "EGR 2154")

    def test_section_structure_first_section_meeting(self, ctx):
        out = apply(SectionStructure("Sections/Section/time"),
                    self._umd_course(), ctx)
        assert out["days"] == "MW"
        assert out["start_minute"] == 600

    def test_section_structure_bad_time_raises(self, ctx):
        record = element(
            "Course", element("Sections", element(
                "Section", element("time", "whenever"))))
        with pytest.raises(MappingError, match="unrecognized"):
            apply(SectionStructure("Sections/Section/time"), record, ctx)

    def test_split_instructors(self, ctx):
        record = element("Course", element("Lecturer", "Song/Wing"))
        out = apply(SplitInstructors("Lecturer"), record, ctx)
        assert out["instructors"] == ("Song", "Wing")

    def test_split_single_instructor(self, ctx):
        record = element("Course", element("Lecturer", "Ailamaki"))
        out = apply(SplitInstructors("Lecturer"), record, ctx)
        assert out["instructors"] == ("Ailamaki",)

    def test_instructors_from_section_titles(self, ctx):
        out = apply(InstructorsFromSectionTitles("Sections/Section/title"),
                    self._umd_course(), ctx)
        assert out["instructors"] == ("Singh, H.", "Memon, A.")

    def test_instructors_from_section_titles_dedup(self, ctx):
        record = element(
            "Course", element("Sections",
                              element("Section",
                                      element("title", "0101 Singh, H.")),
                              element("Section",
                                      element("title", "0201 Singh, H."))))
        out = apply(InstructorsFromSectionTitles("Sections/Section/title"),
                    record, ctx)
        assert out["instructors"] == ("Singh, H.",)

    def test_instructors_from_term_columns(self, ctx):
        record = element("Course",
                         element("Fall2003", "Yannis"),
                         element("Winter2004", "Deutsch"),
                         element("Spring2004"))
        out = apply(InstructorsFromTermColumns(
            ("Fall2003", "Winter2004", "Spring2004")), record, ctx)
        assert out["instructors"] == ("Yannis", "Deutsch")


class TestMalformedPaths:
    """A mapping path is child tag names joined by ``/``; anything else is
    a broken mapping, raised from integration rather than reported as one
    per-record error after another."""

    DOCUMENT = XmlDocument(
        element("x", element("Course", element("Title", "Databases"),
                             code="CS145")),
        source_name="x")

    @pytest.mark.parametrize("path", ["Course[1]", "//Title", "@code",
                                      "a//b"])
    def test_operator_path_raises(self, path):
        mediator = Mediator({"x": SourceMapping(
            "x", "Course", [CopyText(path, "title")])})
        with pytest.raises(XmlPathError, match="mapping path"):
            mediator.integrate_records(self.DOCUMENT)

    @pytest.mark.parametrize("path", ["Course[1]", "//Course", "/Course"])
    def test_record_path_raises(self, path):
        mediator = Mediator({"x": SourceMapping(
            "x", path, [CopyText("Title", "title")])})
        with pytest.raises(XmlPathError, match="mapping path"):
            mediator.integrate_records(self.DOCUMENT)
