"""Testbed assembly tests: the full snapshot → XML pipeline."""

import pytest

from repro import xquery
from repro.catalogs import build_testbed, paper_universities


def first_text(testbed, slug, path):
    """Normalized text of the first item the XQuery path
    ``doc('<slug>')/<slug>/<path>`` selects, or ``""``."""
    plan = xquery.compile(f"doc('{slug}')/{slug}/{path}")
    items = plan.execute(testbed.document_resolver())
    return items[0].normalized_text if items else ""


class TestAssembly:
    def test_twenty_five_sources(self, testbed):
        assert len(testbed) == 25

    def test_every_source_extracted_records(self, testbed):
        for bundle in testbed:
            assert bundle.stats.records >= 8, bundle.slug

    def test_every_document_validates_against_schema(self, testbed):
        for bundle in testbed:
            bundle.schema.validate(bundle.document)

    def test_course_codes_unique_within_each_source(self, testbed):
        """Filler must never collide with pinned codes (regression:
        umich filler once generated EECS484 on top of the pinned one)."""
        for bundle in testbed:
            codes = [course.code for course in bundle.courses]
            assert len(codes) == len(set(codes)), bundle.slug

    def test_documents_keyed_by_slug(self, testbed):
        docs = testbed.documents
        assert set(docs) == set(testbed.slugs)
        assert docs["cmu"].root.tag == "cmu"

    def test_unknown_source_raises(self, testbed):
        with pytest.raises(KeyError, match="no source"):
            testbed.source("hogwarts")

    def test_contains(self, testbed):
        assert "brown" in testbed
        assert "hogwarts" not in testbed

    def test_determinism(self):
        a = build_testbed(seed=7, universities=paper_universities())
        b = build_testbed(seed=7, universities=paper_universities())
        assert a.source("cmu").document == b.source("cmu").document
        assert a.source("brown").snapshot == b.source("brown").snapshot

    def test_seed_changes_filler_not_pinned(self):
        a = build_testbed(seed=1, universities=[paper_universities()[1]])
        b = build_testbed(seed=2, universities=[paper_universities()[1]])
        # pinned CMU courses identical under any seed
        first_a = a.source("cmu").document.root.find("Course")
        first_b = b.source("cmu").document.root.find("Course")
        assert first_a == first_b
        assert a.source("cmu").document != b.source("cmu").document


class TestPaperSamples:
    """The sample elements quoted in the paper exist in the extracted XML."""

    def test_q1_gatech_instructor_mark(self, testbed):
        assert first_text(
            testbed, "gatech", "Course[Instructor='Mark']/CourseNum") == \
            "20381"

    def test_q1_cmu_lecturer_mark(self, testbed):
        assert first_text(
            testbed, "cmu", "Course[Lecturer='Mark']/CourseNum") == \
            "15-567*"

    def test_q2_cmu_time_twelve_hour(self, testbed):
        assert first_text(
            testbed, "cmu", "Course[CourseNum='15-415']/Time") == "1:30 - 2:50"

    def test_q2_umass_time_twenty_four_hour(self, testbed):
        assert first_text(
            testbed, "umass", "Course[CourseNum='CS430']/Time") == \
            "16:00-17:15"

    def test_q3_umd_plain_string_title(self, testbed):
        assert first_text(
            testbed, "umd", "Course[CourseNum='CMSC420']/CourseName") == \
            "Data Structures;"

    def test_q3_brown_union_type_title(self, testbed):
        root = testbed.source("brown").document.root
        course = root.find("Course")
        title = course.find("Title")
        anchor = title.find("a")
        assert anchor.get("href") == "http://www.cs.brown.edu/courses/cs016/"
        assert "Data Structures" in title.normalized_text

    def test_q4_cmu_numeric_units(self, testbed):
        assert first_text(
            testbed, "cmu", "Course[CourseNum='15-415']/Units") == "12"

    def test_q4_eth_umfang(self, testbed):
        assert first_text(
            testbed, "eth",
            "Vorlesung[Titel='XML und Datenbanken']/Umfang") == "2V1U"

    def test_q5_eth_german_tags(self, testbed):
        root = testbed.source("eth").document.root
        first = root.find("Vorlesung")
        assert first.find("Titel") is not None
        assert first.find("Dozent") is not None

    def test_q6_toronto_textbook(self, testbed):
        book = first_text(
            testbed, "toronto", "course[title='Automated Verification']/text")
        assert book.startswith("'Model Checking', by Clarke")

    def test_q6_toronto_empty_textbook(self, testbed):
        root = testbed.source("toronto").document.root
        courses = root.findall("course")
        empty = [c for c in courses
                 if c.find("text") is not None
                 and c.find("text").normalized_text == ""]
        assert empty, "expected a course with an empty textbook value"

    def test_q6_cmu_has_no_textbook_field(self, testbed):
        root = testbed.source("cmu").document.root
        assert all(c.find("Textbook") is None and c.find("text") is None
                   for c in root.findall("Course"))

    def test_q7_umich_explicit_none(self, testbed):
        root = testbed.source("umich").document.root
        matches = [c for c in root.findall("Course")
                   if "Database Management Systems" in
                   (c.findtext("title") or "")]
        assert matches[0].findtext("prerequisite").strip() == "None"

    def test_q7_cmu_comment(self, testbed):
        assert first_text(
            testbed, "cmu", "Course[CourseNum='15-415']/Comment") == \
            "First course in sequence"

    def test_q8_gatech_restricted(self, testbed):
        assert first_text(
            testbed, "gatech", "Course[CourseNum='20422']/Restricted") == \
            "JR or SR"

    def test_q8_eth_semester_note(self, testbed):
        root = testbed.source("eth").document.root
        titles = [v.findtext("Titel") for v in root.findall("Vorlesung")]
        assert "Vernetzte Systeme (3. Semester)" in titles

    def test_q9_brown_room_on_course(self, testbed):
        assert first_text(
            testbed, "brown", "Course[CourseNum='CS032']/Room") == \
            "CIT 165, Labs in Sunlab"

    def test_q9_umd_room_inside_section_time(self, testbed):
        time_text = first_text(
            testbed, "umd",
            "Course[CourseNum='CMSC435']/Sections/Section/time")
        assert "CHM 1407" in time_text

    def test_q10_cmu_set_valued_lecturer(self, testbed):
        assert first_text(
            testbed, "cmu", "Course[CourseNum='15-610']/Lecturer") == \
            "Song/Wing"

    def test_q10_umd_instructor_in_section_title(self, testbed):
        root = testbed.source("umd").document.root
        titles = [t.text for t in root.iter("title")]
        assert any("Singh, H." in t for t in titles)
        assert any("Memon, A." in t for t in titles)

    def test_q11_ucsd_term_columns(self, testbed):
        root = testbed.source("ucsd").document.root
        course = [c for c in root.findall("Course")
                  if c.findtext("CourseTitle") ==
                  "Database System Implementation"][0]
        assert course.findtext("Fall2003") == "Yannis"
        assert course.findtext("Winter2004") == "Deutsch"

    def test_q12_cmu_separate_day_attribute(self, testbed):
        assert first_text(
            testbed, "cmu",
            "Course[CourseTitle='Computer Networks']/Day") == "F"

    def test_q12_brown_composite_title(self, testbed):
        root = testbed.source("brown").document.root
        titles = [c.find("Title").normalized_text
                  for c in root.findall("Course")]
        assert "Computer NetworksM hr. M 3-5:30" in titles


class TestPersistence:
    def test_save_writes_bundle_files(self, testbed, tmp_path):
        out = testbed.save(tmp_path / "testbed")
        brown = out / "brown"
        assert (brown / "snapshot.html").exists()
        assert (brown / "wrapper.cfg").exists()
        assert (brown / "brown.xml").exists()
        assert (brown / "brown.xsd").exists()

    def test_saved_config_parses_back(self, testbed, tmp_path):
        from repro.tess import WrapperConfig
        out = testbed.save(tmp_path / "testbed")
        text = (out / "umd" / "wrapper.cfg").read_text()
        config = WrapperConfig.from_text(text)
        assert config.has_nested_fields

    def test_saved_xml_parses_back(self, testbed, tmp_path):
        from repro.xmlmodel import parse_xml
        out = testbed.save(tmp_path / "testbed")
        doc = parse_xml((out / "cmu" / "cmu.xml").read_text(),
                        strip_whitespace=True)
        assert doc.root.tag == "cmu"
