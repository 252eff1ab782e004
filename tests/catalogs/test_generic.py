"""Generic-university profile tests: all three layouts, spec validation."""

import pytest

from repro.catalogs import build_testbed
from repro.catalogs.universities import GenericSpec, GenericUniversity
from repro.integration import Mediator, generic_mapping


def _bundle(profile, seed):
    """One source built through the pipeline entry point."""
    return build_testbed(seed, universities=[profile]).source(profile.slug)


def make_spec(**overrides):
    params = dict(
        slug="testu", name="Test University", layout="table",
        code_tag="Code", title_tag="Title", instructor_tag="Teacher",
        time_tag="Meets", room_tag="Where", units_tag="Credits",
        code_prefix="T", code_start=100, course_count=6)
    params.update(overrides)
    return GenericSpec(**params)


class TestSpecValidation:
    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            make_spec(layout="iframe-soup")

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError, match="clock"):
            make_spec(clock="13h")

    def test_profile_adopts_spec_identity(self):
        profile = GenericUniversity(make_spec(country="Atlantis"))
        assert profile.slug == "testu"
        assert profile.country == "Atlantis"
        assert profile.language == "en"

    def test_german_spec_sets_language(self):
        profile = GenericUniversity(make_spec(german=True))
        assert profile.language == "de"


@pytest.mark.parametrize("layout", ["table", "blocks", "dl"])
class TestLayouts:
    def test_pipeline_round_trip(self, layout):
        profile = GenericUniversity(make_spec(layout=layout))
        bundle = _bundle(profile, seed=11)
        assert bundle.stats.records == 6
        first = bundle.document.root.find("Course")
        assert first.find("Code") is not None
        assert first.find("Title") is not None
        assert first.find("Teacher") is not None

    def test_schema_valid(self, layout):
        profile = GenericUniversity(make_spec(layout=layout))
        bundle = _bundle(profile, seed=11)
        bundle.schema.validate(bundle.document)

    def test_mediator_integration(self, layout):
        profile = GenericUniversity(make_spec(layout=layout))
        bundle = _bundle(profile, seed=11)
        mediator = Mediator({profile.slug: generic_mapping(profile)})
        courses = mediator.integrate_document(bundle.document)
        assert len(courses) == 6
        assert all(c.title and c.instructors for c in courses)
        assert all(c.start_minute is not None for c in courses)


class TestClockConventions:
    def test_24h_rendering(self):
        profile = GenericUniversity(make_spec(clock="24h"))
        courses = profile.build_courses(seed=3)
        page = profile.render(courses)
        # 24-hour pages never carry am/pm suffixes in the time cells.
        import re
        times = re.findall(r'class="c-time">([^<]*)<', page)
        assert times
        assert all("am" not in t and "pm" not in t for t in times)

    def test_units_omitted_when_unconfigured(self):
        profile = GenericUniversity(make_spec(units_tag=None))
        bundle = _bundle(profile, seed=3)
        assert all(c.find("Credits") is None
                   for c in bundle.document.root.findall("Course"))

    def test_german_units_render_workload(self):
        profile = GenericUniversity(make_spec(
            german=True, units_tag="Umfang", units_choices=(9,)))
        bundle = _bundle(profile, seed=3)
        values = {c.findtext("Umfang")
                  for c in bundle.document.root.findall("Course")}
        assert values == {"2V1U"}
