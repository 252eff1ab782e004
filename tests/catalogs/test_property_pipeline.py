"""Property tests over randomized source profiles.

The pipeline must hold for *any* valid source description, not just the
25 registered ones: random tag vocabularies, layouts and clocks all
round-trip through render → TESS → XML → mediator.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalogs import build_testbed
from repro.catalogs.universities import GenericSpec, GenericUniversity
from repro.integration import Mediator, generic_mapping
from repro.xmlmodel import is_valid_name


def _bundle(profile, seed):
    """One source built through the pipeline entry point."""
    return build_testbed(seed, universities=[profile]).source(profile.slug)

_tag_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{1,14}", fullmatch=True) \
    .filter(is_valid_name)


@st.composite
def _specs(draw):
    tags = draw(st.lists(_tag_names, min_size=6, max_size=6,
                         unique_by=lambda t: t.lower()))
    return GenericSpec(
        slug="prop",
        name="Property University",
        layout=draw(st.sampled_from(["table", "blocks", "dl"])),
        code_tag=tags[0], title_tag=tags[1], instructor_tag=tags[2],
        time_tag=tags[3], room_tag=tags[4],
        units_tag=draw(st.one_of(st.none(), st.just(tags[5]))),
        clock=draw(st.sampled_from(["12h", "24h"])),
        code_prefix=draw(st.sampled_from(["CS", "X-", "6."])),
        code_start=draw(st.integers(min_value=100, max_value=900)),
        course_count=draw(st.integers(min_value=1, max_value=8)),
    )


class TestPipelineProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_specs(), st.integers(min_value=0, max_value=9999))
    def test_render_extract_round_trip(self, spec, seed):
        profile = GenericUniversity(spec)
        bundle = _bundle(profile, seed)
        records = bundle.document.root.findall("Course")
        assert len(records) == spec.course_count
        # Every record carries the configured tags with content.
        for record, course in zip(records, bundle.courses):
            assert record.findtext(spec.code_tag) == course.code
            assert record.findtext(spec.title_tag) == course.title
            assert record.findtext(spec.instructor_tag) == \
                course.instructors[0]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_specs(), st.integers(min_value=0, max_value=9999))
    def test_schema_self_validates(self, spec, seed):
        bundle = _bundle(GenericUniversity(spec), seed)
        bundle.schema.validate(bundle.document)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_specs(), st.integers(min_value=0, max_value=9999))
    def test_mediator_recovers_meetings(self, spec, seed):
        profile = GenericUniversity(spec)
        bundle = _bundle(profile, seed)
        mediator = Mediator({spec.slug: generic_mapping(profile)})
        courses = mediator.integrate_document(bundle.document)
        assert len(courses) == spec.course_count
        canonical = {c.code: c for c in bundle.courses}
        for course in courses:
            origin = canonical[course.code]
            assert course.start_minute == origin.meeting.start_minute
            assert course.end_minute == origin.meeting.end_minute
