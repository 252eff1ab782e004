"""Testbed package: canonical course data, snapshot renderers, extraction.

Typical use::

    from repro.catalogs import build_testbed

    testbed = build_testbed()          # all 25 sources, default seed
    cmu_xml = testbed.source("cmu").document
"""

from .generator import CourseFactory, FillerStyle, INSTRUCTOR_SURNAMES, TOPICS
from .model import (
    CanonicalCourse,
    DAY_ORDER,
    Meeting,
    SectionInfo,
    fmt_12h,
    fmt_24h,
    fmt_range_12h,
    fmt_range_24h,
    units_to_workload,
    workload_to_units,
)
from .registry import (
    all_universities,
    extended_universities,
    future_universities,
    generic_universities,
    get_university,
    paper_universities,
)
from .pipeline import (
    ArtifactCache,
    BuildReport,
    SourceBuildRecord,
    build_testbed,
    clear_shared_testbeds,
    code_fingerprint,
    profile_fingerprint,
    shared_testbed,
)
from .stats import CoverageReport, SourceStats, coverage_report, source_stats
from .testbed import (
    DEFAULT_SEED,
    SourceBundle,
    Testbed,
    load_testbed,
)
from .universities import UniversityProfile

__all__ = [
    "ArtifactCache",
    "BuildReport",
    "CanonicalCourse",
    "CoverageReport",
    "CourseFactory",
    "DAY_ORDER",
    "DEFAULT_SEED",
    "FillerStyle",
    "INSTRUCTOR_SURNAMES",
    "Meeting",
    "SectionInfo",
    "SourceBuildRecord",
    "SourceBundle",
    "SourceStats",
    "TOPICS",
    "Testbed",
    "UniversityProfile",
    "all_universities",
    "extended_universities",
    "future_universities",
    "build_testbed",
    "clear_shared_testbeds",
    "code_fingerprint",
    "coverage_report",
    "fmt_12h",
    "fmt_24h",
    "fmt_range_12h",
    "fmt_range_24h",
    "generic_universities",
    "get_university",
    "load_testbed",
    "paper_universities",
    "profile_fingerprint",
    "shared_testbed",
    "source_stats",
    "units_to_workload",
    "workload_to_units",
]
