"""Golden-snapshot conformance suite.

``fingerprints.json`` pins a sha256 for every artifact of the
default-seed testbed — snapshot HTML, wrapper config, exact XML
serialization, pretty XSD — per source.  These tests fail on *any*
byte-level drift in rendering, scraping, serialization or schema
inference.  If a change is intentional, regenerate the pins::

    PYTHONPATH=src python -m repro.tools.regen_golden

and commit the JSON diff alongside the change.

The equivalence tests then assert the tentpole invariant: a serial cold
build, a parallel build, and a cache-warm build produce byte-identical
artifacts — so the pins above cover every build flavor, not just the
one that happened to produce them.
"""

import json
from pathlib import Path

import pytest

from repro.catalogs import DEFAULT_SEED, build_testbed
from repro.tools.regen_golden import source_fingerprints
from repro.xmlmodel import serialize, serialize_pretty

GOLDEN_FILE = Path(__file__).resolve().parent / "fingerprints.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


class TestGoldenFingerprints:
    def test_golden_seed_matches_default(self, golden):
        assert golden["seed"] == DEFAULT_SEED

    def test_golden_covers_every_source(self, golden, testbed):
        assert sorted(golden["sources"]) == sorted(testbed.slugs)

    def test_testbed_matches_golden(self, golden, testbed):
        actual = source_fingerprints(testbed)
        drifted = {slug: sorted(
            kind for kind in actual[slug]
            if actual[slug][kind] != golden["sources"][slug].get(kind))
            for slug in actual
            if actual[slug] != golden["sources"].get(slug)}
        assert not drifted, (
            f"artifact drift vs tests/golden/fingerprints.json: {drifted}; "
            "if intentional, run: PYTHONPATH=src python -m "
            "repro.tools.regen_golden")

    def test_every_artifact_kind_is_pinned(self, golden):
        for slug, prints in golden["sources"].items():
            assert sorted(prints) == ["config", "snapshot", "xml", "xsd"], slug


def artifact_bytes(testbed):
    """Every artifact of every source, as comparable text."""
    out = {}
    for bundle in testbed:
        out[bundle.slug] = {
            "snapshot": bundle.snapshot,
            "config": bundle.config.to_text(),
            "xml": serialize(bundle.document, xml_declaration=True),
            "xsd": serialize_pretty(bundle.schema.to_xsd()),
        }
    return out


class TestBuildEquivalence:
    """Fresh == cache-warm, byte for byte."""

    def test_cache_warm_build_is_byte_identical(self, testbed, tmp_path):
        cold = build_testbed(cache_dir=tmp_path)
        assert cold.build_report.cache_misses == len(cold)
        warm = build_testbed(cache_dir=tmp_path)
        assert warm.build_report.cache_hits == len(warm)
        assert artifact_bytes(warm) == artifact_bytes(testbed)

    def test_source_order_is_stable_across_flavors(self, testbed, tmp_path):
        cached = build_testbed(cache_dir=tmp_path)
        assert cached.slugs == testbed.slugs
