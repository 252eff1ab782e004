"""Build pipeline: cache correctness, build reports, determinism."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalogs import (
    ArtifactCache,
    all_universities,
    build_testbed,
    clear_shared_testbeds,
    load_testbed,
    profile_fingerprint,
    shared_testbed,
)
from repro.catalogs import pipeline
from repro.catalogs.pipeline import (
    CONFIG_FILE,
    DOCUMENT_FILE,
    META_FILE,
    PIPELINE_VERSION,
    SCHEMA_FILE,
    SNAPSHOT_FILE,
)
from repro.tess import TessScraper
from repro.xmlmodel import serialize, serialize_pretty


@pytest.fixture(scope="module")
def subset():
    """Three sources: enough to exercise the pipeline, cheap to rebuild."""
    return all_universities()[:3]


def artifact_texts(testbed):
    return {
        bundle.slug: {
            "snapshot": bundle.snapshot,
            "config": bundle.config.to_text(),
            "xml": serialize(bundle.document, xml_declaration=True),
            "xsd": serialize_pretty(bundle.schema.to_xsd()),
        }
        for bundle in testbed
    }


class TestArtifactCache:
    def test_cold_build_is_all_misses_and_populates(self, subset, tmp_path):
        built = build_testbed(universities=subset, cache_dir=tmp_path)
        assert built.build_report.cache_misses == len(subset)
        cache = ArtifactCache(tmp_path)
        for profile in subset:
            entry = cache.entry_dir(profile, built.seed)
            for name in (SNAPSHOT_FILE, CONFIG_FILE, DOCUMENT_FILE,
                         SCHEMA_FILE, META_FILE):
                assert (entry / name).is_file(), f"{profile.slug}/{name}"

    def test_warm_build_is_all_hits_and_identical(self, subset, tmp_path):
        cold = build_testbed(universities=subset, cache_dir=tmp_path)
        warm = build_testbed(universities=subset, cache_dir=tmp_path)
        assert warm.build_report.cache_hits == len(subset)
        assert artifact_texts(warm) == artifact_texts(cold)
        for cold_b, warm_b in zip(cold, warm):
            assert warm_b.stats == cold_b.stats
            assert warm_b.courses == cold_b.courses

    def test_corrupt_artifact_is_rebuilt_and_repaired(self, subset, tmp_path):
        built = build_testbed(universities=subset[:1], cache_dir=tmp_path)
        entry = ArtifactCache(tmp_path).entry_dir(subset[0], built.seed)
        good = (entry / DOCUMENT_FILE).read_text(encoding="utf-8")
        (entry / DOCUMENT_FILE).write_text("<garbage", encoding="utf-8")

        again = build_testbed(universities=subset[:1], cache_dir=tmp_path)
        assert again.build_report.cache_misses == 1
        assert artifact_texts(again) == artifact_texts(built)
        # the rebuild re-stored the entry, repairing the corrupted file
        assert (entry / DOCUMENT_FILE).read_text(encoding="utf-8") == good
        repaired = build_testbed(universities=subset[:1], cache_dir=tmp_path)
        assert repaired.build_report.cache_hits == 1

    def test_truncated_artifact_is_a_miss(self, subset, tmp_path):
        built = build_testbed(universities=subset[:1], cache_dir=tmp_path)
        entry = ArtifactCache(tmp_path).entry_dir(subset[0], built.seed)
        snapshot = (entry / SNAPSHOT_FILE).read_text(encoding="utf-8")
        (entry / SNAPSHOT_FILE).write_text(snapshot[:len(snapshot) // 2],
                                           encoding="utf-8")
        assert ArtifactCache(tmp_path).load(subset[0], built.seed) is None

    def test_tampered_meta_fingerprint_is_a_miss(self, subset, tmp_path):
        built = build_testbed(universities=subset[:1], cache_dir=tmp_path)
        entry = ArtifactCache(tmp_path).entry_dir(subset[0], built.seed)
        meta = json.loads((entry / META_FILE).read_text(encoding="utf-8"))
        meta["fingerprint"] = "0" * 64
        (entry / META_FILE).write_text(json.dumps(meta), encoding="utf-8")
        assert ArtifactCache(tmp_path).load(subset[0], built.seed) is None

    def test_missing_meta_is_a_miss(self, subset, tmp_path):
        built = build_testbed(universities=subset[:1], cache_dir=tmp_path)
        entry = ArtifactCache(tmp_path).entry_dir(subset[0], built.seed)
        (entry / META_FILE).unlink()
        assert ArtifactCache(tmp_path).load(subset[0], built.seed) is None

    def test_code_change_invalidates_entries(self, subset, tmp_path,
                                             monkeypatch):
        build_testbed(universities=subset[:1], cache_dir=tmp_path)
        monkeypatch.setattr(pipeline, "_code_fingerprint_cache", "f" * 64)
        rebuilt = build_testbed(universities=subset[:1], cache_dir=tmp_path)
        assert rebuilt.build_report.cache_misses == 1
        # both generations coexist under the source's directory
        slug_dir = tmp_path / f"v{PIPELINE_VERSION}" / subset[0].slug
        assert len(list(slug_dir.iterdir())) == 2

    def test_seed_addresses_distinct_entries(self, subset):
        prints = {profile_fingerprint(subset[0], seed)
                  for seed in (2004, 2005, 2006)}
        assert len(prints) == 3

    def test_without_cache_dir_nothing_is_written(self, subset, tmp_path):
        build_testbed(universities=subset[:1])
        assert list(tmp_path.iterdir()) == []


class TestBuildReport:
    def test_report_shape(self, subset, tmp_path):
        built = build_testbed(universities=subset, cache_dir=tmp_path)
        report = built.build_report
        assert report.cache_root == str(tmp_path)
        assert [r.slug for r in report.records] == [p.slug for p in subset]
        assert report.cache_hits + report.cache_misses == len(subset)
        assert report.wall_s > 0

    def test_miss_records_have_stage_timings(self, subset):
        built = build_testbed(universities=subset)
        for record in built.build_report.records:
            assert not record.cache_hit
            assert record.render_s > 0
            assert record.scrape_s > 0
            assert record.infer_s > 0
            assert record.load_s == 0

    def test_hit_records_time_the_load_only(self, subset, tmp_path):
        build_testbed(universities=subset, cache_dir=tmp_path)
        warm = build_testbed(universities=subset, cache_dir=tmp_path)
        for record in warm.build_report.records:
            assert record.cache_hit
            assert record.load_s > 0
            assert record.render_s == record.scrape_s == record.infer_s == 0

    def test_render_is_readable(self, subset, tmp_path):
        built = build_testbed(universities=subset, cache_dir=tmp_path)
        text = built.build_report.render()
        for profile in subset:
            assert profile.slug in text
        assert "miss" in text
        assert f"{len(subset)} sources" in text

    def test_explicit_scraper_forces_serial_uncached(self, subset, tmp_path):
        built = build_testbed(universities=subset, scraper=TessScraper(),
                              cache_dir=tmp_path)
        assert built.build_report.cache_root is None
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_same_seed_builds_identical_artifacts(self, seed):
        profiles = all_universities()[:2]
        first = build_testbed(seed=seed, universities=profiles)
        second = build_testbed(seed=seed, universities=profiles)
        assert artifact_texts(first) == artifact_texts(second)

    def test_different_seeds_build_different_artifacts(self, subset):
        one = build_testbed(seed=2004, universities=subset[:1])
        other = build_testbed(seed=2005, universities=subset[:1])
        slug = subset[0].slug
        assert artifact_texts(one)[slug]["snapshot"] != \
            artifact_texts(other)[slug]["snapshot"]
        assert artifact_texts(one)[slug]["xml"] != \
            artifact_texts(other)[slug]["xml"]


class TestSharedTestbed:
    def test_shared_build_is_memoized_per_seed(self):
        clear_shared_testbeds()
        try:
            first = shared_testbed(977)
            assert shared_testbed(977) is first
            assert shared_testbed(978) is not first
        finally:
            clear_shared_testbeds()


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_artifacts(self, subset, tmp_path):
        built = build_testbed(universities=subset)
        built.save(tmp_path)
        loaded = load_testbed(tmp_path)
        assert loaded.seed == built.seed
        assert loaded.slugs == built.slugs
        assert artifact_texts(loaded) == artifact_texts(built)
        for orig, back in zip(built, loaded):
            assert back.stats == orig.stats
