"""Content-addressed testbed build pipeline.

The pipeline is deterministic in ``(seed, profile)``: rendering, scraping
and schema inference involve no ambient state, so source artifacts can
be cached on disk and reused across processes. This module provides the
three pieces:

* :func:`build_testbed` — the public entry point: builds the testbed's
  sources one after another, consulting an on-disk
  :class:`ArtifactCache` when one is configured, and attaches a
  :class:`BuildReport` (per-stage wall time, cache hits/misses) to the
  returned :class:`~repro.catalogs.testbed.Testbed`.
* :class:`ArtifactCache` — content-addressed store keyed by
  ``(seed, slug, profile fingerprint, pipeline code fingerprint)``.
  Entries hold the snapshot HTML, wrapper config, exact XML serialization
  and XSD plus a ``meta.json`` carrying artifact checksums; any mismatch
  (corruption, truncation, stale fingerprint) makes the entry a miss and
  the source is rebuilt from scratch.
* :func:`shared_testbed` — a per-process memo of full default builds so
  call sites like ``run_benchmark``/``run_all`` and the CLI share one
  build per seed instead of rebuilding the 25 sources per call.

The build is serial on purpose: every stage is pure-Python CPU work, so
under the GIL a thread pool only adds scheduling overhead.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..tess import ExtractionStats, TessError, TessScraper, WrapperConfig
from ..xmlmodel import (
    XmlError,
    infer_schema,
    parse_xml,
    parse_xsd,
    serialize_digest,
    serialize_pretty,
)
from .registry import all_universities
from .testbed import DEFAULT_SEED, SourceBundle, Testbed
from .universities import UniversityProfile

#: Bump when the on-disk cache entry layout changes incompatibly.
PIPELINE_VERSION = 1

SNAPSHOT_FILE = "snapshot.html"
CONFIG_FILE = "wrapper.cfg"
DOCUMENT_FILE = "document.xml"
SCHEMA_FILE = "schema.xsd"
META_FILE = "meta.json"


# --------------------------------------------------------------------------- #
# Fingerprinting
# --------------------------------------------------------------------------- #

_code_fingerprint_cache: str | None = None
_code_fingerprint_lock = threading.Lock()


def code_fingerprint() -> str:
    """Hash of every source file the pipeline's output depends on.

    Covers ``repro.catalogs``, ``repro.tess`` and ``repro.xmlmodel``: a
    change to any renderer, extraction rule or serializer invalidates all
    cached artifacts automatically, without anyone remembering to bump
    :data:`PIPELINE_VERSION`.
    """
    global _code_fingerprint_cache
    with _code_fingerprint_lock:
        if _code_fingerprint_cache is None:
            digest = hashlib.sha256()
            package_root = Path(__file__).resolve().parent.parent
            for subpackage in ("catalogs", "tess", "xmlmodel"):
                base = package_root / subpackage
                for path in sorted(base.rglob("*.py")):
                    digest.update(str(path.relative_to(package_root)).encode())
                    digest.update(b"\0")
                    digest.update(path.read_bytes())
            _code_fingerprint_cache = digest.hexdigest()
    return _code_fingerprint_cache


def profile_fingerprint(profile: UniversityProfile, seed: int,
                        config: WrapperConfig | None = None,
                        scale: int = 1) -> str:
    """Content key of one source build: identity + config + code + seed
    (+ scale for scale-tier builds).

    *config* lets callers that already built the profile's
    :class:`WrapperConfig` avoid constructing it a second time.  ``scale``
    enters the payload only when it is not 1, so every cache entry written
    before the scale tier existed keeps its address.
    """
    if config is None:
        config = profile.wrapper_config()
    fields = {
        "pipeline_version": PIPELINE_VERSION,
        "code": code_fingerprint(),
        "seed": seed,
        "class": type(profile).__qualname__,
        "slug": profile.slug,
        "name": profile.name,
        "country": profile.country,
        "language": profile.language,
        "heterogeneities": list(profile.heterogeneities),
        "wrapper": config.to_text(),
    }
    if scale != 1:
        fields["scale"] = scale
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Build report
# --------------------------------------------------------------------------- #

@dataclass
class SourceBuildRecord:
    """Timing and cache outcome for one source build."""

    slug: str
    cache_hit: bool
    render_s: float = 0.0     # canonical courses + HTML snapshot
    scrape_s: float = 0.0     # TESS extraction
    infer_s: float = 0.0      # schema inference
    load_s: float = 0.0       # cache read (hits only)
    #: sha256 of the exact document serialization when a build stage
    #: already touched those bytes (cache load/store); primes the
    #: testbed's document-hash memo.
    document_sha256: str | None = None

    @property
    def total_s(self) -> float:
        return self.render_s + self.scrape_s + self.infer_s + self.load_s


@dataclass
class BuildReport:
    """What one :func:`build_testbed` call did, and how long it took."""

    seed: int
    cache_root: str | None = None
    wall_s: float = 0.0
    scale: int = 1
    records: list[SourceBuildRecord] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.records if not r.cache_hit)

    @property
    def render_s(self) -> float:
        return sum(r.render_s for r in self.records)

    @property
    def scrape_s(self) -> float:
        return sum(r.scrape_s for r in self.records)

    @property
    def infer_s(self) -> float:
        return sum(r.infer_s for r in self.records)

    @property
    def load_s(self) -> float:
        return sum(r.load_s for r in self.records)

    def render(self) -> str:
        """Human-readable per-source table plus totals."""
        lines = [
            f"testbed build: seed={self.seed} "
            f"cache={self.cache_root or 'off'}",
            f"{'source':<12} {'cache':<6} {'render':>8} {'scrape':>8} "
            f"{'infer':>8} {'load':>8} {'total':>8}",
        ]
        for record in self.records:
            lines.append(
                f"{record.slug:<12} {'hit' if record.cache_hit else 'miss':<6} "
                f"{record.render_s:>8.4f} {record.scrape_s:>8.4f} "
                f"{record.infer_s:>8.4f} {record.load_s:>8.4f} "
                f"{record.total_s:>8.4f}")
        lines.append(
            f"{len(self.records)} sources in {self.wall_s:.3f}s wall "
            f"({self.cache_hits} cache hit(s), {self.cache_misses} miss(es); "
            f"cpu render {self.render_s:.3f}s, scrape {self.scrape_s:.3f}s, "
            f"infer {self.infer_s:.3f}s, cache load {self.load_s:.3f}s)")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Artifact cache
# --------------------------------------------------------------------------- #

class ArtifactCache:
    """Content-addressed on-disk store of built source artifacts.

    Layout (one directory per ``(source, fingerprint)``)::

        <root>/v<PIPELINE_VERSION>/<slug>/<fingerprint>/
            snapshot.html    rendered page, byte-exact
            wrapper.cfg      WrapperConfig.to_text()
            document.xml     exact serialization (round-trips via parse_xml)
            schema.xsd       pretty-printed XSD (round-trips via parse_xsd)
            meta.json        fingerprint, stats, sha256 per artifact

    The fingerprint covers the seed, the profile's identity and wrapper
    config, and a hash of the pipeline's own source code, so stale entries
    are simply never addressed again.  ``meta.json`` checksums guard the
    payload files themselves: a corrupted or truncated artifact fails
    verification and the entry is treated as a miss.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def entry_dir(self, profile: UniversityProfile, seed: int,
                  config: WrapperConfig | None = None,
                  scale: int = 1) -> Path:
        return (self.root / f"v{PIPELINE_VERSION}" / profile.slug
                / profile_fingerprint(profile, seed, config, scale))

    # -- read ------------------------------------------------------------- #

    def load(self, profile: UniversityProfile, seed: int,
             scale: int = 1) -> tuple[SourceBundle, str] | None:
        """Reconstruct ``(bundle, document sha256)``, or ``None`` on any
        defect.  The sha comes from the verified ``meta.json`` checksum —
        the same bytes just read — so the caller can prime the testbed's
        document-hash memo without re-serializing."""
        config = profile.wrapper_config()
        entry = self.entry_dir(profile, seed, config, scale)
        try:
            meta = json.loads((entry / META_FILE).read_text(encoding="utf-8"))
            if meta.get("fingerprint") != entry.name:
                return None
            texts: dict[str, str] = {}
            for name in (SNAPSHOT_FILE, CONFIG_FILE, DOCUMENT_FILE,
                         SCHEMA_FILE):
                text = (entry / name).read_text(encoding="utf-8")
                if _sha256(text) != meta["sha256"][name]:
                    return None
                texts[name] = text
            document = parse_xml(texts[DOCUMENT_FILE],
                                 source_name=profile.slug, trusted=True)
            schema = parse_xsd(parse_xml(texts[SCHEMA_FILE],
                                         source_name=profile.slug,
                                         strip_whitespace=True,
                                         trusted=True))
            # The entry was addressed through a fingerprint that embeds the
            # profile's current wrapper text, so the live config object is
            # the parsed form of the (hash-verified) wrapper.cfg on disk.
            stats = ExtractionStats(**meta["stats"])
        except (OSError, KeyError, TypeError, ValueError,
                XmlError, TessError):
            return None
        bundle = SourceBundle(
            profile=profile,
            courses=profile.build_courses(seed, scale=scale),
            snapshot=texts[SNAPSHOT_FILE],
            config=config,
            document=document,
            schema=schema,
            stats=stats,
        )
        return bundle, meta["sha256"][DOCUMENT_FILE]

    # -- write ------------------------------------------------------------ #

    def store(self, bundle: SourceBundle, seed: int,
              scale: int = 1) -> tuple[Path, str]:
        """Persist one built source; returns ``(entry directory, document
        sha256)`` — the sha is computed while serializing, never as a
        second pass."""
        entry = self.entry_dir(bundle.profile, seed, bundle.config, scale)
        entry.mkdir(parents=True, exist_ok=True)
        document_text, document_sha = serialize_digest(
            bundle.document, xml_declaration=True)
        texts = {
            SNAPSHOT_FILE: bundle.snapshot,
            CONFIG_FILE: bundle.config.to_text(),
            DOCUMENT_FILE: document_text,
            SCHEMA_FILE: serialize_pretty(bundle.schema.to_xsd()),
        }
        for name, text in texts.items():
            (entry / name).write_text(text, encoding="utf-8")
        sha256s = {name: _sha256(text) for name, text in texts.items()
                   if name != DOCUMENT_FILE}
        sha256s[DOCUMENT_FILE] = document_sha
        meta = {
            "fingerprint": entry.name,
            "slug": bundle.slug,
            "seed": seed,
            "pipeline_version": PIPELINE_VERSION,
            "stats": {
                "source": bundle.stats.source,
                "records": bundle.stats.records,
                "fields_extracted": bundle.stats.fields_extracted,
                "fields_missing": bundle.stats.fields_missing,
            },
            "sha256": sha256s,
        }
        # meta.json is written last: a crash mid-store leaves an entry
        # without valid metadata, which load() treats as a miss.
        (entry / META_FILE).write_text(
            json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
        return entry, document_sha


# --------------------------------------------------------------------------- #
# Building
# --------------------------------------------------------------------------- #

def _build_fresh(profile: UniversityProfile, seed: int,
                 scraper: TessScraper,
                 record: SourceBuildRecord,
                 scale: int = 1) -> SourceBundle:
    """The serial three-stage pipeline for one source, with stage timers."""
    start = time.perf_counter()
    courses = profile.build_courses(seed, scale=scale)
    snapshot = profile.render(courses)
    record.render_s = time.perf_counter() - start

    start = time.perf_counter()
    config = profile.wrapper_config()
    document = scraper.extract(snapshot, config)
    record.scrape_s = time.perf_counter() - start

    start = time.perf_counter()
    schema = infer_schema(document)
    record.infer_s = time.perf_counter() - start

    assert scraper.last_stats is not None
    return SourceBundle(
        profile=profile, courses=courses, snapshot=snapshot, config=config,
        document=document, schema=schema, stats=scraper.last_stats)


def _build_one(profile: UniversityProfile, seed: int,
               cache: ArtifactCache | None, scraper: TessScraper,
               scale: int = 1) -> tuple[SourceBundle, SourceBuildRecord]:
    """Build one source, via the cache when one is given."""
    record = SourceBuildRecord(slug=profile.slug, cache_hit=False)
    if cache is not None:
        start = time.perf_counter()
        cached = cache.load(profile, seed, scale)
        if cached is not None:
            bundle, record.document_sha256 = cached
            record.cache_hit = True
            record.load_s = time.perf_counter() - start
            return bundle, record
    bundle = _build_fresh(profile, seed, scraper, record, scale)
    if cache is not None:
        _, record.document_sha256 = cache.store(bundle, seed, scale)
    return bundle, record


def build_testbed(seed: int = DEFAULT_SEED,
                  universities: list[UniversityProfile] | None = None,
                  scraper: TessScraper | None = None,
                  *,
                  cache_dir: str | Path | None = None,
                  scale: int = 1) -> Testbed:
    """Build the full testbed (all 25 sources unless a subset is given).

    Args:
        seed: generation seed; the build is deterministic in it.
        universities: subset of profiles to build (default: all 25).
        scraper: explicit extraction engine.  Passing one forces an
            uncached build — the engine's behavior (e.g. the no-nesting
            ablation flavor) is not part of the cache key.
        cache_dir: root of an :class:`ArtifactCache`; ``None`` disables
            on-disk caching entirely.
        scale: catalog multiplier for scale-tier testbeds; ``scale=1``
            is byte-identical to a build from before this parameter
            existed (same filler stream, same cache addresses).

    The returned :class:`Testbed` carries a :class:`BuildReport` as its
    ``build_report`` attribute.
    """
    wall_start = time.perf_counter()
    profiles = universities if universities is not None else all_universities()
    cache = ArtifactCache(cache_dir) \
        if cache_dir is not None and scraper is None else None
    engine = scraper if scraper is not None else TessScraper()
    report = BuildReport(
        seed=seed, cache_root=str(cache.root) if cache is not None else None,
        scale=scale)
    bundles = []
    for profile in profiles:
        bundle, record = _build_one(profile, seed, cache, engine, scale)
        bundles.append(bundle)
        report.records.append(record)
    report.wall_s = time.perf_counter() - wall_start
    testbed = Testbed(bundles, seed, scale=scale)
    for record in report.records:
        if record.document_sha256 is not None:
            testbed.prime_document_hash(record.slug, record.document_sha256)
    testbed.build_report = report
    return testbed


# --------------------------------------------------------------------------- #
# Shared default builds
# --------------------------------------------------------------------------- #

_shared_testbeds: dict[tuple[int, int], Testbed] = {}
_shared_lock = threading.Lock()


def shared_testbed(seed: int = DEFAULT_SEED, *,
                   cache_dir: str | Path | None = None,
                   scale: int = 1) -> Testbed:
    """The process-wide full default build for ``(seed, scale)``, built at
    most once.

    ``run_benchmark``/``run_all`` and every CLI command route their
    implicit builds through here, so one invocation that touches the
    testbed several times pays for a single build.  Testbeds are treated
    as immutable by all consumers; callers that need a private build use
    :func:`build_testbed` directly.
    """
    with _shared_lock:
        testbed = _shared_testbeds.get((seed, scale))
        if testbed is None:
            testbed = build_testbed(seed=seed, cache_dir=cache_dir,
                                    scale=scale)
            _shared_testbeds[(seed, scale)] = testbed
    return testbed


def clear_shared_testbeds() -> None:
    """Drop all memoized builds (tests and long-lived processes)."""
    with _shared_lock:
        _shared_testbeds.clear()
