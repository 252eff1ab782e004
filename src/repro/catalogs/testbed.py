"""Testbed assembly: canonical data → HTML snapshots → extracted XML.

:func:`repro.catalogs.pipeline.build_testbed` runs the full pipeline for
every registered source and returns a :class:`Testbed`, the object the
rest of the system works against: the benchmark reads its documents, gold
answers read its canonical courses, the web site generator reads its
snapshots and schemas.  This module holds the data side: the per-source
:class:`SourceBundle`, the assembled :class:`Testbed` with its
save/load round trip, and :func:`build_source`, the one-source pipeline.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..tess import ExtractionStats, TessScraper, WrapperConfig
from ..xmlmodel import (
    XmlDocument,
    XmlSchema,
    infer_schema,
    parse_xml,
    parse_xsd,
    serialize_digest,
    serialize_pretty,
)
from ..xquery.context import DocumentResolver
from .model import CanonicalCourse
from .universities import UniversityProfile

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import BuildReport

DEFAULT_SEED = 2004  # the paper's year; any seed yields a valid testbed

MANIFEST_FILE = "testbed.json"


@dataclass
class SourceBundle:
    """Everything the testbed holds for one source."""

    profile: UniversityProfile
    courses: list[CanonicalCourse]
    snapshot: str                 # cached HTML page
    config: WrapperConfig
    document: XmlDocument         # extracted XML
    schema: XmlSchema             # inferred XSD
    stats: ExtractionStats

    @property
    def slug(self) -> str:
        return self.profile.slug


class Testbed:
    """The assembled testbed: 25 sources with snapshots, XML and schemas."""

    def __init__(self, sources: list[SourceBundle], seed: int,
                 scale: int = 1) -> None:
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self._sources = {bundle.slug: bundle for bundle in sources}
        self.seed = seed
        self.scale = scale
        #: set by the build pipeline; None for hand-assembled testbeds
        self.build_report: "BuildReport | None" = None
        self._fingerprint_lock = threading.Lock()
        self._document_hashes: dict[str, str] = {}
        self._content_fingerprints: dict[tuple[str, ...] | None, str] = {}
        self._resolver: DocumentResolver | None = None

    # -- access ---------------------------------------------------------- #

    @property
    def slugs(self) -> list[str]:
        return list(self._sources)

    def source(self, slug: str) -> SourceBundle:
        try:
            return self._sources[slug]
        except KeyError:
            raise KeyError(f"testbed has no source {slug!r}") from None

    def __contains__(self, slug: str) -> bool:
        return slug in self._sources

    def __len__(self) -> int:
        return len(self._sources)

    def __iter__(self):
        return iter(self._sources.values())

    @property
    def documents(self) -> dict[str, XmlDocument]:
        """Extracted XML documents keyed by slug (feed to ``doc()``)."""
        return {slug: bundle.document
                for slug, bundle in self._sources.items()}

    def document_resolver(self) -> DocumentResolver:
        """One ``doc()`` resolver over all of :attr:`documents`, built on
        first use and shared by every plan execution against this
        testbed (:attr:`documents` is a fresh dict per call, so it
        cannot serve as a cache key).  Copies drop it (see
        :meth:`__getstate__`)."""
        with self._fingerprint_lock:
            if self._resolver is None:
                self._resolver = DocumentResolver(self.documents)
            return self._resolver

    def courses(self, slug: str) -> list[CanonicalCourse]:
        """Canonical ground-truth courses of one source."""
        return self.source(slug).courses

    # -- content identity -------------------------------------------------- #

    def __getstate__(self) -> dict:
        """Copy/pickle support: drop the lock, the fingerprint memos *and
        the document resolver*.

        A copied testbed is usually copied in order to be mutated (tests
        corrupt documents to prove the self-check catches it), so the
        copy must re-derive its content identity and its ``doc()``
        targets from its own documents.
        """
        state = self.__dict__.copy()
        del state["_fingerprint_lock"]
        state["_document_hashes"] = {}
        state["_content_fingerprints"] = {}
        state["_resolver"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fingerprint_lock = threading.Lock()

    def document_hash(self, slug: str) -> str:
        """sha256 of one source's exact document serialization.

        This is the same byte stream :meth:`save` writes to
        ``document.xml``, so a testbed reloaded from disk hashes
        identically to the one that produced it, while *any* change to a
        document's content changes its hash.  Memoized: documents are
        immutable once the testbed is assembled, and paths that already
        touched the exact bytes (``save``, ``load``, the artifact cache)
        prime the memo via :meth:`prime_document_hash` so the hash rides
        along with serialization instead of costing a second tree walk.
        """
        with self._fingerprint_lock:
            cached = self._document_hashes.get(slug)
        if cached is not None:
            return cached
        document = self.source(slug).document
        _, value = serialize_digest(document, xml_declaration=True)
        with self._fingerprint_lock:
            self._document_hashes[slug] = value
        return value

    def prime_document_hash(self, slug: str, sha256: str) -> None:
        """Record a document hash computed while its exact bytes were
        being written or read, sparing :meth:`document_hash` a
        re-serialization.  First value wins; copies drop the memo (see
        :meth:`__getstate__`) so corrupting a copied document is still
        detected."""
        with self._fingerprint_lock:
            self._document_hashes.setdefault(slug, sha256)

    def content_fingerprint(self, slugs: list[str] | None = None) -> str:
        """Content identity of this testbed's document set.

        A sha256 over the seed and the per-slug document hashes —
        for the whole testbed, or for the subset *slugs* (order
        insensitive; the server uses this to key per-request document
        scopes).  Result caches key on this value, so a rebuilt or
        modified testbed addresses different cache entries and can never
        be served answers computed from the old content.
        """
        chosen = tuple(sorted(self._sources)) if slugs is None \
            else tuple(sorted(slugs))
        memo_key = None if slugs is None else chosen
        with self._fingerprint_lock:
            cached = self._content_fingerprints.get(memo_key)
        if cached is not None:
            return cached
        # scale=1 fingerprints stay identical to historical ones so warm
        # result caches survive this feature; scaled testbeds address a
        # disjoint key space.
        prefix = (f"seed:{self.seed}" if self.scale == 1
                  else f"seed:{self.seed}:scale:{self.scale}")
        digest = hashlib.sha256(prefix.encode("utf-8"))
        for slug in chosen:
            digest.update(f"\x00{slug}={self.document_hash(slug)}"
                          .encode("utf-8"))
        value = digest.hexdigest()
        with self._fingerprint_lock:
            self._content_fingerprints[memo_key] = value
        return value

    # -- persistence ------------------------------------------------------#

    def save(self, directory: str | Path) -> Path:
        """Write snapshots, configs, XML and XSD files under *directory*.

        Layout matches the web site's download bundles, plus a manifest
        and an exact (whitespace-preserving) serialization that make the
        directory loadable again via :meth:`load`::

            <dir>/testbed.json           manifest: seed, slugs, stats
            <dir>/<slug>/snapshot.html
            <dir>/<slug>/wrapper.cfg
            <dir>/<slug>/<slug>.xml      pretty-printed (human-facing)
            <dir>/<slug>/document.xml    exact (round-trips byte-for-byte)
            <dir>/<slug>/<slug>.xsd
        """
        root = Path(directory)
        manifest: dict = {"seed": self.seed, "sources": {}}
        if self.scale != 1:
            # Only recorded when meaningful, keeping scale=1 manifests
            # byte-identical to those written before the scale tier.
            manifest["scale"] = self.scale
        for bundle in self:
            source_dir = root / bundle.slug
            source_dir.mkdir(parents=True, exist_ok=True)
            (source_dir / "snapshot.html").write_text(
                bundle.snapshot, encoding="utf-8")
            (source_dir / "wrapper.cfg").write_text(
                bundle.config.to_text(), encoding="utf-8")
            (source_dir / f"{bundle.slug}.xml").write_text(
                serialize_pretty(bundle.document), encoding="utf-8")
            exact, sha = serialize_digest(bundle.document,
                                          xml_declaration=True)
            (source_dir / "document.xml").write_text(exact, encoding="utf-8")
            self.prime_document_hash(bundle.slug, sha)
            (source_dir / f"{bundle.slug}.xsd").write_text(
                serialize_pretty(bundle.schema.to_xsd()), encoding="utf-8")
            manifest["sources"][bundle.slug] = {
                "records": bundle.stats.records,
                "fields_extracted": bundle.stats.fields_extracted,
                "fields_missing": bundle.stats.fields_missing,
            }
        (root / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
        return root

    @classmethod
    def load(cls, directory: str | Path) -> "Testbed":
        """Reload a testbed written by :meth:`save`.

        Profiles are resolved by slug from the registry, canonical courses
        are regenerated from the saved seed (the generator is
        deterministic), and documents come from the exact serialization —
        so ``Testbed.load(bed.save(d))`` round-trips every artifact
        byte-for-byte.

        Raises:
            FileNotFoundError: when *directory* has no manifest.
            KeyError: when a saved slug is not in the registry.
        """
        from .registry import get_university

        root = Path(directory)
        manifest = json.loads(
            (root / MANIFEST_FILE).read_text(encoding="utf-8"))
        seed = manifest["seed"]
        scale = manifest.get("scale", 1)
        bundles = []
        hashes: dict[str, str] = {}
        for slug, stats in manifest["sources"].items():
            profile = get_university(slug)
            source_dir = root / slug
            exact = (source_dir / "document.xml").read_text(encoding="utf-8")
            # The file *is* the exact serialization, so its hash is the
            # document hash — computed here from the bytes in hand.
            hashes[slug] = hashlib.sha256(exact.encode("utf-8")).hexdigest()
            document = parse_xml(exact, source_name=slug, trusted=True)
            schema = parse_xsd(parse_xml(
                (source_dir / f"{slug}.xsd").read_text(encoding="utf-8"),
                source_name=slug, strip_whitespace=True, trusted=True))
            bundles.append(SourceBundle(
                profile=profile,
                courses=profile.build_courses(seed, scale=scale),
                snapshot=(source_dir / "snapshot.html").read_text(
                    encoding="utf-8"),
                config=WrapperConfig.from_text(
                    (source_dir / "wrapper.cfg").read_text(encoding="utf-8")),
                document=document,
                schema=schema,
                stats=ExtractionStats(source=slug, **stats),
            ))
        bed = cls(bundles, seed, scale=scale)
        for slug, sha in hashes.items():
            bed.prime_document_hash(slug, sha)
        return bed


def build_source(profile: UniversityProfile, seed: int,
                 scraper: TessScraper | None = None,
                 scale: int = 1) -> SourceBundle:
    """Run the pipeline for one source."""
    engine = scraper if scraper is not None else TessScraper()
    courses = profile.build_courses(seed, scale=scale)
    snapshot = profile.render(courses)
    config = profile.wrapper_config()
    document = engine.extract(snapshot, config)
    schema = infer_schema(document)
    assert engine.last_stats is not None
    return SourceBundle(
        profile=profile, courses=courses, snapshot=snapshot, config=config,
        document=document, schema=schema, stats=engine.last_stats)


def load_testbed(directory: str | Path) -> Testbed:
    """Module-level alias of :meth:`Testbed.load`."""
    return Testbed.load(directory)
