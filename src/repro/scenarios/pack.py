"""Scenario packs: a generated benchmark as a deterministic artifact.

``thalia gen`` writes its suite to disk as a *pack*:

.. code-block:: text

    PACK_DIR/
      manifest.json            seed, tier, case index, pack fingerprint
      cases/S0000/
        reference.xml          extracted reference source (exact bytes)
        reference.xsd          inferred schema
        challenge.xml          extracted challenge source
        challenge.xsd
        query.xq               synthesized reference XQuery
        gold.json              derived gold answer (sorted rows)
      cases/S0001/...

Everything is text, nothing carries a timestamp, and every byte is a pure
function of ``(seed, cases, tier)`` — so the *pack fingerprint* (sha256
over the sorted relative paths and content hashes of every file except the
manifest itself) is byte-identical across processes and machines.  The
server serves packs by fingerprint; :func:`load_pack` reads one back.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..catalogs import Testbed
from ..xmlmodel import XmlDocument, parse_xml, serialize_digest, \
    serialize_pretty
from .dsl import ScenarioSpec
from .suite import ScenarioSuite

PACK_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Gold rows are JSON-serialized as sorted lists-of-lists; the reader
#: restores the runner's frozenset-of-tuples shape.


def _dump_gold(gold: frozenset) -> str:
    rows = sorted(list(row) for row in gold)
    return json.dumps(rows, sort_keys=True, indent=2) + "\n"


def _load_gold(text: str) -> frozenset:
    return frozenset(tuple(row) for row in json.loads(text))


@dataclass(frozen=True)
class Pack:
    """An in-memory pack: relative path → file text."""

    fingerprint: str
    manifest: dict
    files: dict[str, str]

    def bundle_json(self) -> str:
        """The whole pack as one JSON object (the server's download)."""
        return json.dumps(self.files, sort_keys=True)


def pack_fingerprint(files: dict[str, str]) -> str:
    """Content fingerprint over every file except the manifest."""
    digest = hashlib.sha256()
    for relpath in sorted(files):
        if relpath == MANIFEST_NAME:
            continue
        content_sha = hashlib.sha256(
            files[relpath].encode("utf-8")).hexdigest()
        digest.update(f"{relpath}\n{content_sha}\n".encode("utf-8"))
    return digest.hexdigest()


def build_pack(suite: ScenarioSuite, testbed: Testbed) -> Pack:
    """Assemble the pack for a generated suite (all in memory)."""
    files: dict[str, str] = {}
    cases = []
    for query in suite.queries:
        assert query.spec is not None
        base = f"cases/{query.case_id}"
        for role, slug in (("reference", query.reference),
                           ("challenge", query.challenge)):
            bundle = testbed.source(slug)
            exact, _sha = serialize_digest(bundle.document,
                                           xml_declaration=True)
            files[f"{base}/{role}.xml"] = exact
            files[f"{base}/{role}.xsd"] = serialize_pretty(
                bundle.schema.to_xsd())
        files[f"{base}/query.xq"] = query.xquery + "\n"
        files[f"{base}/gold.json"] = _dump_gold(query.derive_gold(testbed))
        cases.append({
            "case_id": query.case_id,
            "number": query.number,
            "tier": query.tier,
            "digest": query.spec.digest,
            "reference": query.reference,
            "challenge": query.challenge,
            "spec": query.spec.to_dict(),
        })
    fingerprint = pack_fingerprint(files)
    manifest = {
        "version": PACK_VERSION,
        "seed": suite.seed,
        "tier": suite.tier,
        "cases": cases,
        "fingerprint": fingerprint,
    }
    files[MANIFEST_NAME] = json.dumps(manifest, sort_keys=True,
                                      indent=2) + "\n"
    return Pack(fingerprint=fingerprint, manifest=manifest, files=files)


def write_pack(pack: Pack, directory: str | Path) -> Path:
    """Write a pack to *directory* (created if needed)."""
    root = Path(directory)
    for relpath, content in sorted(pack.files.items()):
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
    return root


# --------------------------------------------------------------------------- #
# Reading packs back
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class LoadedCase:
    """One replayable case from a pack on disk."""

    case_id: str
    number: int
    tier: str
    xquery: str
    documents: dict[str, XmlDocument]
    gold: frozenset
    spec: ScenarioSpec


@dataclass(frozen=True)
class LoadedPack:
    """A pack read back from disk."""

    fingerprint: str
    seed: int
    tier: str | None
    cases: tuple[LoadedCase, ...] = field(default=())


def load_pack(directory: str | Path) -> LoadedPack:
    """Read a pack written by :func:`write_pack`."""
    root = Path(directory)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(
            f"{root} is not a scenario pack (no {MANIFEST_NAME})")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("version") != PACK_VERSION:
        raise ValueError(
            f"unsupported pack version {manifest.get('version')!r}")
    cases = []
    for entry in manifest["cases"]:
        base = root / "cases" / entry["case_id"]
        documents = {}
        for role in ("reference", "challenge"):
            slug = entry[role]
            documents[slug] = parse_xml(
                (base / f"{role}.xml").read_text(encoding="utf-8"),
                source_name=slug)
        cases.append(LoadedCase(
            case_id=entry["case_id"],
            number=entry["number"],
            tier=entry["tier"],
            xquery=(base / "query.xq").read_text(
                encoding="utf-8").rstrip("\n"),
            documents=documents,
            gold=_load_gold((base / "gold.json").read_text(
                encoding="utf-8")),
            spec=ScenarioSpec.from_dict(entry["spec"]),
        ))
    return LoadedPack(
        fingerprint=manifest["fingerprint"],
        seed=manifest["seed"],
        tier=manifest.get("tier"),
        cases=tuple(cases),
    )


__all__ = [
    "LoadedCase",
    "LoadedPack",
    "MANIFEST_NAME",
    "PACK_VERSION",
    "Pack",
    "build_pack",
    "load_pack",
    "pack_fingerprint",
    "write_pack",
]
