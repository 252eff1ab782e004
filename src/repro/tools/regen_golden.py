"""Regenerate every golden under ``tests/golden/``.

The golden suite pins three records, all pure functions of the source
tree and the seed:

* ``fingerprints.json`` — a sha256 per artifact (snapshot HTML, wrapper
  config, exact XML serialization, pretty XSD) for every source of the
  default-seed testbed;
* ``explain/qNN.txt`` — the rule-based :meth:`Plan.explain` text of
  each of the twelve benchmark queries;
* ``explain_costed/qNN.txt`` — each query's *costed* plan over the
  nine paper sources at scale :data:`COSTED_SCALE`, as EXPLAIN ANALYZE
  without wall time (see :func:`costed_explain_text`).

Any change to rendering, scraping, serialization, schema inference, the
planner or its statistics moves a pin and fails the suite loudly.  When
such a change is *intentional*, refresh every pin with::

    PYTHONPATH=src python -m repro.tools.regen_golden

and commit the rewritten goldens together with the change that caused
them (the diff shows exactly which sources and plans moved).
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path
from typing import Sequence

from ..catalogs import DEFAULT_SEED, Testbed, build_testbed, paper_universities
from ..core import QUERIES
from ..xmlmodel import serialize, serialize_pretty
from ..xquery.plan import Plan, compile_query
from ..xquery.stats import Statistics, collect_statistics

DEFAULT_TARGET = Path("tests") / "golden"

#: Scale tier of the costed goldens: large enough that the planner's
#: step strategies differ from the rule-based plan's.
COSTED_SCALE = 4


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_fingerprints(testbed: Testbed) -> dict[str, dict[str, str]]:
    """Per-source sha256 of every artifact the pipeline produces."""
    fingerprints: dict[str, dict[str, str]] = {}
    for bundle in testbed:
        fingerprints[bundle.slug] = {
            "snapshot": _sha256(bundle.snapshot),
            "config": _sha256(bundle.config.to_text()),
            "xml": _sha256(serialize(bundle.document, xml_declaration=True)),
            "xsd": _sha256(serialize_pretty(bundle.schema.to_xsd())),
        }
    return fingerprints


def compute_golden(seed: int = DEFAULT_SEED) -> dict:
    """The full golden document: seed + per-source fingerprints."""
    testbed = build_testbed(seed=seed)
    return {"seed": seed, "sources": source_fingerprints(testbed)}


def costed_testbed(seed: int = DEFAULT_SEED) -> tuple[Testbed, Statistics]:
    """The testbed the costed goldens run on, with its planner statistics."""
    testbed = build_testbed(seed=seed, universities=paper_universities(),
                            scale=COSTED_SCALE)
    statistics = collect_statistics(
        testbed.documents, fingerprint=testbed.content_fingerprint())
    return testbed, statistics


def costed_explain_text(plan: Plan, testbed: Testbed) -> str:
    """Golden text of *plan* after one analyzed run over *testbed*.

    The plan's :meth:`~Plan.explain` text with an ``identity:`` and an
    ``items:`` line after its header, and each operator that ran
    annotated ``(actual rows=N calls=N)``; wall time is left out so the
    text is the same on any host.
    """
    items = plan.execute(testbed.document_resolver(), analyze=True)
    actuals: list[dict | None] = []

    def walk(entry: dict) -> None:
        actuals.append(entry.get("actual"))
        for child in entry["children"]:
            walk(child)

    walk(plan.explain_data(analyze=True)["root"])
    # explain() renders one line per tree node, in this pre-order, after
    # its header lines.
    lines = plan.explain().split("\n")
    split = len(lines) - len(actuals)
    out = lines[:split] + [f"identity: {plan.identity}",
                           f"items: {len(items)}"]
    for line, actual in zip(lines[split:], actuals):
        if actual is not None:
            line += f"  (actual rows={actual['rows']} calls={actual['calls']})"
        out.append(line)
    return "\n".join(out) + "\n"


def explain_goldens(seed: int = DEFAULT_SEED) -> dict[str, str]:
    """Every explain golden, keyed by its path under the golden directory."""
    testbed, statistics = costed_testbed(seed)
    goldens = {}
    for query in QUERIES:
        name = f"q{query.number:02d}.txt"
        goldens[f"explain/{name}"] = compile_query(query.xquery).explain() \
            + "\n"
        goldens[f"explain_costed/{name}"] = costed_explain_text(
            compile_query(query.xquery, statistics=statistics), testbed)
    return goldens


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.regen_golden",
        description="rewrite every golden: artifact fingerprints and "
                    "rule-based and costed explain texts")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"testbed seed (default {DEFAULT_SEED})")
    parser.add_argument("--out", type=Path, default=DEFAULT_TARGET,
                        help=f"golden directory (default {DEFAULT_TARGET})")
    args = parser.parse_args(argv)

    golden = compute_golden(seed=args.seed)
    target = args.out / "fingerprints.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    previous = None
    if target.exists():
        previous = json.loads(target.read_text(encoding="utf-8"))
    target.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")

    if previous is None:
        print(f"wrote {target} ({len(golden['sources'])} sources)")
    else:
        moved = [slug for slug, prints in golden["sources"].items()
                 if previous.get("sources", {}).get(slug) != prints]
        if moved:
            print(f"wrote {target}: {len(moved)} source(s) changed: "
                  + ", ".join(sorted(moved)))
        else:
            print(f"wrote {target}: no fingerprint changes")

    changed = []
    for name, text in explain_goldens(seed=args.seed).items():
        path = args.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            changed.append(name)
            path.write_text(text, encoding="utf-8")
    print(f"explain goldens: {len(changed)} changed"
          + (": " + ", ".join(changed) if changed else ""))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
