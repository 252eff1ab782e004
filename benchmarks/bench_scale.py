"""Scale-tier macro bench: the XML-core fast paths vs the legacy paths.

For each requested scale this script builds the paper testbed at
``scale=N`` and times the build+query macro both ways:

* **legacy** — the pre-optimization code paths, kept here as clearly
  labeled local copies where the tree has moved on: the recursive
  serializer with unguarded escape chains, a *separate* sha256 pass over
  the serialized text (how ``document_hash`` used to work), the
  validating (untrusted) parse for reloads, and the per-call
  ``parse_query`` + ``evaluate`` interpreter for the twelve queries.
* **fast** — what the tree ships now: the guarded iterative serializer
  with its ride-along digest (:func:`serialize_digest`), the trusted
  parse path, and warm index-backed plans from a
  :class:`~repro.xquery.plan_cache.PlanCache`.

Correctness gates run before any timing is trusted: serializations must
be byte-identical, trusted and validating parses must build equal trees,
plan results must match the interpreter, and — the scale-tier invariant —
every query's plan answers at scale N must be identical to its answers
at scale 1.  Any divergence exits non-zero so CI fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py            # scales 1 8 32
    PYTHONPATH=src python benchmarks/bench_scale.py --scale 4 --repeat 1

The default (full) run is what ``BENCH_scale.json`` in the repo records;
the acceptance headline is the macro speedup at scale 8.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from repro.catalogs import build_testbed, paper_universities
from repro.core import QUERIES
from repro.xmlmodel import XmlElement, parse_xml, serialize, serialize_digest
from repro.xquery import PlanCache
from repro.xquery.context import DynamicContext
from repro.xquery.differential import outcome
from repro.xquery.evaluator import evaluate
from repro.xquery.parser import parse_query

DEFAULT_SCALES = (1, 8, 32)
_XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'


# --------------------------------------------------------------------------- #
# Legacy code paths (local copies of the pre-optimization implementations)
# --------------------------------------------------------------------------- #

def _legacy_escape_text(value: str) -> str:
    return (value.replace("&", "&amp;")
                 .replace("<", "&lt;")
                 .replace(">", "&gt;"))


def _legacy_escape_attr(value: str) -> str:
    return (value.replace("&", "&amp;")
                 .replace("<", "&lt;")
                 .replace(">", "&gt;")
                 .replace('"', "&quot;")
                 .replace("\n", "&#10;")
                 .replace("\t", "&#9;"))


def _legacy_open_tag(node: XmlElement, self_closing: bool) -> str:
    attrs = "".join(
        f' {key}="{_legacy_escape_attr(value)}"'
        for key, value in node.attrib.items())
    return f"<{node.tag}{attrs}{'/' if self_closing else ''}>"


def _legacy_serialize_node(node: XmlElement, parts: list[str]) -> None:
    if not node.children:
        parts.append(_legacy_open_tag(node, self_closing=True))
        return
    parts.append(_legacy_open_tag(node, self_closing=False))
    for child in node.children:
        if isinstance(child, str):
            parts.append(_legacy_escape_text(child))
        else:
            _legacy_serialize_node(child, parts)
    parts.append(f"</{node.tag}>")


def _legacy_serialize(document) -> str:
    parts = [_XML_DECLARATION + "\n"]
    _legacy_serialize_node(document.root, parts)
    return "".join(parts)


def _legacy_serialize_and_hash(documents) -> list[str]:
    """Pre-PR save path: the store serialized and hashed each document,
    then ``Testbed.document_hash`` re-serialized and re-hashed the same
    tree for the fingerprint memo — nothing primed it."""
    hashes = []
    for document in documents.values():
        stored = _legacy_serialize(document)
        hashlib.sha256(stored.encode("utf-8")).hexdigest()
        fingerprinted = _legacy_serialize(document)
        hashes.append(
            hashlib.sha256(fingerprinted.encode("utf-8")).hexdigest())
    return hashes


def _fast_serialize_and_hash(documents) -> list[str]:
    """Shipping save path: one walk emits text and digest together, and
    the digest primes ``document_hash`` so the fingerprint is free."""
    return [serialize_digest(document, xml_declaration=True)[1]
            for document in documents.values()]


def _interpreted_once(source, documents):
    return outcome(lambda: evaluate(parse_query(source),
                                    DynamicContext(documents=documents)))


def _planned_once(plan, documents):
    return outcome(lambda: plan.execute(documents))


def _time_ns(fn, repeat):
    """Best-of-``repeat`` wall time for one call of ``fn``."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


# --------------------------------------------------------------------------- #
# One scale tier
# --------------------------------------------------------------------------- #

def bench_scale(scale, repeat, warmup, reference_answers):
    """Time the macro at one scale; returns (row, divergences)."""
    divergences = []

    build_start = time.perf_counter()
    testbed = build_testbed(universities=paper_universities(), scale=scale)
    build_s = time.perf_counter() - build_start
    documents = testbed.documents
    plans = PlanCache()

    # -- correctness gates ------------------------------------------------ #
    exact_texts = {slug: serialize(doc, xml_declaration=True)
                   for slug, doc in documents.items()}
    for slug, doc in documents.items():
        if _legacy_serialize(doc) != exact_texts[slug]:
            divergences.append(f"scale {scale}: serializer drift on {slug}")
        if parse_xml(exact_texts[slug], trusted=True) != parse_xml(
                exact_texts[slug]):
            divergences.append(f"scale {scale}: trusted parse drift on {slug}")

    answers = {}
    for query in QUERIES:
        plan = plans.get(query.xquery)
        planned = _planned_once(plan, documents)
        if planned != _interpreted_once(query.xquery, documents):
            divergences.append(
                f"scale {scale}: Q{query.number} plan != interpreter")
        answers[query.number] = planned
    if reference_answers is not None:
        for number, expected in reference_answers.items():
            if answers[number] != expected:
                divergences.append(
                    f"scale {scale}: Q{number} diverged from scale-1 answers")

    # -- timings ---------------------------------------------------------- #
    def legacy_queries():
        for query in QUERIES:
            _interpreted_once(query.xquery, documents)

    def fast_queries():
        for query in QUERIES:
            _planned_once(plans.get(query.xquery), documents)

    def legacy_reload():
        for text in exact_texts.values():
            parse_xml(text)

    def fast_reload():
        for text in exact_texts.values():
            parse_xml(text, trusted=True)

    stages = {
        "serialize_hash": (lambda: _legacy_serialize_and_hash(documents),
                           lambda: _fast_serialize_and_hash(documents)),
        "reload_parse": (legacy_reload, fast_reload),
        "queries": (legacy_queries, fast_queries),
    }
    row = {
        "scale": scale,
        "build_s": round(build_s, 4),
        "documents": len(documents),
        "courses": sum(len(testbed.courses(slug)) for slug in testbed.slugs),
        "stages": {},
    }
    legacy_total = fast_total = 0
    for name, (legacy_fn, fast_fn) in stages.items():
        for _ in range(warmup):
            legacy_fn()
            fast_fn()
        legacy_ns = _time_ns(legacy_fn, repeat)
        fast_ns = _time_ns(fast_fn, repeat)
        legacy_total += legacy_ns
        fast_total += fast_ns
        row["stages"][name] = {
            "legacy_ns": legacy_ns,
            "fast_ns": fast_ns,
            "speedup": round(legacy_ns / fast_ns, 2),
        }
    row["macro_legacy_ns"] = legacy_total
    row["macro_fast_ns"] = fast_total
    row["macro_speedup"] = round(legacy_total / fast_total, 2)
    row["answers_identical"] = not divergences
    return row, divergences, answers


def run_bench(scales, repeat, warmup):
    rows = []
    all_divergences = []
    reference_answers = None
    for scale in scales:
        row, divergences, answers = bench_scale(
            scale, repeat, warmup, reference_answers)
        if reference_answers is None:
            reference_answers = answers
        rows.append(row)
        all_divergences.extend(divergences)
    headline = next((row for row in rows if row["scale"] >= 8), rows[-1])
    return {
        "bench": "bench_scale",
        "repeat": repeat,
        "scales": [row["scale"] for row in rows],
        "tiers": rows,
        "headline_scale": headline["scale"],
        "headline_macro_speedup": headline["macro_speedup"],
        "all_identical": not all_divergences,
        "divergences": all_divergences,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time the scale-tier build+query macro: legacy XML-core "
                    "paths vs the shipping fast paths.")
    parser.add_argument("--scale", type=int, action="append", default=None,
                        metavar="N",
                        help="scale tier to bench (repeatable; default "
                             f"{' '.join(map(str, DEFAULT_SCALES))}). The "
                             "scale-1 reference answers are always computed.")
    parser.add_argument("--repeat", type=int, default=5, metavar="R",
                        help="best-of-R timing repetitions (default 5)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON report here "
                             "(default: BENCH_scale.json at the repo root)")
    args = parser.parse_args(argv)

    scales = sorted(set(args.scale)) if args.scale else list(DEFAULT_SCALES)
    if 1 not in scales:
        # Scale-1 always runs first: it provides the reference answers
        # every other tier is checked against.
        scales = [1] + scales
    repeat = max(1, args.repeat)
    warmup = 1 if repeat <= 2 else 2

    report = run_bench(scales, repeat, warmup)

    out = Path(args.out) if args.out else \
        Path(__file__).resolve().parent.parent / "BENCH_scale.json"
    # Re-emit through the perf schema so the trajectory file validates
    # against the `thalia perf` tooling (see repro.perf.schema).
    from repro.perf.schema import KIND_BENCH, stamp
    out.write_text(json.dumps(stamp(KIND_BENCH, report), indent=2) + "\n",
                   encoding="utf-8")

    print(f"[bench_scale] repeat={repeat} scales={report['scales']}")
    for row in report["tiers"]:
        flag = "ok " if row["answers_identical"] else "DIVERGED"
        stages = "  ".join(
            f"{name} x{stage['speedup']}"
            for name, stage in row["stages"].items())
        print(f"  scale {row['scale']:>3}  {flag}  "
              f"build {row['build_s']:7.3f}s  "
              f"macro {row['macro_legacy_ns'] / 1e6:9.2f} -> "
              f"{row['macro_fast_ns'] / 1e6:9.2f} ms  "
              f"x{row['macro_speedup']}  ({stages})")
    print(f"[bench_scale] headline: x{report['headline_macro_speedup']} "
          f"at scale {report['headline_scale']} -> {out}")

    if report["divergences"]:
        print("[bench_scale] FAIL:", file=sys.stderr)
        for line in report["divergences"]:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
