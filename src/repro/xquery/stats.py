"""Statistics collection for the cost-based planner.

:func:`collect_statistics` derives, per document, the facts the planner
in :mod:`repro.xquery.plan` costs physical strategies with:

* **cardinalities** — per-tag element counts straight off the
  :class:`~repro.xmlmodel.indexes.DocumentIndex` posting lists, plus
  (parent tag, child tag) fanout counts and average subtree sizes from
  the index's preorder intervals;
* **value distributions** — deterministic, document-order samples of
  leaf-element string values and attribute values (capped at
  :data:`SAMPLE_CAP` per tag), from which predicate selectivities are
  estimated (see :mod:`repro.xquery.cost`).

Everything is derived from document order and sorted tag names, so two
processes collecting over byte-identical documents produce identical
statistics — :attr:`Statistics.fingerprint` pins that, and a
differential test holds it.

Documents are immutable once built, so statistics are cached per
*content fingerprint* (the same identity the result cache keys on): the
module-level :class:`~repro.cache.BoundedCache` (16 entries) makes
repeated compilations against one testbed a dict probe, and concurrent
first requests collect once.  ``/api/stats`` reports its counters.
"""

from __future__ import annotations

import hashlib
import threading
from typing import TYPE_CHECKING, Mapping

from ..cache import BoundedCache
from .context import DocumentResolver

if TYPE_CHECKING:  # pragma: no cover
    from ..xmlmodel import XmlDocument

#: Most leaf values / attribute values sampled per (tag) / (tag, attr).
SAMPLE_CAP = 240

#: LIKE match counts memoized per document, as (tag, pattern) entries
#: (least recently used evicted past this): user patterns are unbounded.
LIKE_MEMO_SIZE = 256


class DocumentStats:
    """Cardinalities, fanouts and value samples for one document.

    The collected facts are immutable, so the derived facts costing
    reads per compile — per-tag child totals, per-tag value counts and
    LIKE match counts — are computed once and memoized here.
    """

    __slots__ = ("name", "root_tag", "element_count", "tag_counts",
                 "child_pairs", "subtree_totals", "value_samples",
                 "sampled_exactly", "attr_values", "_child_totals",
                 "_value_counts", "_like_matches")

    def __init__(self, name: str, root_tag: str, element_count: int,
                 tag_counts: dict[str, int],
                 child_pairs: dict[tuple[str, str], int],
                 subtree_totals: dict[str, int],
                 value_samples: dict[str, tuple[str, ...]],
                 sampled_exactly: dict[str, bool],
                 attr_values: dict[tuple[str, str], tuple[str, ...]]) -> None:
        self.name = name
        self.root_tag = root_tag
        self.element_count = element_count
        self.tag_counts = tag_counts
        self.child_pairs = child_pairs
        self.subtree_totals = subtree_totals
        self.value_samples = value_samples
        self.sampled_exactly = sampled_exactly
        self.attr_values = attr_values
        self._child_totals: dict[str, int] | None = None
        self._value_counts: dict[str, dict[str, int]] = {}
        self._like_matches: BoundedCache[tuple, int] = \
            BoundedCache(LIKE_MEMO_SIZE)

    # -- cardinalities ---------------------------------------------------- #

    def tag_count(self, tag: str) -> int:
        return self.tag_counts.get(tag, 0)

    def fanout(self, parent: str | None, child: str) -> float:
        """Average number of direct *child*-tagged children per *parent*
        element; ``parent=None`` is the synthetic document node (exactly
        one child: the root element)."""
        if parent is None:
            return 1.0 if child == self.root_tag else 0.0
        parents = self.tag_counts.get(parent, 0)
        if not parents:
            return 0.0
        return self.child_pairs.get((parent, child), 0) / parents

    def avg_children(self, tag: str | None) -> float:
        """Average direct element-children count of a *tag* element —
        the per-item node budget of a child-axis tree scan."""
        if tag is None:
            return 1.0
        parents = self.tag_counts.get(tag, 0)
        if not parents:
            return 1.0
        if self._child_totals is None:
            totals: dict[str, int] = {}
            for (parent, _child), count in self.child_pairs.items():
                totals[parent] = totals.get(parent, 0) + count
            self._child_totals = totals
        return self._child_totals.get(tag, 0) / parents

    def avg_subtree(self, tag: str | None) -> float:
        """Average strict-descendant count of a *tag* element — the
        per-item node budget of a descendant-axis tree scan."""
        if tag is None:
            return float(self.element_count)
        parents = self.tag_counts.get(tag, 0)
        if not parents:
            return float(self.element_count)
        return self.subtree_totals.get(tag, 0) / parents

    # -- value distributions ---------------------------------------------- #

    def samples(self, tag: str) -> tuple[str, ...]:
        return self.value_samples.get(tag, ())

    def value_counts(self, tag: str) -> dict[str, int]:
        """How often each sampled string value of *tag* occurs; its
        length is the observed distinct count."""
        counts = self._value_counts.get(tag)
        if counts is None:
            counts = {}
            for value in self.value_samples.get(tag, ()):
                counts[value] = counts.get(value, 0) + 1
            self._value_counts[tag] = counts
        return counts

    def like_matches(self, tag: str, pattern) -> int:
        """How many sampled values of *tag* the compiled LIKE *pattern*
        matches."""
        matched, _status = self._like_matches.lookup(
            (tag, pattern), lambda: sum(
                count for value, count in self.value_counts(tag).items()
                if pattern.match(value)))
        return matched

    def distinct_estimate(self, tag: str) -> int:
        """Estimated distinct string values across *all* ``tag`` leaves.

        Exact samples report the observed distinct count.  Capped samples
        extrapolate: when every sampled value was distinct the domain is
        assumed to keep growing linearly with the population (unique-ish
        keys), while a sample that already repeats values is assumed to
        have seen the whole domain.  Never below one, never above the tag
        cardinality — join selectivities divide by this.
        """
        samples = self.value_samples.get(tag, ())
        count = self.tag_counts.get(tag, 0)
        if not samples:
            return max(1, count)
        observed = len(self.value_counts(tag))
        if self.sampled_exactly.get(tag, True):
            return max(1, observed)
        if observed == len(samples):
            scaled = round(observed * count / len(samples))
            return max(observed, min(max(1, count), scaled))
        return max(1, observed)

    def scaled(self, factor: int) -> "DocumentStats":
        """A copy whose row estimates come out ~``factor`` too large.

        Test-only.  Only the *numerators* of the derived ratios are
        scaled — (parent, child) fanout counts, subtree totals and the
        element count — while per-tag counts stay put; scaling every
        cardinality uniformly would cancel out of the fanout and
        subtree ratios and leave the estimates untouched.  Value
        samples — and therefore selectivities and answers — are
        untouched, which is exactly the injected cardinality-estimate
        regression the costed explain goldens and their q-error bound
        must catch.
        """
        return DocumentStats(
            name=self.name, root_tag=self.root_tag,
            element_count=self.element_count * factor,
            tag_counts=self.tag_counts,
            child_pairs={pair: count * factor
                         for pair, count in self.child_pairs.items()},
            subtree_totals={tag: total * factor
                            for tag, total in self.subtree_totals.items()},
            value_samples=self.value_samples,
            sampled_exactly=self.sampled_exactly,
            attr_values=self.attr_values)

    def __repr__(self) -> str:
        return (f"DocumentStats({self.name!r}, elements="
                f"{self.element_count}, tags={len(self.tag_counts)})")


class Statistics:
    """Per-document statistics for one document set, with a stable,
    process-independent fingerprint."""

    __slots__ = ("documents", "_fingerprint")

    def __init__(self, documents: dict[str, DocumentStats]) -> None:
        self.documents = documents
        self._fingerprint: str | None = None

    def for_document(self, name: str) -> DocumentStats | None:
        """Stats for a ``doc()`` URI (``cmu.xml`` and ``cmu`` both
        resolve, mirroring the document resolver)."""
        return self.documents.get(DocumentResolver._normalize(name))

    @property
    def fingerprint(self) -> str:
        """sha256 over the canonical rendering of every collected fact.

        Deterministic across processes (sorted tags, document-order
        samples, no ids or hash ordering), so a costed plan's identity —
        which mixes this in — is stable too.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for name in sorted(self.documents):
                stats = self.documents[name]
                digest.update(repr((
                    name, stats.root_tag, stats.element_count,
                    sorted(stats.tag_counts.items()),
                    sorted(stats.child_pairs.items()),
                    sorted(stats.subtree_totals.items()),
                    sorted(stats.value_samples.items()),
                    sorted(stats.sampled_exactly.items()),
                    sorted(stats.attr_values.items()),
                )).encode("utf-8"))
                digest.update(b"\x00")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def scaled(self, factor: int) -> "Statistics":
        """Test-only estimate perturbation; see
        :meth:`DocumentStats.scaled`."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        return Statistics({name: stats.scaled(factor)
                           for name, stats in self.documents.items()})

    def __repr__(self) -> str:
        return (f"Statistics(documents={len(self.documents)}, "
                f"fingerprint={self.fingerprint[:12]})")


# --------------------------------------------------------------------------- #
# Collection
# --------------------------------------------------------------------------- #

def _sample_indices(count: int) -> range | list[int]:
    """Deterministic document-order sample positions: everything up to
    the cap, an even stride beyond it."""
    if count <= SAMPLE_CAP:
        return range(count)
    return [position * count // SAMPLE_CAP for position in range(SAMPLE_CAP)]


def _collect_document(name: str, document: "XmlDocument") -> DocumentStats:
    index = document.index()
    tag_counts = index.tag_counts()
    child_pairs: dict[tuple[str, str], int] = {}
    subtree_totals: dict[str, int] = {}
    value_samples: dict[str, tuple[str, ...]] = {}
    sampled_exactly: dict[str, bool] = {}
    attr_values: dict[tuple[str, str], tuple[str, ...]] = {}
    for tag in index.tags:
        elements = index.elements(tag)
        subtree_total = 0
        for element in elements:
            subtree_total += index.subtree_size(element) or 0
            for child in element.element_children:
                pair = (tag, child.tag)
                child_pairs[pair] = child_pairs.get(pair, 0) + 1
        if subtree_total:
            subtree_totals[tag] = subtree_total
        count = len(elements)
        exact = count <= SAMPLE_CAP
        sampled = [elements[position]
                   for position in _sample_indices(count)]
        # Only leaf elements carry comparable string values; container
        # tags keep empty samples so selectivity falls back to defaults
        # instead of paying for huge concatenated strings.
        leaves = [element for element in sampled
                  if not element.has_element_children()]
        if leaves:
            value_samples[tag] = tuple(element.normalized_text
                                       for element in leaves)
            sampled_exactly[tag] = exact
        per_attr: dict[str, list[str]] = {}
        for element in sampled:
            for attr, value in element.attrib.items():
                per_attr.setdefault(attr, []).append(value)
        for attr, values in sorted(per_attr.items()):
            attr_values[(tag, attr)] = tuple(values)
    return DocumentStats(
        name=name, root_tag=index.root.tag,
        element_count=index.element_count,
        tag_counts=tag_counts, child_pairs=child_pairs,
        subtree_totals=subtree_totals, value_samples=value_samples,
        sampled_exactly=sampled_exactly, attr_values=attr_values)


_STATS_CACHE: BoundedCache[str, Statistics] = BoundedCache(16)
_collections_lock = threading.Lock()
_collections = 0


def _collect(documents: Mapping[str, "XmlDocument"]) -> Statistics:
    global _collections
    with _collections_lock:
        _collections += 1
    return Statistics({
        DocumentResolver._normalize(name): _collect_document(
            DocumentResolver._normalize(name), document)
        for name, document in documents.items()})


def collect_statistics(documents: Mapping[str, "XmlDocument"], *,
                       fingerprint: str | None = None) -> Statistics:
    """Statistics over *documents* (a ``{name: XmlDocument}`` mapping).

    With *fingerprint* — the document set's content fingerprint, e.g.
    :meth:`~repro.catalogs.Testbed.content_fingerprint` — results are
    cached module-wide in a bounded single-flight LRU: identical content
    never pays collection twice while it stays among the 16 most
    recently used.  Without one, collection runs uncached (the caller
    has no identity to key on).
    """
    if fingerprint is None:
        return _collect(documents)
    statistics, _status = _STATS_CACHE.lookup(
        fingerprint, lambda: _collect(documents))
    return statistics


def statistics_cache_stats() -> dict:
    """The statistics cache's counters for the ``planner`` block of
    ``/api/stats``, plus ``collections`` (cached or not)."""
    return {**_STATS_CACHE.stats(), "collections": _collections}


def clear_statistics_cache() -> None:
    """Drop every cached statistics object and zero the counters."""
    global _collections
    _STATS_CACHE.clear()
    with _collections_lock:
        _collections = 0


__all__ = [
    "LIKE_MEMO_SIZE",
    "SAMPLE_CAP",
    "DocumentStats",
    "Statistics",
    "clear_statistics_cache",
    "collect_statistics",
    "statistics_cache_stats",
]
