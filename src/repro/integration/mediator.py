"""The mediator: source mappings + integration + result merging.

A :class:`SourceMapping` binds one testbed source to the operator list that
lifts its records into the global schema; the :class:`Mediator` applies
mappings, merges per-source results, and supports capability knock-out for
the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..xmlmodel import XmlDocument
from .capabilities import Capability
from .errors import MappingError
from .globalschema import GlobalCourse
from .mappings import MappingContext, MappingOp, select_path
from .translate import DEFAULT_LEXICON, Lexicon


@dataclass
class SourceMapping:
    """Local→global mapping for one source."""

    source: str
    record_path: str            # path from the document root to each record
    ops: list[MappingOp]
    code_path: str = "CourseNum"

    @property
    def capabilities(self) -> set[Capability]:
        """All capabilities exercised by this mapping."""
        return {op.capability for op in self.ops}

    def without_capability(self, capability: Capability) -> "SourceMapping":
        """A copy lacking every operator of *capability* (ablation).

        Operators of the ablated capability degrade to their
        :meth:`~repro.integration.mappings.MappingOp.fallback` when one
        exists (the unsplit copy, the string-only read) and are dropped
        otherwise — mirroring what a real system without the capability
        would actually produce.
        """
        ops: list = []
        for op in self.ops:
            if op.capability is not capability:
                ops.append(op)
                continue
            degraded = op.fallback()
            if degraded is not None:
                ops.append(degraded)
        return replace(self, ops=ops)


@dataclass
class IntegrationReport:
    """Bookkeeping from one integration run."""

    source: str
    records: int
    errors: list[str] = field(default_factory=list)


class Mediator:
    """Integrates heterogeneous sources into the global schema."""

    def __init__(self, mappings: dict[str, SourceMapping] | None = None,
                 lexicon: Lexicon | None = None) -> None:
        self._mappings: dict[str, SourceMapping] = dict(mappings or {})
        self.lexicon = lexicon if lexicon is not None else DEFAULT_LEXICON
        self.last_reports: list[IntegrationReport] = []

    # -- mapping management ------------------------------------------------#

    def register(self, mapping: SourceMapping) -> None:
        self._mappings[mapping.source] = mapping

    def has_mapping(self, source: str) -> bool:
        return source in self._mappings

    def mapping_for(self, source: str) -> SourceMapping:
        try:
            return self._mappings[source]
        except KeyError:
            raise MappingError("no mapping registered", source) from None

    @property
    def sources(self) -> list[str]:
        return sorted(self._mappings)

    def without_capability(self, capability: Capability) -> "Mediator":
        """An ablated mediator lacking one capability everywhere."""
        ablated = {slug: mapping.without_capability(capability)
                   for slug, mapping in self._mappings.items()}
        return Mediator(ablated, self.lexicon)

    # -- integration --------------------------------------------------------#

    def integrate_records(
            self, document: XmlDocument, source: str | None = None
    ) -> tuple[list[GlobalCourse], IntegrationReport]:
        """Lift one extracted document into the global schema — pure.

        Returns ``(courses, report)`` without touching any shared state,
        which makes the result safe to cache and share across threads
        (see :class:`~repro.xquery.results.ResultCache`); the stateful
        :attr:`last_reports` bookkeeping lives in the wrappers.

        Records on which an operator fails are *skipped* and reported,
        never silently mangled: a mapping failure is an integration
        result the benchmark wants visible.
        """
        slug = source or document.source_name
        if slug is None:
            raise MappingError("document has no source name")
        mapping = self.mapping_for(slug)
        context = MappingContext(source=slug, lexicon=self.lexicon)
        report = IntegrationReport(source=slug, records=0)
        results: list[GlobalCourse] = []
        records = select_path(document.root, mapping.record_path)
        for index, record in enumerate(records):
            out: dict = {}
            try:
                for op in mapping.ops:
                    op.apply(record, out, context)
            except MappingError as exc:
                report.errors.append(str(exc))
                continue
            code = out.pop("code", None)
            if code is None:
                code = (record.findtext(mapping.code_path)
                        or f"{slug}-{index}")
            title = out.pop("title", "")
            results.append(GlobalCourse(source=slug, code=code.strip(),
                                        title=title, **out))
            report.records += 1
        return results, report

    def integrate_document(self, document: XmlDocument,
                           source: str | None = None) -> list[GlobalCourse]:
        """Lift one document, appending its report to :attr:`last_reports`."""
        results, report = self.integrate_records(document, source)
        self.last_reports.append(report)
        return results

    def integrate(self, documents: dict[str, XmlDocument],
                  sources: list[str] | None = None) -> list[GlobalCourse]:
        """Integrate several documents and merge the results.

        The merged result is the concatenation in source order — the
        global schema keys records by (source, code), so merging is a
        union, with NULL-kind annotations preserved per record.
        """
        self.last_reports = []
        chosen = sources if sources is not None else sorted(documents)
        merged: list[GlobalCourse] = []
        for slug in chosen:
            if slug not in documents:
                raise MappingError("document not provided", slug)
            merged.extend(self.integrate_document(documents[slug], slug))
        return merged
