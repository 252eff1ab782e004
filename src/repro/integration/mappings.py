"""Declarative mapping operators: local schema → global schema.

A source's :class:`~repro.integration.mediator.SourceMapping` is a list of
operators, each tagged with the :class:`Capability` it exercises. The full
THALIA mediator registers all of them; the ablation bench knocks out one
capability at a time and watches the corresponding benchmark queries fail —
which is exactly how the paper argues the twelve cases are separable.

Operators never raise on *missing* data (that is what null policies are
for); they raise :class:`MappingError` only on structurally impossible
input, e.g. an unparseable workload on a record that definitely has one.
Their paths are child tag names joined by ``/``, read by
:func:`select_path`.
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass
from functools import lru_cache

from ..catalogs.model import workload_to_units
from ..xmlmodel import XmlElement, XmlPathError, is_valid_name
from .capabilities import Capability
from .errors import MappingError
from .nulls import Null
from .timeparse import parse_time_range
from .translate import Lexicon


@dataclass
class MappingContext:
    """Shared state passed to every operator application."""

    source: str
    lexicon: Lexicon


class MappingOp(abc.ABC):
    """One local→global mapping step."""

    #: the heterogeneity-resolution capability this operator exercises
    capability: Capability

    @abc.abstractmethod
    def apply(self, record: XmlElement, out: dict,
              context: MappingContext) -> None:
        """Populate *out* (GlobalCourse keyword arguments) from *record*."""

    def fallback(self) -> "MappingOp | None":
        """What a system *lacking* this capability would do instead.

        Ablating a capability replaces each of its operators by this
        degraded form (or drops the operator when None). A system without
        set handling, for instance, can still *copy* CMU's ``Lecturer``
        verbatim — it finds "Mark" but reports "Song/Wing" as one person.
        """
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} [{self.capability.name}]>"


@lru_cache(maxsize=512)
def _steps(path: str) -> tuple[str, ...]:
    """Split a mapping path into its child tag names, once per path.

    Raises:
        XmlPathError: when a step is not an XML name. Mapping paths are
            child tag names joined by ``/``; ``//``, ``*``, ``@``,
            ``text()`` and predicates are XQuery's business.
    """
    steps = tuple(path.split("/"))
    for step in steps:
        if not is_valid_name(step):
            raise XmlPathError(
                f"invalid step {step!r} in mapping path {path!r}")
    return steps


def select_path(node: XmlElement, path: str) -> list[XmlElement]:
    """Elements at child path *path* below *node*, in document order."""
    steps = _steps(path)
    nodes = node.findall(steps[0])
    for step in steps[1:]:
        nodes = [child for parent in nodes for child in parent.findall(step)]
    return nodes


def _first_text(record: XmlElement, path: str) -> str | None:
    """Normalized text of the first match, or None when absent."""
    matches = select_path(record, path)
    return matches[0].normalized_text if matches else None


# --------------------------------------------------------------------------- #
# Attribute heterogeneities (Q1-Q5)
# --------------------------------------------------------------------------- #

class CopyText(MappingOp):
    """Copy a text field under its global name (the Q1 rename case).

    ``rstrip`` trims trailing punctuation quirks (UMD's "Data Structures;").
    """

    capability = Capability.RENAME

    def __init__(self, path: str, field: str, rstrip: str = "") -> None:
        self.path = path
        self.field = field
        self.rstrip = rstrip

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if value is not None:
            if self.rstrip:
                value = value.rstrip(self.rstrip).rstrip()
            out[self.field] = value


class CodeFromTitle(MappingOp):
    """Split a combined "EECS484 Database Management Systems" heading."""

    capability = Capability.RENAME

    _PATTERN = re.compile(r"^(?P<code>[A-Z]+[\s/]?\d[\w.*-]*)\s+(?P<title>.+)$")

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if not value:
            return
        match = self._PATTERN.match(value)
        if match is None:
            out["title"] = value
            return
        out["code"] = match.group("code")
        out["title"] = match.group("title")


class CopyInstructor(MappingOp):
    """Single-instructor copy into the set-valued global attribute."""

    capability = Capability.RENAME

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if value:
            out.setdefault("instructors", ())
            out["instructors"] = out["instructors"] + (value,)


class CopyRoom(MappingOp):
    """Room as a direct attribute (Q9's reference side)."""

    capability = Capability.RENAME

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if value:
            out["rooms"] = tuple(out.get("rooms", ())) + (value,)


class NumericUnits(MappingOp):
    """Numeric credit hours copied as a number (Q4's reference side)."""

    capability = Capability.RENAME

    def __init__(self, path: str, lenient: bool = False) -> None:
        self.path = path
        self.lenient = lenient

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if value is None:
            return
        try:
            out["units"] = float(value)
        except ValueError:
            if self.lenient:
                return
            raise MappingError(
                f"non-numeric units value {value!r}", context.source)


class ParseTimeRange(MappingOp):
    """Meeting time parsing — the Q2 clock transformation.

    ``clock`` declares the source convention purely for documentation;
    the parser handles all three renderings uniformly.
    """

    capability = Capability.VALUE_TRANSFORM

    _RANGE_RE = re.compile(
        r"\d{1,2}(?::\d{2})?\s*(?:am|pm)?\s*-\s*\d{1,2}(?::\d{2})?"
        r"\s*(?:am|pm)?", re.IGNORECASE)
    _DAYS_RE = re.compile(r"^\s*(?P<days>[A-Za-z][A-Za-z,]*)\s+\d")

    def __init__(self, path: str, clock: str = "12h",
                 days_path: str | None = None,
                 lenient: bool = False) -> None:
        self.path = path
        self.clock = clock
        self.days_path = days_path
        self.lenient = lenient

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if value:
            # Sources often prefix the day pattern ("MWF 16:00-17:15") or
            # append the room after a comma; find the range itself.
            days_match = self._DAYS_RE.match(value)
            if days_match is not None:
                out.setdefault("days", days_match.group("days"))
            range_match = self._RANGE_RE.search(value)
            if range_match is None:
                if self.lenient:
                    return
                raise MappingError(
                    f"no time range in {value!r}", context.source)
            try:
                start, end = parse_time_range(range_match.group(0))
            except Exception as exc:
                if self.lenient:
                    return
                raise MappingError(
                    f"cannot parse time {value!r}: {exc}",
                    context.source) from exc
            out["start_minute"] = start
            out["end_minute"] = end
        if self.days_path:
            days = _first_text(record, self.days_path)
            if days:
                out["days"] = days


class DirectTextTitle(MappingOp):
    """Degraded union-type handling: read only the string half.

    This is what a string-typed system does with Brown's link + string
    titles: the anchor's label is invisible, so "Intro to Algorithms &
    Data Structures" vanishes and only the trailing " D hr. MWF 11-12"
    remains. Used as the :class:`FlattenUnionTitle` fallback.
    """

    capability = Capability.RENAME

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        matches = select_path(record, self.path)
        if not matches:
            return
        direct = "".join(c for c in matches[0].children
                         if isinstance(c, str))
        out["title"] = " ".join(direct.split())


class FlattenUnionTitle(MappingOp):
    """Title that may be a link + string union (Q3's challenge side).

    Produces the flattened string title plus the link target when present.
    """

    capability = Capability.UNION_TYPE

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        matches = select_path(record, self.path)
        if not matches:
            return
        title_node = matches[0]
        anchor = title_node.find("a")
        if anchor is not None:
            out["title_url"] = anchor.get("href")
        out["title"] = title_node.normalized_text

    def fallback(self) -> MappingOp:
        return DirectTextTitle(self.path)


class WorkloadUnits(MappingOp):
    """ETH's Umfang notation → numeric credit hours (Q4's challenge side).

    The transformation "may not always be computable from first
    principles" (paper): it needs the institutional knowledge that one
    weekly contact hour is worth three credit hours.
    """

    capability = Capability.COMPLEX_TRANSFORM

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if not value:
            return
        try:
            out["units"] = float(workload_to_units(value))
        except ValueError as exc:
            raise MappingError(
                f"cannot interpret workload {value!r}", context.source
            ) from exc


class GermanSource(MappingOp):
    """Mark the record's language so title matching consults the lexicon
    (Q5's challenge side). The element names themselves are translated by
    the mapping's paths, which address the German tags directly."""

    capability = Capability.TRANSLATION

    def apply(self, record, out, context):
        out["language"] = "de"


# --------------------------------------------------------------------------- #
# Missing data (Q6-Q8)
# --------------------------------------------------------------------------- #

class NullableField(MappingOp):
    """Field with an explicit NULL policy (Q6/Q8).

    ``path=None`` models a source whose schema lacks the field entirely:
    every record yields the configured null. Otherwise an absent or empty
    element yields the null and a non-empty one yields its text.
    """

    def __init__(self, field: str, path: str | None, absent: Null) -> None:
        self.field = field
        self.path = path
        self.absent = absent
        self.capability = (Capability.SEMANTIC_NULL
                           if absent.kind == "inapplicable"
                           else Capability.NULL_HANDLING)

    def apply(self, record, out, context):
        if self.path is None:
            out[self.field] = self.absent
            return
        value = _first_text(record, self.path)
        out[self.field] = value if value else self.absent


class EntryLevelExplicit(MappingOp):
    """Michigan-style explicit prerequisite field (Q7's reference side)."""

    capability = Capability.RENAME

    def __init__(self, path: str, none_token: str = "None") -> None:
        self.path = path
        self.none_token = none_token

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if value is not None:
            out["entry_level"] = value.strip() == self.none_token


class EntryLevelFromComment(MappingOp):
    """Infer entry level from a free-text comment (Q7's challenge side)."""

    capability = Capability.INFERENCE

    def __init__(self, path: str,
                 entry_markers: tuple[str, ...] = (
                     "First course in sequence", "No prerequisites"),
                 prereq_markers: tuple[str, ...] = ("Prerequisite",)) -> None:
        self.path = path
        self.entry_markers = entry_markers
        self.prereq_markers = prereq_markers

    def apply(self, record, out, context):
        comment = _first_text(record, self.path)
        if comment is None:
            # No comment at all: nothing contradicts entry level.
            out.setdefault("entry_level", True)
            return
        if any(marker.lower() in comment.lower()
               for marker in self.entry_markers):
            out["entry_level"] = True
        elif any(marker.lower() in comment.lower()
                 for marker in self.prereq_markers):
            out["entry_level"] = False


class ClassificationList(MappingOp):
    """Parse Georgia Tech's ``JR or SR`` restriction (Q8's reference side)."""

    capability = Capability.RENAME

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if value:
            out["open_to"] = tuple(
                part.strip() for part in re.split(r"\s+or\s+|,", value)
                if part.strip())
        elif value == "":
            out["open_to"] = ()  # unrestricted


# --------------------------------------------------------------------------- #
# Structural heterogeneities (Q9-Q12)
# --------------------------------------------------------------------------- #

class SectionStructure(MappingOp):
    """Extract days/time/rooms from per-section ``time`` values (Q9).

    UMD's section time runs days, time range and room together:
    ``MW 10:00am-11:15am CHM 1407``. The course-level meeting is taken
    from the first section; rooms accumulate across sections.
    """

    capability = Capability.RESTRUCTURE

    _PATTERN = re.compile(
        r"^(?P<days>\S+)\s+(?P<range>\S+?(?:am|pm))\s+(?P<room>.+)$")

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        rooms: list[str] = []
        for index, node in enumerate(select_path(record, self.path)):
            match = self._PATTERN.match(node.normalized_text)
            if match is None:
                raise MappingError(
                    f"unrecognized section time "
                    f"{node.normalized_text!r}", context.source)
            if index == 0:
                out.setdefault("days", match.group("days"))
                start, end = parse_time_range(match.group("range"))
                out.setdefault("start_minute", start)
                out.setdefault("end_minute", end)
            room = match.group("room").strip()
            if room not in rooms:
                rooms.append(room)
        if rooms:
            out["rooms"] = tuple(out.get("rooms", ())) + tuple(rooms)


class RoomFromText(MappingOp):
    """Room embedded in another attribute's text (a mild Q9 case).

    Michigan renders "MW 10:30 - 12:00, 1013 DOW": the room is whatever
    follows the comma.
    """

    capability = Capability.RESTRUCTURE

    _PATTERN = re.compile(r",\s*(?P<room>[^,]+)$")

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if not value:
            return
        match = self._PATTERN.search(value)
        if match is not None:
            out["rooms"] = (tuple(out.get("rooms", ()))
                            + (match.group("room").strip(),))


class SplitInstructors(MappingOp):
    """CMU's slash-separated set-valued Lecturer (Q10's reference side)."""

    capability = Capability.SET_HANDLING

    def __init__(self, path: str, separator: str = "/") -> None:
        self.path = path
        self.separator = separator

    def apply(self, record, out, context):
        value = _first_text(record, self.path)
        if value:
            names = tuple(part.strip()
                          for part in value.split(self.separator)
                          if part.strip())
            out["instructors"] = tuple(out.get("instructors", ())) + names

    def fallback(self) -> MappingOp:
        # Without set handling the field still maps -- unsplit, so a
        # two-person "Song/Wing" masquerades as one instructor.
        return CopyInstructor(self.path)


class InstructorsFromSectionTitles(MappingOp):
    """Gather instructors from section headings (Q10's challenge side).

    UMD's headings read ``0101(13795) Singh, H.`` — the id is stripped, the
    name kept, duplicates across sections collapsed.
    """

    capability = Capability.SET_HANDLING

    _PATTERN = re.compile(r"^\S+\s+(?P<name>.+)$")

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        names: list[str] = []
        for node in select_path(record, self.path):
            match = self._PATTERN.match(node.normalized_text)
            if match is None:
                continue
            name = match.group("name").strip()
            if name and name not in names:
                names.append(name)
        if names:
            out["instructors"] = (tuple(out.get("instructors", ()))
                                  + tuple(names))


class InstructorsFromTermColumns(MappingOp):
    """UCSD's term columns hold instructors (Q11's challenge side).

    The operator encodes the out-of-band knowledge that columns named
    "Fall 2003" / "Winter 2004" / ... carry instructor names.
    """

    capability = Capability.COLUMN_SEMANTICS

    def __init__(self, paths: tuple[str, ...]) -> None:
        self.paths = paths

    def apply(self, record, out, context):
        names: list[str] = []
        for path in self.paths:
            value = _first_text(record, path)
            if value and value not in names:
                names.append(value)
        if names:
            out["instructors"] = (tuple(out.get("instructors", ()))
                                  + tuple(names))


class DecomposeCompositeTitle(MappingOp):
    """Split Brown's composite Title/Time cell (Q12's challenge side).

    The flattened cell reads ``Computer NetworksM hr. M 3-5:30`` (or, when
    the title was hyperlinked, ``... Data Structures D hr. MWF 11-12`` with
    a separating space). The operator recovers title, day pattern and time
    range; it *overwrites* the title that :class:`FlattenUnionTitle` left,
    so ordering the two operators flatten-then-decompose is significant.
    """

    capability = Capability.DECOMPOSITION

    _PATTERN = re.compile(
        r"^(?P<title>.*?)\s?(?P<block>[A-Z]) hr\.\s+(?P<days>[A-Za-z,]+)\s+"
        r"(?P<range>[\d:]+-[\d:]+)$")

    def __init__(self, path: str) -> None:
        self.path = path

    def apply(self, record, out, context):
        # Decompose the title string the upstream operator produced, so a
        # degraded union-type read stays degraded; fall back to the raw
        # element only when nothing ran before us.
        text = out.get("title")
        if text is None:
            matches = select_path(record, self.path)
            if not matches:
                return
            text = matches[0].normalized_text
        match = self._PATTERN.match(text)
        if match is None:
            raise MappingError(
                f"composite title {text!r} does not decompose",
                context.source)
        out["title"] = match.group("title").strip()
        out["days"] = match.group("days").replace(",", "")
        start, end = parse_time_range(match.group("range"))
        out["start_minute"] = start
        out["end_minute"] = end
        out["extras"] = dict(out.get("extras", {}),
                             hour_block=match.group("block"))
