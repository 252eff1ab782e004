"""Runtime value model for the XQuery subset.

A value is always a *sequence*: a Python list of items, where an item is an
:class:`~repro.xmlmodel.element.XmlElement`, ``str``, ``float`` or ``bool``.
This module centralizes the coercion rules (atomization, effective boolean
value, numeric promotion) used by both the evaluator and the function
library so they cannot drift apart.
"""

from __future__ import annotations

from typing import Union

from ..xmlmodel import XmlElement
from .errors import XQueryTypeError

Item = Union[XmlElement, str, float, bool]
Seq = list  # list[Item]


def string_value(item: Item) -> str:
    """XQuery ``string()`` of one item.

    Elements yield their whitespace-normalized flattened text: catalog data
    arrives from scraped HTML where insignificant whitespace abounds, so the
    engine normalizes at atomization time (documented divergence from strict
    XQuery, which preserves whitespace).
    """
    if type(item) is str:
        # Strings dominate atomized comparisons at scale; exact-type check
        # first skips three isinstance calls on the hot path.
        return item
    if isinstance(item, XmlElement):
        return item.normalized_text
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, float):
        return format_number(item)
    return item


def format_number(value: float) -> str:
    """Render a float the way XQuery renders integers when integral."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def atomize(seq: Seq) -> list[str | float | bool]:
    """Atomize a sequence: elements become their string value."""
    return [item if isinstance(item, (float, bool)) else string_value(item)
            for item in seq]


def to_number(item: Item) -> float:
    """Numeric value of one item.

    Raises:
        XQueryTypeError: when the item cannot be interpreted as a number
            (e.g. ETH's ``Umfang`` value ``"2V1U"`` — the visible failure
            Benchmark Query 4 is designed to surface).
    """
    if isinstance(item, bool):
        return 1.0 if item else 0.0
    if isinstance(item, float):
        return item
    text = string_value(item).strip()
    try:
        return float(text)
    except ValueError:
        raise XQueryTypeError(
            f"cannot convert {text!r} to a number") from None


def effective_boolean_value(seq: Seq) -> bool:
    """XQuery effective boolean value of a sequence.

    Empty sequence → False; a sequence whose first item is a node → True;
    singleton boolean/number/string follow their natural truthiness.
    """
    if not seq:
        return False
    first = seq[0]
    if isinstance(first, XmlElement):
        return True
    if len(seq) > 1:
        raise XQueryTypeError(
            "effective boolean value of a multi-item atomic sequence")
    if isinstance(first, bool):
        return first
    if isinstance(first, float):
        return first != 0.0 and first == first  # NaN is false
    return bool(first)


def singleton(seq: Seq, what: str) -> Item:
    """Require exactly one item.

    Raises:
        XQueryTypeError: if the sequence is empty or has more than one item.
    """
    if len(seq) != 1:
        raise XQueryTypeError(
            f"{what} requires a single item, got {len(seq)}")
    return seq[0]


def one_string(seq: Seq, what: str) -> str:
    """Require exactly one item and return its string value."""
    return string_value(singleton(seq, what))
