"""Exception hierarchy for the :mod:`repro.xmlmodel` package.

All errors raised by the XML substrate derive from :class:`XmlError` so that
callers can catch the whole family with a single ``except`` clause while the
library can still signal distinct failure modes.
"""

from __future__ import annotations


class XmlError(Exception):
    """Base class for all XML model errors."""


class XmlParseError(XmlError):
    """Raised when a byte/str payload cannot be parsed as well-formed XML.

    Attributes:
        line: 1-based line of the offending construct, when known.
        column: 1-based column of the offending construct, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" (line {line}"
            location += f", column {column})" if column is not None else ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class XmlPathError(XmlError):
    """Raised when a mapping path is not child tag names joined by ``/``."""


class XmlSchemaError(XmlError):
    """Raised when a schema cannot be built or is internally inconsistent."""


class XmlValidationError(XmlError):
    """Raised when a document does not conform to a schema.

    Attributes:
        path: slash-separated location of the offending node.
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(f"{message} at '{path}'" if path else message)
        self.path = path
