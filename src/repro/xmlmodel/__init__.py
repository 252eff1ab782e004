"""XML substrate: document model, parser, serializer, indexes and XSD subset.

This package is the foundation the testbed, the scraper and the XQuery engine
are built on. Public surface:

* :class:`XmlElement`, :class:`XmlDocument`, :func:`element` — the tree model.
* :func:`parse_xml`, :func:`parse_element` — expat-backed parsing.
* :func:`serialize`, :func:`serialize_pretty` — exact and indented output.
* :class:`DocumentIndex` — per-document tag and child posting lists.
* :func:`infer_schema`, :class:`XmlSchema`, :class:`ElementDecl` — XSD subset.
"""

from .element import Child, XmlDocument, XmlElement, element, is_valid_name
from .indexes import DocumentIndex
from .errors import (
    XmlError,
    XmlParseError,
    XmlPathError,
    XmlSchemaError,
    XmlValidationError,
)
from .parser import parse_element, parse_xml
from .schema import UNBOUNDED, ElementDecl, XmlSchema, infer_schema, parse_xsd
from .serializer import (
    escape_attr,
    escape_text,
    serialize,
    serialize_digest,
    serialize_pretty,
)

__all__ = [
    "Child",
    "DocumentIndex",
    "ElementDecl",
    "UNBOUNDED",
    "XmlDocument",
    "XmlElement",
    "XmlError",
    "XmlParseError",
    "XmlPathError",
    "XmlSchema",
    "XmlSchemaError",
    "XmlValidationError",
    "element",
    "escape_attr",
    "escape_text",
    "infer_schema",
    "is_valid_name",
    "parse_element",
    "parse_xsd",
    "parse_xml",
    "serialize",
    "serialize_digest",
    "serialize_pretty",
]
