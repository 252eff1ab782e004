"""Lexer for the XQuery subset: one compiled master regex.

Keywords are recognized case-insensitively because the THALIA paper prints
its benchmark queries with uppercase clause keywords (``FOR``/``WHERE``/
``RETURN``) while XQuery proper is lowercase; accepting both lets the paper
text run verbatim.

Names may contain a single namespace colon (``fn:contains``, ``udf:to-24h``)
and the characters needed for the catalog element names (dots and hyphens).

Every ASCII token, with the whitespace before it, is read by one match of
:data:`_TOKEN`.  The few shapes the pattern leaves alone fall back to a
per-character reader: nested ``(: ... :)`` comments, whitespace and digits
outside ASCII (``str.isspace`` / ``str.isdigit``), a number followed by a
second decimal point (``1.5.2``), and the characters no token starts
with, which raise.  Tokens, positions and error messages are those of a
character-by-character scan.
"""

from __future__ import annotations

import re

from .errors import XQuerySyntaxError
from .tokens import (
    EOF,
    KEYWORD,
    KEYWORDS,
    NAME,
    NUMBER,
    STRING,
    SYMBOL,
    SYMBOLS,
    VARIABLE,
    Token,
)

_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"
_ASCII_SPACE = "".join(chr(code) for code in range(128) if chr(code).isspace())

#: Leading ASCII whitespace, then one alternative per token shape.  The
#: shapes start with distinct characters except where the order says which
#: wins (``(:`` before ``(``, a string before a lone quote, ``$name``
#: before a lone ``$``).  A string may not be followed by its own quote,
#: so an unterminated literal cannot backtrack into a shorter string
#: ending at the first quote of a doubled pair.  A number may not be
#: followed by a digit or a non-ASCII character (which ``str.isdigit``
#: might extend), with or without a dot between, so backtracking cannot
#: split one; such a number is left to the fallback reader.
_TOKEN = re.compile(
    f"[{re.escape(_ASCII_SPACE)}]*(?:"
    rf"(?P<name>{_NAME}(?::[A-Za-z_][A-Za-z0-9_.\-]*)?)"
    r"|(?P<comment>\(:)"
    "|(?P<symbol>" + "|".join(re.escape(symbol) for symbol in SYMBOLS) + ")"
    rf"|(?P<variable>\${_NAME})"
    r"""|(?P<string>'(?:[^']|'')*'(?!')|"(?:[^"]|"")*"(?!"))"""
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?)(?!\.?(?:[0-9]|[^\x00-\x7f]))"
    r"|(?P<unterminated>['\"])"
    r"|(?P<dollar>\$))")


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, returning a token list terminated by EOF.

    Raises:
        XQuerySyntaxError: on unterminated strings or comments, a ``$``
            without a name, or an unexpected character.
    """
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    i = 0
    length = len(source)
    while i < length:
        found = match(source, i)
        if found is None:
            i = _read_other(source, i, tokens)
            continue
        kind = found.lastgroup
        start = found.start(kind)
        i = found.end()
        if kind == "name":
            word = found.group(kind)
            lowered = word.lower()
            if lowered in KEYWORDS:
                append(Token(KEYWORD, lowered, start))
            else:
                # A namespaced name (one colon) is never a keyword.
                append(Token(NAME, word, start))
        elif kind == "symbol":
            append(Token(SYMBOL, found.group(kind), start))
        elif kind == "variable":
            append(Token(VARIABLE, source[start + 1:i], start))
        elif kind == "string":
            quote = source[start]
            value = source[start + 1:i - 1]
            if quote * 2 in value:
                # XQuery escapes a quote by doubling it.
                value = value.replace(quote * 2, quote)
            append(Token(STRING, value, start))
        elif kind == "number":
            append(Token(NUMBER, found.group(kind), start))
        elif kind == "comment":
            i = _skip_comment(source, start)
        elif kind == "unterminated":
            raise XQuerySyntaxError("unterminated string literal", source,
                                    start)
        else:
            raise XQuerySyntaxError("'$' must be followed by a name",
                                    source, start)
    append(Token(EOF, "", length))
    return tokens


def _read_other(source: str, i: int, tokens: list[Token]) -> int:
    """Read what the master pattern leaves at *i*: a whitespace run (any
    ``str.isspace`` character, skipped whole so a long run costs one
    pass), a number the pattern leaves (a non-ASCII digit, or a second
    decimal point), or an unexpected character, which raises.  Returns
    the new offset."""
    ch = source[i]
    if ch.isspace():
        while i < len(source) and source[i].isspace():
            i += 1
        return i
    if ch.isdigit():
        token, i = _read_number(source, i)
        tokens.append(token)
        return i
    raise XQuerySyntaxError(f"unexpected character {ch!r}", source, i)


def _skip_comment(source: str, start: int) -> int:
    """Skip a possibly nested ``(: ... :)`` comment; return the new offset."""
    depth = 0
    i = start
    while i < len(source):
        if source.startswith("(:", i):
            depth += 1
            i += 2
        elif source.startswith(":)", i):
            depth -= 1
            i += 2
            if depth == 0:
                return i
        else:
            i += 1
    raise XQuerySyntaxError("unterminated comment", source, start)


def _read_number(source: str, start: int) -> tuple[Token, int]:
    i = start
    seen_dot = False
    while i < len(source):
        ch = source[i]
        if ch.isdigit():
            i += 1
        elif (ch == "." and not seen_dot and i + 1 < len(source)
              and source[i + 1].isdigit()):
            seen_dot = True
            i += 1
        else:
            break
    return Token(NUMBER, source[start:i], start), i
