"""Token definitions shared by the XQuery lexer and parser."""

from __future__ import annotations

from typing import Final, NamedTuple

# Token kinds -------------------------------------------------------------- #

NAME: Final = "NAME"            # Course, doc, fn:contains
VARIABLE: Final = "VARIABLE"    # $b (value stored without the '$')
STRING: Final = "STRING"        # 'Mark' or "Mark"
NUMBER: Final = "NUMBER"        # 10, 1.5
KEYWORD: Final = "KEYWORD"      # for let where return in and or not if then
                                # else element satisfies
SYMBOL: Final = "SYMBOL"        # ( ) { } [ ] , / // @ = != < <= > >= + - * . :=
EOF: Final = "EOF"

KEYWORDS: Final = frozenset({
    "for", "let", "where", "return", "in", "and", "or", "not",
    "if", "then", "else", "element",
    "order", "by", "ascending", "descending",
    "some", "every", "satisfies",
})

# Multi-character symbols must be listed longest-first for maximal munch.
SYMBOLS: Final = ("//", ":=", "!=", "<=", ">=",
                  "(", ")", "{", "}", "[", "]", ",", "/", "@",
                  "=", "<", ">", "+", "-", "*", ".")


class Token(NamedTuple):
    """One lexical token: an immutable ``(kind, value, position)`` triple.

    ``value`` is the normalized payload: keyword tokens are lowercased,
    variable tokens drop the ``$`` sigil, string tokens are unquoted.
    ``position`` is the 0-based offset of the first character in the source,
    used for error reporting.  A named tuple rather than a dataclass
    because the lexer builds one per token of every query it serves.
    """

    kind: str
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == KEYWORD and self.value == word

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind == SYMBOL and self.value in symbols

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}@{self.position})"
