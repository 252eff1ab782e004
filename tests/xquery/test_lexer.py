"""Lexer unit tests."""

import re

import pytest

from repro.xquery import XQuerySyntaxError, tokenize
from repro.xquery.lexer import _TOKEN
from repro.xquery.tokens import (
    EOF,
    KEYWORD,
    NAME,
    NUMBER,
    STRING,
    SYMBOL,
    VARIABLE,
)


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source(self):
        assert kinds("") == [EOF]

    def test_whitespace_only(self):
        assert kinds("  \n\t ") == [EOF]

    def test_variable(self):
        token = tokenize("$b")[0]
        assert token.kind == VARIABLE
        assert token.value == "b"

    def test_variable_requires_name(self):
        with pytest.raises(XQuerySyntaxError):
            tokenize("$ b")

    def test_keywords_case_insensitive(self):
        for text in ["for", "FOR", "For"]:
            token = tokenize(text)[0]
            assert token.kind == KEYWORD
            assert token.value == "for"

    def test_name_not_keyword(self):
        token = tokenize("Course")[0]
        assert token.kind == NAME

    def test_namespaced_name(self):
        token = tokenize("fn:contains")[0]
        assert token.kind == NAME
        assert token.value == "fn:contains"

    def test_hyphenated_name(self):
        assert tokenize("starts-with")[0].value == "starts-with"

    def test_let_binding_symbol(self):
        assert values("let $x := 1") == ["let", "x", ":=", "1"]


class TestStrings:
    def test_single_quoted(self):
        token = tokenize("'Mark'")[0]
        assert token.kind == STRING
        assert token.value == "Mark"

    def test_double_quoted(self):
        assert tokenize('"cmu.xml"')[0].value == "cmu.xml"

    def test_doubled_quote_escape(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_percent_preserved(self):
        assert tokenize("'%Database%'")[0].value == "%Database%"

    def test_unterminated_raises(self):
        with pytest.raises(XQuerySyntaxError):
            tokenize("'oops")

    def test_unicode_content(self):
        assert tokenize("'Datenbanken für Zürich'")[0].value == \
            "Datenbanken für Zürich"


class TestNumbers:
    def test_integer(self):
        token = tokenize("10")[0]
        assert token.kind == NUMBER
        assert token.value == "10"

    def test_decimal(self):
        assert tokenize("1.5")[0].value == "1.5"

    def test_number_then_dot_symbol(self):
        # '1.' is number 1 followed by '.' symbol (context-item dot).
        toks = tokenize("1 .")
        assert toks[0].kind == NUMBER
        assert toks[1].kind == SYMBOL


class TestSymbols:
    def test_double_slash_single_token(self):
        assert values("$a//b") == ["a", "//", "b"]

    def test_comparison_operators(self):
        assert values("<= >= != = < >") == \
            ["<=", ">=", "!=", "=", "<", ">"]

    def test_path_tokens(self):
        assert values('doc("x")/y/@z') == \
            ["doc", "(", "x", ")", "/", "y", "/", "@", "z"]

    def test_unexpected_character(self):
        with pytest.raises(XQuerySyntaxError):
            tokenize("#")


class TestComments:
    def test_comment_skipped(self):
        assert values("(: hello :) $x") == ["x"]

    def test_nested_comment(self):
        assert values("(: a (: b :) c :) 1") == ["1"]

    def test_unterminated_comment(self):
        with pytest.raises(XQuerySyntaxError):
            tokenize("(: oops")


class TestPaperQueries:
    def test_query_one_tokenizes(self):
        source = ('FOR $b in doc("gatech.xml")/gatech/Course '
                  'WHERE $b/Instructor = "Mark" RETURN $b')
        toks = tokenize(source)
        assert toks[0].is_keyword("for")
        assert toks[-1].kind == EOF

    def test_error_reports_line(self):
        with pytest.raises(XQuerySyntaxError) as exc:
            tokenize("$a\n'unterminated")
        assert exc.value.line == 2


class TestScanEdges:
    """Shapes the master pattern hands to the per-character reader, and
    error offsets; expected values are those of a character-by-character
    scan."""

    @pytest.mark.parametrize("source, expected", [
        ("(: a (: b :) c :) $v", [(VARIABLE, "v", 18)]),
        ("1.5.2", [(NUMBER, "1.5", 0), (SYMBOL, ".", 3), (NUMBER, "2", 4)]),
        ("12٣ a", [(NUMBER, "12٣", 0), (NAME, "a", 4)]),
        ("1.x", [(NUMBER, "1", 0), (SYMBOL, ".", 1), (NAME, "x", 2)]),
        ("x\xa0y", [(NAME, "x", 0), (NAME, "y", 2)]),
        ("'it''s' \"say \"\"hi\"\"\"",
         [(STRING, "it's", 0), (STRING, 'say "hi"', 8)]),
        ("fn:a a:=b", [(NAME, "fn:a", 0), (NAME, "a", 5),
                       (SYMBOL, ":=", 6), (NAME, "b", 8)]),
        ("FOR\t$x", [(KEYWORD, "for", 0), (VARIABLE, "x", 4)]),
    ])
    def test_tokens_and_positions(self, source, expected):
        tokens = tokenize(source)
        assert [(t.kind, t.value, t.position) for t in tokens] \
            == expected + [(EOF, "", len(source))]

    @pytest.mark.parametrize("source, message, offset", [
        ("'''", "unterminated string literal", 0),
        ("  'a''", "unterminated string literal", 2),
        ('"unterminated', "unterminated string literal", 0),
        ("x = \t$", "'$' must be followed by a name", 5),
        ("$1", "'$' must be followed by a name", 0),
        ("a:b a: b", "unexpected character ':'", 5),
        ("  \xe9", "unexpected character '\xe9'", 2),
        ("1 (: open", "unterminated comment", 2),
    ])
    def test_errors_and_offsets(self, source, message, offset):
        with pytest.raises(XQuerySyntaxError) as exc:
            tokenize(source)
        assert str(exc.value) == f"{message} (line 1, offset {offset})"

    def test_master_pattern_compiles_before_python_3_11(self):
        # Possessive repeats and atomic groups came to ``re`` in 3.11;
        # the package supports 3.10.
        unescaped = re.sub(r"\\.", "", _TOKEN.pattern)
        for construct in ("*+", "++", "?+", "}+", "(?>"):
            assert construct not in unescaped

    def test_long_whitespace_run_before_a_bad_character_is_linear(self):
        # Each fallback skips a whole whitespace run, so this is one pass.
        with pytest.raises(XQuerySyntaxError) as exc:
            tokenize("  " * 50_000 + "#")
        assert exc.value.column == 100_001
