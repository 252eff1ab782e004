"""Parser unit tests."""

import pytest

from repro.xquery import XQuerySyntaxError, collect_statistics
from repro.xquery.differential import outcomes
from repro.xquery.parser import MAX_NESTING, parse_query
from repro.xquery.ast import (
    Comparison,
    ElementConstructor,
    FLWOR,
    ForClause,
    FunctionCall,
    IfExpr,
    LetClause,
    Literal,
    Logical,
    Not,
    PathExpr,
    Sequence,
    VarRef,
)


class TestPrimaries:
    def test_string_literal(self):
        assert parse_query("'Mark'") == Literal("Mark")

    def test_number_literal(self):
        assert parse_query("10") == Literal(10.0)

    def test_variable(self):
        assert parse_query("$b") == VarRef("b")

    def test_empty_parens(self):
        assert parse_query("()") == Sequence(())

    def test_function_call_no_args(self):
        assert parse_query("true()") == FunctionCall("true", ())

    def test_function_call_args(self):
        node = parse_query("contains($t, 'DB')")
        assert node == FunctionCall(
            "contains", (VarRef("t"), Literal("DB")))

    def test_bare_name_is_context_relative_path(self):
        node = parse_query("Course")
        assert isinstance(node, PathExpr)
        assert node.steps[0].name == "Course"

    def test_bare_attribute_is_context_relative(self):
        node = parse_query("@code")
        assert isinstance(node, PathExpr)
        assert node.steps[0].kind == "attribute"

    def test_top_level_sequence(self):
        node = parse_query("1, 2")
        assert isinstance(node, Sequence)
        assert len(node.items) == 2


class TestPaths:
    def test_path_from_variable(self):
        node = parse_query("$b/Course/Title")
        assert isinstance(node, PathExpr)
        assert node.base == VarRef("b")
        assert [s.name for s in node.steps] == ["Course", "Title"]

    def test_path_from_doc(self):
        node = parse_query('doc("cmu.xml")/cmu/Course')
        assert isinstance(node.base, FunctionCall)
        assert node.base.name == "doc"

    def test_attribute_step(self):
        node = parse_query("$b/@code")
        assert node.steps[0].kind == "attribute"
        assert node.steps[0].name == "code"

    def test_text_step(self):
        node = parse_query("$b/text()")
        assert node.steps[0].kind == "text"

    def test_descendant_axis(self):
        node = parse_query("$b//Section")
        assert node.steps[0].axis == "descendant"

    def test_wildcard_step(self):
        node = parse_query("$b/*")
        assert node.steps[0].name == "*"

    def test_predicate(self):
        node = parse_query("$b/Course[2]")
        assert len(node.steps[0].predicates) == 1

    def test_predicate_expression(self):
        node = parse_query("$b/Course[Title = 'DB']")
        pred = node.steps[0].predicates[0]
        assert isinstance(pred, Comparison)

    def test_predicate_on_attribute_step_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_query("$b/@code[1]")

    def test_step_must_follow_slash(self):
        with pytest.raises(XQuerySyntaxError):
            parse_query("$b/")


class TestOperators:
    def test_comparison(self):
        node = parse_query("$b/Units > 10")
        assert isinstance(node, Comparison)
        assert node.op == ">"

    def test_and_or_precedence(self):
        node = parse_query("$a = 1 or $b = 2 and $c = 3")
        assert isinstance(node, Logical)
        assert node.op == "or"
        assert isinstance(node.right, Logical)
        assert node.right.op == "and"

    def test_not(self):
        assert isinstance(parse_query("not $x"), Not)

    def test_arithmetic(self):
        node = parse_query("1 + 2 - 3")
        assert node.op == "-"

    def test_no_chained_comparison(self):
        with pytest.raises(XQuerySyntaxError):
            parse_query("1 < 2 < 3")


class TestFLWOR:
    PAPER_QUERY_1 = """
        FOR $b in doc("gatech.xml")/gatech/Course
        WHERE $b/Instructor = 'Mark'
        RETURN $b
    """

    def test_paper_query_structure(self):
        node = parse_query(self.PAPER_QUERY_1)
        assert isinstance(node, FLWOR)
        assert isinstance(node.clauses[0], ForClause)
        assert node.clauses[0].variable == "b"
        assert isinstance(node.where, Comparison)
        assert node.returns == VarRef("b")

    def test_flwor_without_where(self):
        node = parse_query("for $x in $s return $x")
        assert node.where is None

    def test_let_clause(self):
        node = parse_query("let $t := $b/Title return $t")
        assert isinstance(node.clauses[0], LetClause)

    def test_multiple_for_bindings(self):
        node = parse_query("for $a in $x, $b in $y return $a")
        assert len(node.clauses) == 2

    def test_mixed_for_let(self):
        node = parse_query(
            "for $a in $x let $t := $a/Title return $t")
        assert isinstance(node.clauses[0], ForClause)
        assert isinstance(node.clauses[1], LetClause)

    def test_return_juxtaposition_paper_query_12(self):
        node = parse_query(
            "FOR $b in doc('cmu.xml')/cmu/Course "
            "WHERE $b/CourseTitle = '%Computer Networks%' "
            "RETURN $b/Title $b/Day")
        assert isinstance(node.returns, Sequence)
        assert len(node.returns.items) == 2

    def test_return_comma_sequence(self):
        node = parse_query("for $x in $s return $x/Title, $x/Day")
        assert isinstance(node.returns, Sequence)

    def test_nested_flwor_in_return(self):
        node = parse_query(
            "for $x in $s return for $y in $x/Section return $y")
        assert isinstance(node.returns, FLWOR)

    def test_missing_return_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_query("for $x in $s where $x = 1")

    def test_missing_in_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_query("for $x $s return $x")


class TestConstructorsAndConditionals:
    def test_if_expression(self):
        node = parse_query("if ($x = 1) then 'a' else 'b'")
        assert isinstance(node, IfExpr)

    def test_element_constructor(self):
        node = parse_query("element result { $b/Title }")
        assert isinstance(node, ElementConstructor)
        assert node.name == "result"

    def test_empty_element_constructor(self):
        node = parse_query("element empty {}")
        assert node.content is None

    def test_trailing_tokens_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_query("$a $b")


class TestAllPaperQueriesParse:
    """Smoke-parse idiomatic versions of all 12 benchmark queries."""

    SOURCES = [
        "FOR $b in doc('gatech.xml')/gatech/Course "
        "WHERE $b/Instructor = 'Mark' RETURN $b",
        "FOR $b in doc('cmu.xml')/cmu/Course "
        "WHERE $b/Time = '1:30 - 2:50' RETURN $b",
        "FOR $b in doc('umd.xml')/umd/Course "
        "WHERE $b/CourseName = '%Data Structures%' RETURN $b",
        "FOR $b in doc('cmu.xml')/cmu/Course "
        "WHERE $b/Units > 10 and $b/CourseTitle = '%Database%' RETURN $b",
        "FOR $b in doc('umd.xml')/umd/Course "
        "WHERE $b/CourseName = '%Database%' RETURN $b",
        "FOR $b in doc('toronto.xml')/toronto/course "
        "WHERE $b/title = '%Verification%' RETURN $b/text",
        "FOR $b in doc('umich.xml')/umich/Course "
        "WHERE $b/prerequisite = 'None' RETURN $b",
        "FOR $b in doc('gatech.xml')/gatech/Course "
        "WHERE $b/Restricted = '%JR%' RETURN $b",
        "FOR $b in doc('brown.xml')/brown/Course "
        "WHERE $b/Title = 'Software Engineering' RETURN $b/Room",
        "FOR $b in doc('cmu.xml')/cmu/Course "
        "WHERE $b/CourseTitle = '%Software%' RETURN $b/Lecturer",
        "FOR $b in doc('cmu.xml')/cmu/Course "
        "WHERE $b/CourseTitle = '%Database%' RETURN $b/Lecturer",
        "FOR $b in doc('cmu.xml')/cmu/Course "
        "WHERE $b/CourseTitle = '%Computer Networks%' "
        "RETURN $b/Title $b/Day",
    ]

    def test_all_parse(self):
        for source in self.SOURCES:
            node = parse_query(source)
            assert isinstance(node, FLWOR)


#: One query shape per way the grammar nests: ``n`` levels inside the
#: top-level expression, which is itself level 1.
NESTED = {
    "parens": lambda n: "(" * n + "1" + ")" * n,
    "calls": lambda n: "count(" * n + "1" + ")" * n,
    "predicates": lambda n: ('doc("cmu.xml")/cmu/Course'
                             + "[Day" * n + "]" * n),
    "not-chain": lambda n: "not " * n + "true()",
    "minus-chain": lambda n: "- " * n + "1",
}


class TestNestingLimit:
    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_deep_nesting_is_a_located_syntax_error(self, shape):
        with pytest.raises(XQuerySyntaxError,
                           match="nested deeper than") as raised:
            parse_query(NESTED[shape](1000))
        assert raised.value.line == 1
        assert raised.value.column > 1

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_deepest_accepted_query_agrees_across_engines(
            self, shape, paper_testbed):
        with pytest.raises(XQuerySyntaxError):
            parse_query(NESTED[shape](MAX_NESTING))
        documents = paper_testbed.documents
        statistics = collect_statistics(
            documents, fingerprint=paper_testbed.content_fingerprint())
        results = outcomes(NESTED[shape](MAX_NESTING - 1), documents,
                           statistics)
        assert len(set(results.values())) == 1
        assert results["costed"][:1] != ("raised",)
