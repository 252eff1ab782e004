"""Recursive-descent parser for the XQuery subset.

Grammar (informal, lowest to highest precedence)::

    query        := exprSeq EOF
    exprSeq      := expr ("," expr)*
    expr         := flwor | ifExpr | quantified | orExpr
    flwor        := (forClause | letClause)+ ("where" expr)?
                    ("order" "by" orderSpec ("," orderSpec)*)?
                    "return" returnBody
    orderSpec    := expr ("ascending" | "descending")?
    quantified   := ("some" | "every") VAR "in" expr ("," VAR "in" expr)*
                    "satisfies" expr
    forClause    := "for" VAR "in" expr ("," VAR "in" expr)*
    letClause    := "let" VAR ":=" expr ("," VAR ":=" expr)*
    returnBody   := expr (expr)*          -- juxtaposition tolerated (paper style)
    ifExpr       := "if" "(" expr ")" "then" expr "else" expr
    orExpr       := andExpr ("or" andExpr)*
    andExpr      := cmpExpr ("and" cmpExpr)*
    cmpExpr      := addExpr (CMPOP addExpr)?
    addExpr      := unary (("+"|"-") unary)*
    unary        := "not" unary | "-" unary | pathExpr
    pathExpr     := primary (("/"|"//") step)*
    step         := NAME | "*" | "@" NAME | "text" "(" ")" , each with
                    ("[" expr "]")* predicates
    primary      := literal | VAR | "." | functionCall
                  | "(" exprSeq? ")" | "element" NAME "{" exprSeq? "}"
    functionCall := NAME "(" exprSeq? ")"

The return-body juxtaposition rule exists because the paper prints
``RETURN $b/Title $b/Day`` (Benchmark Query 12) without a comma; standard
comma-separated sequences are of course accepted too.
"""

from __future__ import annotations

from .ast import (
    Arithmetic,
    Comparison,
    ContextItem,
    ElementConstructor,
    Expr,
    FLWOR,
    ForClause,
    FunctionCall,
    IfExpr,
    LetClause,
    Literal,
    Logical,
    Not,
    OrderSpec,
    PathExpr,
    Quantified,
    Sequence,
    Step,
    VarRef,
)
from .errors import XQuerySyntaxError
from .lexer import tokenize
from .tokens import EOF, NAME, NUMBER, STRING, SYMBOL, VARIABLE, Token

_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Deepest expression nesting a query may use (the top-level expression
#: is level 1).  Each level costs the parser, compiler and evaluators
#: several Python frames, so a deeper query gets a located syntax error
#: instead of overflowing the interpreter stack in some later stage.
MAX_NESTING = 64


class _Parser:
    def __init__(self, source: str) -> None:
        self._source = source
        self._tokens = tokenize(source)
        self._index = 0
        self._depth = 0

    # -- token utilities ------------------------------------------------- #

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind != EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> XQuerySyntaxError:
        return XQuerySyntaxError(message, self._source, self._current.position)

    def _descend(self) -> None:
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise self._error(
                f"expression nested deeper than {MAX_NESTING} levels")

    def _expect_symbol(self, symbol: str) -> None:
        if not self._current.is_symbol(symbol):
            raise self._error(f"expected {symbol!r}, found {self._current.value!r}")
        self._advance()

    def _expect_keyword(self, word: str) -> None:
        if not self._current.is_keyword(word):
            raise self._error(f"expected '{word}', found {self._current.value!r}")
        self._advance()

    def _expect_kind(self, kind: str) -> Token:
        if self._current.kind != kind:
            raise self._error(f"expected {kind}, found {self._current.value!r}")
        return self._advance()

    # -- grammar --------------------------------------------------------- #

    def parse_query(self) -> Expr:
        expr = self._parse_expr_seq()
        if self._current.kind != EOF:
            raise self._error(f"unexpected trailing {self._current.value!r}")
        return expr

    def _parse_expr_seq(self) -> Expr:
        items = [self._parse_expr()]
        while self._current.is_symbol(","):
            self._advance()
            items.append(self._parse_expr())
        return items[0] if len(items) == 1 else Sequence(tuple(items))

    def _parse_expr(self) -> Expr:
        self._descend()
        if self._current.is_keyword("for") or self._current.is_keyword("let"):
            expr = self._parse_flwor()
        elif self._current.is_keyword("if"):
            expr = self._parse_if()
        elif self._current.is_keyword("some") or \
                self._current.is_keyword("every"):
            expr = self._parse_quantified()
        else:
            expr = self._parse_or()
        self._depth -= 1
        return expr

    def _parse_quantified(self) -> Quantified:
        kind = self._advance().value
        bindings = self._parse_for_bindings()
        if not self._current.is_keyword("satisfies"):
            raise self._error("quantified expression requires 'satisfies'")
        self._advance()
        return Quantified(kind, tuple(bindings), self._parse_expr())

    def _parse_flwor(self) -> FLWOR:
        clauses: list[ForClause | LetClause] = []
        while True:
            if self._current.is_keyword("for"):
                self._advance()
                clauses.extend(self._parse_for_bindings())
            elif self._current.is_keyword("let"):
                self._advance()
                clauses.extend(self._parse_let_bindings())
            else:
                break
        if not clauses:
            raise self._error("FLWOR requires at least one for/let clause")
        where: Expr | None = None
        if self._current.is_keyword("where"):
            self._advance()
            where = self._parse_expr()
        order_specs = self._parse_order_by()
        self._expect_keyword("return")
        returns = self._parse_return_body()
        return FLWOR(tuple(clauses), where, returns, order_specs)

    def _parse_order_by(self) -> tuple[OrderSpec, ...]:
        if not self._current.is_keyword("order"):
            return ()
        self._advance()
        self._expect_keyword("by")
        specs = [self._parse_one_order_spec()]
        while self._current.is_symbol(","):
            self._advance()
            specs.append(self._parse_one_order_spec())
        return tuple(specs)

    def _parse_one_order_spec(self) -> OrderSpec:
        key = self._parse_expr()
        descending = False
        if self._current.is_keyword("descending"):
            descending = True
            self._advance()
        elif self._current.is_keyword("ascending"):
            self._advance()
        return OrderSpec(key, descending)

    def _parse_for_bindings(self) -> list[ForClause]:
        bindings = [self._parse_one_for_binding()]
        while self._current.is_symbol(","):
            self._advance()
            bindings.append(self._parse_one_for_binding())
        return bindings

    def _parse_one_for_binding(self) -> ForClause:
        variable = self._expect_kind(VARIABLE).value
        self._expect_keyword("in")
        return ForClause(variable, self._parse_expr())

    def _parse_let_bindings(self) -> list[LetClause]:
        bindings = [self._parse_one_let_binding()]
        while self._current.is_symbol(","):
            self._advance()
            bindings.append(self._parse_one_let_binding())
        return bindings

    def _parse_one_let_binding(self) -> LetClause:
        variable = self._expect_kind(VARIABLE).value
        self._expect_symbol(":=")
        return LetClause(variable, self._parse_expr())

    def _parse_return_body(self) -> Expr:
        items = [self._parse_expr()]
        while True:
            if self._current.is_symbol(","):
                self._advance()
                items.append(self._parse_expr())
            elif self._current.kind == VARIABLE:
                # Paper-style juxtaposition: RETURN $b/Title $b/Day
                items.append(self._parse_expr())
            else:
                break
        return items[0] if len(items) == 1 else Sequence(tuple(items))

    def _parse_if(self) -> IfExpr:
        self._expect_keyword("if")
        self._expect_symbol("(")
        condition = self._parse_expr_seq()
        self._expect_symbol(")")
        self._expect_keyword("then")
        then_branch = self._parse_expr()
        self._expect_keyword("else")
        else_branch = self._parse_expr()
        return IfExpr(condition, then_branch, else_branch)

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._current.is_keyword("or"):
            self._advance()
            left = Logical("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_comparison()
        while self._current.is_keyword("and"):
            self._advance()
            left = Logical("and", left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        if self._current.kind == SYMBOL and self._current.value in _COMPARISON_OPS:
            op = self._advance().value
            right = self._parse_additive()
            return Comparison(op, left, right)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_unary()
        while self._current.is_symbol("+", "-"):
            op = self._advance().value
            left = Arithmetic(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if not (self._current.is_keyword("not")
                or self._current.is_symbol("-")):
            return self._parse_path()
        self._descend()
        negate = self._advance().value == "-"
        operand = self._parse_unary()
        self._depth -= 1
        return Arithmetic("-", Literal(0.0), operand) if negate \
            else Not(operand)

    def _parse_path(self) -> Expr:
        base = self._parse_primary()
        steps: list[Step] = []
        while self._current.is_symbol("/", "//"):
            axis = "descendant" if self._advance().value == "//" else "child"
            steps.append(self._parse_step(axis))
        return PathExpr(base, tuple(steps)) if steps else base

    def _parse_step(self, axis: str) -> Step:
        token = self._current
        if token.is_symbol("@"):
            self._advance()
            name = self._expect_kind(NAME).value
            return Step(axis, "attribute", name,
                        self._parse_predicates(allowed=False))
        if token.is_symbol("*"):
            self._advance()
            return Step(axis, "element", "*", self._parse_predicates())
        if token.kind == NAME:
            self._advance()
            if token.value == "text" and self._current.is_symbol("("):
                self._advance()
                self._expect_symbol(")")
                return Step(axis, "text", "text()",
                            self._parse_predicates(allowed=False))
            return Step(axis, "element", token.value, self._parse_predicates())
        raise self._error(f"expected a path step, found {token.value!r}")

    def _parse_predicates(self, allowed: bool = True) -> tuple[Expr, ...]:
        predicates: list[Expr] = []
        while self._current.is_symbol("["):
            if not allowed:
                raise self._error("predicates not allowed on this step")
            self._advance()
            predicates.append(self._parse_expr_seq())
            self._expect_symbol("]")
        return tuple(predicates)

    def _parse_primary(self) -> Expr:
        token = self._current
        if token.kind == STRING:
            self._advance()
            return Literal(token.value)
        if token.kind == NUMBER:
            self._advance()
            return Literal(float(token.value))
        if token.kind == VARIABLE:
            self._advance()
            return VarRef(token.value)
        if token.is_symbol("."):
            self._advance()
            return ContextItem()
        if token.is_symbol("("):
            self._advance()
            if self._current.is_symbol(")"):
                self._advance()
                return Sequence(())
            inner = self._parse_expr_seq()
            self._expect_symbol(")")
            return inner
        if token.is_keyword("element"):
            return self._parse_element_constructor()
        if token.kind == NAME:
            if self._tokens[self._index + 1].is_symbol("("):
                return self._parse_function_call()
            # Bare name: a relative path step from the context item, as in
            # predicate expressions like Course[Title = 'DB'].
            self._advance()
            step = Step("child", "element", token.value,
                        self._parse_predicates())
            return PathExpr(ContextItem(), (step,))
        if token.is_symbol("@"):
            # Relative attribute step, as in Course[@code = 'CS145'].
            self._advance()
            name = self._expect_kind(NAME).value
            return PathExpr(ContextItem(),
                            (Step("child", "attribute", name),))
        raise self._error(f"unexpected token {token.value!r}")

    def _parse_element_constructor(self) -> ElementConstructor:
        self._expect_keyword("element")
        name = self._expect_kind(NAME).value
        self._expect_symbol("{")
        content: Expr | None = None
        if not self._current.is_symbol("}"):
            content = self._parse_expr_seq()
        self._expect_symbol("}")
        return ElementConstructor(name, content)

    def _parse_function_call(self) -> FunctionCall:
        name = self._expect_kind(NAME).value
        self._expect_symbol("(")
        args: list[Expr] = []
        if not self._current.is_symbol(")"):
            args.append(self._parse_expr())
            while self._current.is_symbol(","):
                self._advance()
                args.append(self._parse_expr())
        self._expect_symbol(")")
        return FunctionCall(name, tuple(args))


def parse_query(source: str) -> Expr:
    """Parse XQuery text into an AST.

    Raises:
        XQuerySyntaxError: on any lexical or grammatical problem.
    """
    return _Parser(source).parse_query()
