"""Scenario suites: specs → runnable benchmark queries → score cards.

A :class:`ScenarioSuite` turns generated :class:`ScenarioSpec` values into
:class:`ScenarioQuery` objects — real :class:`BenchmarkQuery` instances the
existing runner executes unchanged — plus the two-source-per-case testbed
they run over.  Each query's XQuery text is *synthesized* from the spec
through the :mod:`repro.xquery` AST and validated by compiling it, so
``thalia gen`` never ships a query the engine cannot parse.

:meth:`ScenarioSuite.validate` is the generator's self-check: for the full
mediator and each capability-model system the scored outcome must agree
with the capability prediction (supported ⇔ correct), and the synthesized
XQuery executed over the reference document must recover exactly the
reference half of the derived gold answer.  A generated case ships only
when all of that holds — the suite audits its own answers instead of
trusting hand-made solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Iterable

from ..catalogs import Testbed, build_testbed
from ..core.queries import Answer, BenchmarkQuery
from ..core.runner import run_benchmark
from ..core.scoring import ScoreCard, validate_claims
from ..integration.capabilities import Capability
from ..xquery import ast, compile_query, unparse
from .compose import scenario_profiles
from .dsl import SCENARIO_NUMBER_BASE, ScenarioSpec, generate_specs
from .gold import ScenarioEvaluator, derive_gold

if TYPE_CHECKING:  # pragma: no cover
    from ..systems.base import IntegrationSystem


# --------------------------------------------------------------------------- #
# Query synthesis
# --------------------------------------------------------------------------- #

def _column(name: str, variable: str = "b") -> ast.PathExpr:
    return ast.PathExpr(ast.VarRef(variable),
                        (ast.Step("child", "element", name),))


def _course_source(slug: str) -> ast.PathExpr:
    return ast.PathExpr(
        ast.FunctionCall("doc", (ast.Literal(f"{slug}.xml"),)),
        (ast.Step("child", "element", slug),
         ast.Step("child", "element", "Course")))


def synthesize_xquery(spec: ScenarioSpec) -> str:
    """The runnable FLWOR query for *spec*, against the reference schema.

    Mirrors the paper's idiom: ``doc(...)`` over the reference source, a
    SQL-LIKE title filter, plus one further predicate per composed kind
    that constrains an attribute the reference renders (meeting time,
    credit hours, prerequisites).  The text round-trips through
    :func:`repro.xquery.compile_query` before it is returned.
    """
    slug = spec.reference_slug
    source = _course_source(slug)
    conditions: list[ast.Expr] = [
        ast.Comparison("=", _column("Title"),
                       ast.Literal(f"%{spec.topic}%")),
    ]
    if Capability.VALUE_TRANSFORM in spec.kinds:
        # The reference clock is 12-hour; generated meetings all start in
        # the 8:00-19:59 window, so '10:00 - ' is unambiguous.
        conditions.append(ast.Comparison("=", _column("Time"),
                                         ast.Literal("%10:00 - %")))
    if Capability.COMPLEX_TRANSFORM in spec.kinds:
        conditions.append(ast.Comparison(">", _column("Credits"),
                                         ast.Literal(6.0)))
    if Capability.INFERENCE in spec.kinds:
        conditions.append(ast.Comparison("=", _column("Prerequisite"),
                                         ast.Literal("None")))
    flwor = ast.FLWOR(
        clauses=(ast.ForClause("b", source),),
        where=reduce(lambda left, right: ast.Logical("and", left, right),
                     conditions),
        returns=ast.VarRef("b"))
    text = unparse(flwor)
    compile_query(text)  # synthesis must always yield a parsable query
    return text


def synthesize_join_xquery(spec: ScenarioSpec,
                           other: ScenarioSpec | None = None) -> str:
    """A two-source equi-join variant of *spec* for the join harness.

    Joins the reference catalog of *spec* against the reference catalog
    of *other* (or against itself when ``other`` is None) on ``Title``,
    with the spec's topic LIKE filter on the left side — the shape the
    cost planner turns into a :class:`~repro.xquery.plan.JoinGroupOp`.
    Not used for gold scoring: the join smoke harness executes it
    differentially (costed hash-join vs forced nested-loop vs the
    interpreter), so no derived answer is needed.  Like
    :func:`synthesize_xquery`, the text must round-trip through the
    compiler before it is returned.
    """
    left = _course_source(spec.reference_slug)
    right = _course_source((other or spec).reference_slug)
    where = ast.Logical(
        "and",
        ast.Comparison("=", _column("Title"),
                       ast.Literal(f"%{spec.topic}%")),
        ast.Comparison("=", _column("Title"), _column("Title", "c")))
    flwor = ast.FLWOR(
        clauses=(ast.ForClause("b", left), ast.ForClause("c", right)),
        where=where,
        returns=_column("Code", "c"))
    text = unparse(flwor)
    compile_query(text)  # synthesis must always yield a parsable query
    return text


# --------------------------------------------------------------------------- #
# The query object
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ScenarioQuery(BenchmarkQuery):
    """A generated benchmark query; runner-compatible, spec-aware."""

    spec: ScenarioSpec | None = None
    case_id: str = ""

    @property
    def tier(self) -> str:
        assert self.spec is not None
        return self.spec.tier

    def derive_gold(self, testbed: Testbed) -> Answer:
        """Gold-answer hook :func:`repro.core.answers.gold_answer` calls."""
        assert self.spec is not None
        return derive_gold(self.spec, testbed)


def scenario_query(spec: ScenarioSpec, index: int) -> ScenarioQuery:
    """Build the runnable query for one spec."""
    required = spec.required_capabilities
    xquery = synthesize_xquery(spec)
    return ScenarioQuery(
        number=SCENARIO_NUMBER_BASE + index,
        name=f"Scenario {spec.digest[:10]}",
        capability=required[0],
        group=spec.groups[0],
        reference=spec.reference_slug,
        challenge=spec.challenge_slug,
        xquery=xquery,
        paper_query=xquery,
        challenge_description=spec.describe(),
        evaluate=ScenarioEvaluator(spec),
        secondary_capabilities=required[1:],
        spec=spec,
        case_id=f"S{index:04d}",
    )


# --------------------------------------------------------------------------- #
# The suite
# --------------------------------------------------------------------------- #

@dataclass
class ScenarioSuite:
    """A generated benchmark: queries plus the seed that names them."""

    seed: int
    queries: list[ScenarioQuery] = field(default_factory=list)
    tier: str | None = None

    @classmethod
    def generate(cls, seed: int, cases: int,
                 tier: str | None = None) -> "ScenarioSuite":
        specs = generate_specs(seed, cases, tier=tier)
        return cls(seed=seed, tier=tier,
                   queries=[scenario_query(spec, index)
                            for index, spec in enumerate(specs)])

    @property
    def numbers(self) -> list[int]:
        return [query.number for query in self.queries]

    def tier_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for query in self.queries:
            histogram[query.tier] = histogram.get(query.tier, 0) + 1
        return histogram

    def build_testbed(self, scale: int = 1) -> Testbed:
        """Build every case's source pair through the one build pipeline
        (:func:`repro.catalogs.build_testbed`, uncached).

        ``scale`` multiplies each generated catalog exactly like the
        canonical testbed's scale tier (``scale=1`` stays byte-identical
        to builds from before the parameter existed).
        """
        profiles = []
        for query in self.queries:
            assert query.spec is not None
            profiles.extend(scenario_profiles(query.spec))
        return build_testbed(self.seed, universities=profiles, scale=scale)

    def run(self, system: "IntegrationSystem",
            testbed: Testbed) -> ScoreCard:
        return run_benchmark(system, testbed, queries=self.queries)

    # -- self-checks ------------------------------------------------------- #

    def check_query_agreement(self, testbed: Testbed) -> list[str]:
        """Execute every synthesized XQuery; compare to the derived gold.

        The reference query can only see the reference source, so the
        comparison is against the gold answer's reference half — the same
        equivalence the canonical twelve maintain (and the naive baseline
        exploits).  Returns a list of problems, empty when all agree.
        """
        problems: list[str] = []
        for query in self.queries:
            assert query.spec is not None
            gold = derive_gold(query.spec, testbed)
            expected = {row[1] for row in gold if row[0] == query.reference}
            document = testbed.source(query.reference).document
            result = compile_query(query.xquery).execute(
                {query.reference: document})
            produced = {item.findtext("Code") for item in result}
            if produced != expected:
                problems.append(
                    f"{query.case_id} ({query.spec.describe()}): query "
                    f"recovered {sorted(map(str, produced))}, gold "
                    f"reference half is {sorted(expected)}")
        return problems

    def check_system_agreement(
            self, systems: "Iterable[IntegrationSystem]",
            testbed: Testbed) -> list[str]:
        """Score *systems*; flag any supported ⇎ correct disagreement.

        A generated scenario is only honest if the capability model
        *predicts* the executed outcome: systems claiming the needed
        capabilities answer correctly, systems lacking any of them
        produce a degraded (wrong) answer.  The full mediator must get
        everything right.  Cards are additionally re-scored through
        :func:`repro.core.scoring.validate_claims` with this suite's
        query numbers.
        """
        problems: list[str] = []
        allowed = self.numbers
        for system in systems:
            card = self.run(system, testbed)
            for query in self.queries:
                outcome = card.outcome(query.number)
                if outcome.supported != outcome.correct:
                    verdict = ("supported but wrong" if outcome.supported
                               else "unsupported yet correct")
                    problems.append(
                        f"{system.name} on {query.case_id} "
                        f"({query.spec.describe()}): {verdict}")
            problems.extend(
                f"{system.name}: {problem}"
                for problem in validate_claims(card, numbers=allowed))
        return problems


__all__ = [
    "ScenarioQuery",
    "ScenarioSuite",
    "scenario_query",
    "synthesize_join_xquery",
    "synthesize_xquery",
]
