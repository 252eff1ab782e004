"""PlanCache: LRU behavior, fingerprint keying, templates, stats."""

import json
import sys
import threading

import pytest

from repro.server import ThaliaApp
from repro.server.router import Request
from repro.xquery import (
    PlanCache,
    XQuerySyntaxError,
    collect_statistics,
    compile_query,
    shared_plan_cache,
)
from repro.xquery import plan as plan_module
from repro.xquery.differential import render
from repro.xquery.functions import builtin_registry
from repro.xquery.parser import parse_query


class TestLookups:
    def test_hit_returns_same_plan_object(self):
        cache = PlanCache()
        first = cache.get("1 < 2")
        second = cache.get("1 < 2")
        assert first is second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_distinct_sources_get_distinct_plans(self):
        cache = PlanCache()
        assert cache.get("1 < 2") is not cache.get("2 < 3")
        assert len(cache) == 2

    def test_contains_by_source(self):
        cache = PlanCache()
        cache.get("1 < 2")
        assert "1 < 2" in cache
        assert "2 < 3" not in cache


class TestFingerprintKeying:
    def test_equivalent_registries_share_entries(self):
        cache = PlanCache()
        first = cache.get("1 < 2", builtin_registry())
        second = cache.get("1 < 2", builtin_registry())
        assert first is second

    def test_rebinding_a_function_splits_the_key(self):
        cache = PlanCache()
        plain = cache.get("upper-case('a')")
        patched = builtin_registry()
        patched.register("upper-case", lambda ctx, args: ["nope"], arity=1)
        custom = cache.get("upper-case('a')", patched)
        assert plain is not custom
        assert plain.execute({}) == ["A"]
        assert custom.execute({}) == ["nope"]


class TestEviction:
    def test_lru_evicts_least_recently_used(self):
        cache = PlanCache(maxsize=2)
        cache.get("1")
        cache.get("2")
        cache.get("1")          # refresh 1; 2 is now LRU
        cache.get("3")          # evicts 2
        assert "1" in cache
        assert "2" not in cache
        assert "3" in cache
        assert cache.stats()["evictions"] == 1

    def test_evicted_entry_recompiles_as_miss(self):
        cache = PlanCache(maxsize=1)
        first = cache.get("1")
        cache.get("2")
        again = cache.get("1")
        assert again is not first
        assert cache.stats()["misses"] == 3

    def test_size_never_exceeds_maxsize(self):
        cache = PlanCache(maxsize=3)
        for n in range(10):
            cache.get(str(n))
        assert len(cache) == 3
        assert cache.stats()["entries"] == 3

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestShared:
    def test_shared_cache_is_a_singleton(self):
        assert shared_plan_cache() is shared_plan_cache()

    def test_clear_resets_counters(self):
        cache = PlanCache()
        cache.get("1")
        cache.get("1")
        cache.clear()
        stats = cache.stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 0)

    def test_entries_lists_plans_lru_order(self):
        cache = PlanCache()
        a = cache.get("1")
        b = cache.get("2")
        cache.get("1")
        assert cache.values() == [b, a]


# --------------------------------------------------------------------------- #
# Template layer
# --------------------------------------------------------------------------- #

LIKE_QUERY = ("for $b in doc('cmu.xml')/cmu/Course "
              "where $b/CourseTitle = {} return $b/CourseNum")


@pytest.fixture
def parses(monkeypatch):
    """Texts passed to the parser by compiles (not by this test)."""
    calls = []
    original = plan_module.parse_query

    def counted(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(plan_module, "parse_query", counted)
    return calls


@pytest.fixture(scope="module")
def scope(paper_testbed):
    return paper_testbed.document_resolver(), collect_statistics(
        paper_testbed.documents,
        fingerprint=paper_testbed.content_fingerprint())


def _same_as_fresh(plan, statistics=None):
    fresh = compile_query(plan.source, statistics=statistics)
    assert plan.explain_data() == fresh.explain_data()
    assert plan.decisions == fresh.decisions
    assert plan.rewrites == fresh.rewrites
    assert plan.fingerprint == fresh.fingerprint
    assert plan.identity == fresh.identity
    return fresh


class TestTemplates:
    def test_texts_differing_in_one_literal_share_a_template(self, parses):
        cache = PlanCache()
        first = cache.get(LIKE_QUERY.format("'%Data%'"))
        second = cache.get(LIKE_QUERY.format("'%Software%'"))
        assert len(parses) == 1
        templates = cache.templates.stats()
        assert (templates["entries"], templates["hits"],
                templates["misses"]) == (1, 1, 1)
        assert second is not first
        assert second.source == LIKE_QUERY.format("'%Software%'")
        _same_as_fresh(second)
        assert second.ast == parse_query(second.source)

    def test_a_repeated_bound_text_is_an_exact_hit(self):
        cache = PlanCache()
        cache.get(LIKE_QUERY.format("'%Data%'"))
        bound = cache.get(LIKE_QUERY.format("'%Soft%'"))
        assert cache.get(LIKE_QUERY.format("'%Soft%'")) is bound
        assert cache.templates.stats()["lookups"] == 2

    def test_bound_costed_plans_answer_and_explain_as_fresh_ones(self,
                                                                  scope):
        documents, statistics = scope
        cache = PlanCache()
        texts = [LIKE_QUERY.format(literal) for literal in
                 ("'%Data%'", "'%Dat_ %'", "'%zzz%'", "'%'")]
        texts.append(texts[0].replace("for ", "FOR ").replace(
            "where ", "WHERE   "))
        for text in texts:
            plan = cache.get(text, statistics=statistics)
            fresh = _same_as_fresh(plan, statistics)
            assert render(plan.execute(documents)) \
                == render(fresh.execute(documents))
        assert cache.templates.stats()["hits"] == len(texts) - 1

    @pytest.mark.parametrize("first, second", [
        (LIKE_QUERY.format("'%Data%'"),
         LIKE_QUERY.format("'%Data%'").replace("cmu", "gatech")),
        (LIKE_QUERY.format("'%Data%'"),
         LIKE_QUERY.format("'Database Systems'")),
        ("for $b in doc('cmu.xml')/cmu/Course "
         "where $b/Units > 9 and $b/Day = 'F' return $b/CourseNum",
         "for $b in doc('cmu.xml')/cmu/Course "
         "where $b/Units > 11 and $b/Day = 'F' return $b/CourseNum"),
    ], ids=["doc-argument", "like-vs-plain", "number"])
    def test_a_different_key_literal_makes_its_own_template(
            self, scope, first, second):
        documents, statistics = scope
        cache = PlanCache()
        for text in (first, second):
            plan = cache.get(text, statistics=statistics)
            fresh = _same_as_fresh(plan, statistics)
            assert render(plan.execute(documents)) \
                == render(fresh.execute(documents))
        templates = cache.templates.stats()
        assert (templates["entries"], templates["hits"]) == (2, 0)

    def test_folded_literals_make_no_template(self, parses):
        cache = PlanCache()
        assert cache.get("'a' = 'a'").execute({}) == [True]
        # The shape's first text tried the template (one parse) and
        # compiled in full (another); the held "no template" spares the
        # second text the try.
        assert len(parses) == 2
        assert cache.get("'a' = 'b'").execute({}) == [False]
        assert len(parses) == 3
        templates = cache.templates.stats()
        assert (templates["entries"], templates["hits"]) == (1, 1)
        assert cache.templates.values() == [None]

    def test_a_candidate_that_is_not_a_direct_operand_makes_no_template(
            self):
        # '1' sits beside '=' but is an operand of the (folded) '+'.
        cache = PlanCache()
        assert cache.get("2 = '1' + 1").execute({}) == [True]
        assert cache.get("2 = '5' + 1").execute({}) == [False]
        assert cache.templates.values() == [None]

    def test_literals_inside_a_sequence_stay_in_the_key(self):
        cache = PlanCache()
        assert cache.get("'c' = ('a', 'b')").execute({}) == [False]
        assert cache.get("'b' = ('a', 'b')").execute({}) == [True]
        assert cache.get("'b' = ('a', 'x')").execute({}) == [False]
        templates = cache.templates.stats()
        assert (templates["entries"], templates["hits"]) == (2, 1)

    def test_repeated_literal_values_share_the_template(self, scope):
        documents, statistics = scope
        cache = PlanCache()
        text = ("for $b in doc('cmu.xml')/cmu/Course "
                "where $b/Day = {} and $b/Lecturer != {} "
                "return $b/CourseNum")
        # Slots are found by position, so a text whose slot values repeat
        # builds the template as well as any other text of its shape.
        for literals in (("'F'", "'F'"), ("'F'", "'Ailamaki'"),
                         ("'TTh'", "'TTh'")):
            bound = cache.get(text.format(*literals), statistics=statistics)
            fresh = _same_as_fresh(bound, statistics)
            assert render(bound.execute(documents)) \
                == render(fresh.execute(documents))
        templates = cache.templates.stats()
        assert (templates["entries"], templates["hits"]) == (1, 2)
        assert cache.templates.values()[0] is not None

    def test_a_literal_equal_to_a_kept_one_binds_its_own_slot(self):
        # 'F' in the sequence stays in the key; the slot 'F' beside '='
        # is bound alone.
        cache = PlanCache()
        text = "{} = ('F', 'x')"
        assert cache.get(text.format("'F'")).execute({}) == [True]
        assert cache.get(text.format("'G'")).execute({}) == [False]
        assert cache.get(text.format("'x'")).execute({}) == [True]
        assert cache.templates.stats()["hits"] == 2
        assert cache.templates.values()[0] is not None

    def test_lexing_errors_raise_at_the_same_location(self):
        text = LIKE_QUERY.format("'%Data%") + " $"
        with pytest.raises(XQuerySyntaxError) as direct:
            compile_query(text)
        with pytest.raises(XQuerySyntaxError) as cached:
            PlanCache().get(text)
        assert str(cached.value) == str(direct.value)
        assert (cached.value.line, cached.value.column) \
            == (direct.value.line, direct.value.column)

    def test_syntax_errors_raise_as_a_compile_would(self):
        text = LIKE_QUERY.format("'%Data%'").replace("return", "return (")
        cache = PlanCache()
        for _ in range(2):
            with pytest.raises(XQuerySyntaxError) as direct:
                compile_query(text)
            with pytest.raises(XQuerySyntaxError) as cached:
                cache.get(text)
            assert str(cached.value) == str(direct.value)
        assert cache.templates.values() == [None]

    def test_clear_drops_templates(self):
        cache = PlanCache()
        cache.get(LIKE_QUERY.format("'%Data%'"))
        cache.clear()
        assert cache.templates.stats()["entries"] == 0


class TestConcurrentTemplates:
    def test_threads_binding_one_shape_each_get_their_own_plan(self, scope):
        documents, statistics = scope
        cache = PlanCache()
        words = [f"{word}{suffix}" for word in ("Data", "Soft", "Sys", "Net")
                 for suffix in ("", "a", "b", "ware")]
        answers: dict[str, tuple] = {}

        def run(chunk):
            for word in chunk:
                plan = cache.get(LIKE_QUERY.format(f"'%{word}%'"),
                                 statistics=statistics)
                answers[word] = render(plan.execute(documents))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(words[i::8],))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(answers) == sorted(words)
        for word in words:
            fresh = compile_query(LIKE_QUERY.format(f"'%{word}%'"),
                                  statistics=statistics)
            assert answers[word] == render(fresh.execute(documents)), word
        assert cache.templates.stats()["entries"] == 1


class TestTemplateStats:
    def test_stats_report_a_templates_block(self, paper_testbed, tmp_path):
        app = ThaliaApp(testbed=paper_testbed,
                        scores_path=tmp_path / "roll.jsonl")
        try:
            for literal in ("'%Data%'", "'%Soft%'"):
                response = app.handle(Request(
                    method="POST", path="/api/query",
                    headers={"content-type": "application/json"},
                    body=json.dumps({"xquery": LIKE_QUERY.format(
                        literal)}).encode("utf-8")))
                assert response.status == 200
            stats = json.loads(app.handle(Request(
                method="GET", path="/api/stats")).body)["query_plans"]
        finally:
            app.close()
        assert set(stats["templates"]) == set(stats["cache"])
        assert stats["templates"]["entries"] == 1
        assert stats["templates"]["hits"] == 1
        assert stats["templates"]["maxsize"] == stats["cache"]["maxsize"]
