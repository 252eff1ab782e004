"""Client-chosen keys cannot grow the service's memory: explains, honor
roll reads and scenario packs stay within their cache bounds."""

import json

import pytest

from repro.server import ThaliaApp
from repro.server.app import MAX_SCENARIO_PACKS
from repro.server.cache import MAX_BYTES, MAX_ENTRIES
from repro.server.router import Request


def post(app, path, payload):
    return app.handle(Request(
        method="POST", path=path,
        headers={"content-type": "application/json"},
        body=json.dumps(payload).encode("utf-8")))


def get(app, path):
    return app.handle(Request(method="GET", path=path))


@pytest.fixture
def app(paper_testbed, tmp_path):
    application = ThaliaApp(testbed=paper_testbed,
                            scores_path=tmp_path / "roll.jsonl")
    yield application
    application.close()


def _explain(n: int) -> dict:
    return {"xquery": f"doc('cmu.xml')/cmu/Course[CourseNum = '{n}']"}


class TestExplainBound:
    def test_distinct_explains_stay_within_the_bounds(self, app):
        first = post(app, "/api/explain", _explain(0))
        for n in range(1, MAX_ENTRIES + 16):
            assert post(app, "/api/explain", _explain(n)).status == 200
        stats = app.cache.stats()
        assert stats["entries"] <= MAX_ENTRIES
        assert stats["bytes"] <= MAX_BYTES
        assert stats["evictions"] > 0
        # The first explain was evicted; rebuilt, it is byte-identical.
        again = post(app, "/api/explain", _explain(0))
        assert again.body == first.body
        assert again.headers["ETag"] == first.headers["ETag"]
        assert not again.cache_hit


class _CountedKey(str):
    """A cache-key part that counts every comparison made against it."""

    compared = 0

    def __eq__(self, other):
        _CountedKey.compared += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


class TestHonorRollReads:
    @staticmethod
    def _keys_one_read_touches(app, explains: int) -> int:
        for n in range(explains):
            app.cache.get_or_build((_CountedKey("explain"), str(n)),
                                   lambda: (b"{}", "application/json"))
        assert get(app, "/api/honor-roll").status == 200   # build
        _CountedKey.compared = 0
        assert get(app, "/api/honor-roll").status == 200   # replay
        return _CountedKey.compared

    def test_cached_read_touches_no_other_key(self, paper_testbed,
                                              tmp_path):
        counts = []
        for explains in (0, 2000):
            app = ThaliaApp(testbed=paper_testbed,
                            scores_path=tmp_path / f"roll{explains}.jsonl")
            counts.append(self._keys_one_read_touches(app, explains))
            app.close()
        assert counts[0] == counts[1]


class TestScenarioPackBodies:
    def test_no_more_bodies_than_packs_held(self, app):
        for seed in range(MAX_SCENARIO_PACKS + 4):
            created = post(app, "/api/scenarios", {"seed": seed, "cases": 1})
            assert created.status == 201
            url = json.loads(created.body.decode("utf-8"))["url"]
            assert get(app, url).status == 200
        # Only scenario traffic reached this app, so every content-cache
        # entry would be a second copy of some pack's body.
        held = len(app.scenario_packs) + app.cache.stats()["entries"]
        assert held <= MAX_SCENARIO_PACKS
