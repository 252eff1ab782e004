"""Durable honor-roll store tests."""

from repro.core import QueryOutcome, ScoreCard
from repro.integration import Effort
from repro.server import HonorRollStore


def make_card(name, correct, effort=Effort.LOW):
    card = ScoreCard(system=name)
    for number in range(1, 13):
        good = number <= correct
        card.outcomes.append(QueryOutcome(
            number=number, supported=good, correct=good,
            effort=effort if good else None))
    return card


class TestAppendAndRank:
    def test_append_persists_one_line_per_submission(self, tmp_path):
        store = HonorRollStore(tmp_path / "roll.jsonl")
        store.append(make_card("a", 3), "alice")
        store.append(make_card("b", 7), "bob")
        lines = (tmp_path / "roll.jsonl").read_text().splitlines()
        assert len(lines) == 2

    def test_ranked_uses_paper_rule(self, tmp_path):
        store = HonorRollStore(tmp_path / "roll.jsonl")
        store.append(make_card("weak", 3), "alice")
        store.append(make_card("strong", 11), "bob")
        assert [e.card.system for e in store.ranked()] == ["strong", "weak"]

    def test_resubmission_replaces_for_ranking(self, tmp_path):
        store = HonorRollStore(tmp_path / "roll.jsonl")
        store.append(make_card("sys", 3), "alice")
        store.append(make_card("sys", 10), "alice")
        assert len(store) == 1                  # one system on the roll
        assert len(store.submissions) == 2      # full history retained
        assert store.ranked()[0].card.correct_count == 10

    def test_revision_bumps_per_append(self, tmp_path):
        store = HonorRollStore(tmp_path / "roll.jsonl")
        before = store.revision
        store.append(make_card("sys", 5), "a")
        assert store.revision == before + 1


class TestPersistence:
    def test_reopen_replays_history(self, tmp_path):
        path = tmp_path / "roll.jsonl"
        first = HonorRollStore(path)
        first.append(make_card("a", 9, effort=Effort.MEDIUM), "alice",
                     date="2004-05-05")
        first.append(make_card("b", 12, effort=Effort.NONE), "bob")
        reopened = HonorRollStore(path)
        assert [e.card.system for e in reopened.ranked()] == ["b", "a"]
        assert reopened.ranked()[1].date == "2004-05-05"
        assert reopened.skipped_lines == 0

    def test_missing_file_is_empty_store(self, tmp_path):
        store = HonorRollStore(tmp_path / "absent.jsonl")
        assert len(store) == 0
        assert store.ranked() == []

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "roll.jsonl"
        store = HonorRollStore(path)
        store.append(make_card("a", 6), "alice")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"system": "b", "outcom')   # crash mid-append
        reopened = HonorRollStore(path)
        assert [e.card.system for e in reopened.ranked()] == ["a"]
        assert reopened.skipped_lines == 1

    def test_site_generator_renders_from_store(self, tmp_path,
                                               paper_testbed):
        from repro.website import SiteGenerator

        store = HonorRollStore(tmp_path / "roll.jsonl")
        store.append(make_card("StoredSystem", 8), "carol")
        page = SiteGenerator(paper_testbed,
                             honor_roll=store).render_page("honor_roll.html")
        assert "StoredSystem" in page

    def test_empty_store_page_matches_empty_roll(self, tmp_path,
                                                 paper_testbed):
        """The satellite guarantee: empty store ⇒ byte-identical page."""
        from repro.core import HonorRoll
        from repro.website import SiteGenerator

        store_page = SiteGenerator(
            paper_testbed,
            honor_roll=HonorRollStore(tmp_path / "roll.jsonl"),
        ).render_page("honor_roll.html")
        roll_page = SiteGenerator(
            paper_testbed, honor_roll=HonorRoll()).render_page(
            "honor_roll.html")
        assert store_page == roll_page


class TestCurrentRoll:
    def test_reads_never_replay_the_history(self, tmp_path, monkeypatch):
        """``ranked()`` and ``len()`` read the current roll: after 200
        uploads they submit nothing."""
        from repro.core import HonorRoll

        store = HonorRollStore(tmp_path / "roll.jsonl")
        for upload in range(200):
            store.append(make_card(f"sys{upload % 7}", upload % 13), "a")
        calls = []
        submit = HonorRoll.submit

        def counting_submit(self, *args, **kwargs):
            calls.append(args)
            return submit(self, *args, **kwargs)

        monkeypatch.setattr(HonorRoll, "submit", counting_submit)
        assert len(store.ranked()) == 7
        assert len(store) == 7
        assert calls == []
        assert store.revision == len(store.submissions) == 200

    def test_ranking_matches_a_replay_ties_included(self, tmp_path):
        """Resubmissions move a system to the end of the roll, as a
        replay does, so equal scores rank in the same order."""
        from repro.core import HonorRoll

        path = tmp_path / "roll.jsonl"
        store = HonorRollStore(path)
        uploads = [("a", 5), ("b", 5), ("c", 7), ("a", 5), ("d", 5),
                   ("c", 5), ("b", 5)]
        replay = HonorRoll()
        for system, correct in uploads:
            store.append(make_card(system, correct), "alice")
            replay.submit(make_card(system, correct), "alice")
        expected = [entry.card.system for entry in replay.ranked()]
        assert [entry.card.system for entry in store.ranked()] == expected
        reopened = HonorRollStore(path)
        assert [entry.card.system
                for entry in reopened.ranked()] == expected
        assert reopened.revision == store.revision == len(uploads)
