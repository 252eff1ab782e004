"""Answer checking, run after the timed window closes.

Query answers are compared with a direct in-process
``compile_query(text).execute(...)`` over a testbed built here with the
server's seed and scale (the reply's ``plan`` timings and ``cached``
flag are not compared).  The honor roll is compared with a replay of
every accepted upload through :class:`repro.core.HonorRoll`.
"""

from __future__ import annotations

import json


class Verifier:
    """Expected answers for one (seed, scale) testbed, memoized."""

    def __init__(self, scale: int) -> None:
        from repro.catalogs import build_testbed

        self.testbed = build_testbed(scale=scale)
        self._answers: dict[str, list] = {}

    def answer(self, xquery: str) -> list:
        """The reply ``items`` the server must send for this query."""
        if xquery not in self._answers:
            from repro.xmlmodel import XmlElement, serialize
            from repro.xquery.plan import compile_query

            items = compile_query(xquery).execute(self.testbed.documents)
            rendered = [serialize(item) if isinstance(item, XmlElement)
                        else item for item in items]
            self._answers[xquery] = json.loads(json.dumps(rendered))
        return self._answers[xquery]

    def _matches(self, reply: dict, xquery: str) -> bool:
        items = self.answer(xquery)
        return reply.get("count") == len(items) \
            and reply.get("items") == items

    def reply_ok(self, kind: str, check, body: bytes) -> bool:
        """Whether one kept query or batch reply is correct."""
        try:
            reply = json.loads(body)
        except ValueError:
            return False
        if kind == "batch":
            results = reply.get("results")
            return isinstance(results, list) and len(results) == len(check) \
                and all(result.get("status") == 200
                        and self._matches(result, item)
                        for result, item in zip(results, check))
        return self._matches(reply, check)

    @staticmethod
    def honor_roll(uploads: list[tuple]) -> list[dict]:
        """``/api/honor-roll`` after *uploads* were accepted in order."""
        from repro.core import HonorRoll
        from repro.core.scoring import ScoreCard

        roll = HonorRoll()
        for card, submitter, date in uploads:
            roll.submit(ScoreCard.from_dict(card), submitter, date)
        return [{
            "rank": position,
            "system": entry.card.system,
            "correct": entry.card.correct_count,
            "complexity": entry.card.complexity_score,
            "no_code": entry.card.no_code_count,
            "submitter": entry.submitter,
            "date": entry.date,
        } for position, entry in enumerate(roll.ranked(), start=1)]


def wrong_replies(verifier: Verifier, kept: dict[tuple, int]
                  ) -> list[tuple[int, str]]:
    """``(times received, description)`` of every distinct wrong reply
    among the kept ones; each distinct body is checked once."""
    wrong = []
    for (check, body), times in kept.items():
        kind = "batch" if isinstance(check, tuple) else "query"
        if not verifier.reply_ok(kind, check, body):
            wrong.append((times, f"wrong {kind} answer for {check!r}: "
                                 f"{body[:300]!r}"))
    return wrong
