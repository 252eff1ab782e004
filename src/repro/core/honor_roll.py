"""The honor roll: uploaded benchmark scores, ranked (paper §2.2).

The THALIA web site "invite[s] users of the benchmark to upload their
benchmark scores ('Upload Your Scores') which can be viewed by anybody
using the 'Honor Roll' button". This module is that persistence layer: a
JSON-backed store of submitted :class:`ScoreCard` results with the paper's
ranking rule applied on display.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .scoring import ScoreCard, rank


@dataclass(frozen=True)
class HonorRollEntry:
    """One uploaded score."""

    card: ScoreCard
    submitter: str
    date: str                  # ISO date string supplied by the submitter

    def to_dict(self) -> dict:
        return {
            "system": self.card.system,
            "submitter": self.submitter,
            "date": self.date,
            "outcomes": [o.to_dict() for o in self.card.outcomes],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "HonorRollEntry":
        card = ScoreCard.from_dict(
            {"system": raw["system"], "outcomes": raw["outcomes"]})
        return cls(card=card, submitter=raw["submitter"], date=raw["date"])


class HonorRoll:
    """Ranked store of submitted benchmark scores."""

    def __init__(self) -> None:
        self._entries: list[HonorRollEntry] = []

    def submit(self, card: ScoreCard, submitter: str,
               date: str = "2004-08-01") -> HonorRollEntry:
        """Upload a score; replaces an earlier entry for the same system."""
        entry = HonorRollEntry(card=card, submitter=submitter, date=date)
        self._entries = [e for e in self._entries
                         if e.card.system != card.system]
        self._entries.append(entry)
        return entry

    def ranked(self) -> list[HonorRollEntry]:
        ordered_cards = rank([entry.card for entry in self._entries])
        by_system = {entry.card.system: entry for entry in self._entries}
        return [by_system[card.system] for card in ordered_cards]

    def __len__(self) -> int:
        return len(self._entries)

    # -- persistence ------------------------------------------------------#

    def save(self, path: str | Path) -> Path:
        payload = [entry.to_dict() for entry in self._entries]
        target = Path(path)
        target.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "HonorRoll":
        roll = cls()
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        for raw in payload:
            entry = HonorRollEntry.from_dict(raw)
            roll.submit(entry.card, entry.submitter, entry.date)
        return roll

    def render(self) -> str:
        """The honor-roll table as plain text."""
        lines = ["THALIA Honor Roll", "=" * 56]
        for position, entry in enumerate(self.ranked(), start=1):
            card = entry.card
            lines.append(
                f"{position:>2}. {card.system:<20} "
                f"{card.correct_count:>2}/12 correct, "
                f"complexity {card.complexity_score:>2}  "
                f"({entry.submitter}, {entry.date})")
        if len(self) == 0:
            lines.append("  (no scores uploaded yet)")
        return "\n".join(lines)
