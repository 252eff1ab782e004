"""Durable honor-roll store: append-only JSON lines.

The static site renders an in-memory
:class:`~repro.core.honor_roll.HonorRoll`; the benchmark service needs
uploads to survive restarts.  This store appends one JSON object per
accepted submission to a ``.jsonl`` file (flushed and fsynced before the
client sees a 201), and replays the file once, on boot.  It keeps only
the *current* roll in memory and updates it through
:meth:`HonorRoll.submit` on every append, in upload order — exactly the
replay's replacement semantics (a later upload for the same system
replaces the earlier one), so ranking, ties included, matches a replay
of the file while reads cost O(systems), not O(uploads ever).  A torn
final line from a crash mid-append is skipped, not fatal.

The store satisfies the site generator's
:class:`~repro.website.sitegen.RankedScores` protocol, so
``SiteGenerator`` renders its honor-roll page straight from the durable
store and the live server and the static site share one rendering.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from ..core.honor_roll import HonorRoll, HonorRollEntry
from ..core.scoring import ScoreCard


class HonorRollStore:
    """Thread-safe JSON-lines persistence for uploaded score cards."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._roll = HonorRoll()
        history, self.skipped_lines = self._read()
        for entry in history:
            self._roll.submit(entry.card, entry.submitter, entry.date)
        #: submissions so far, bumped on every append; cache keys for
        #: honor-roll views embed it so uploaded scores invalidate cached
        #: pages immediately
        self.revision = len(history)

    def _read(self) -> tuple[list[HonorRollEntry], int]:
        """The submissions on file, in upload order, and the count of
        unreadable lines skipped."""
        if not self.path.exists():
            return [], 0
        entries: list[HonorRollEntry] = []
        skipped = 0
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(HonorRollEntry.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                skipped += 1
        return entries, skipped

    # -- writes ----------------------------------------------------------- #

    def append(self, card: ScoreCard, submitter: str,
               date: str = "2004-08-01") -> HonorRollEntry:
        """Durably record one accepted submission."""
        entry = HonorRollEntry(card=card, submitter=submitter, date=date)
        line = json.dumps(entry.to_dict(), sort_keys=True)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self._roll.submit(card, submitter, date)
            self.revision += 1
        return entry

    # -- reads ------------------------------------------------------------ #

    @property
    def submissions(self) -> list[HonorRollEntry]:
        """Raw submission history, in upload order (resubmissions kept),
        read from the file on demand."""
        with self._lock:
            return self._read()[0]

    def ranked(self) -> list[HonorRollEntry]:
        with self._lock:
            return self._roll.ranked()

    def __len__(self) -> int:
        """Distinct systems on the roll (not raw submission count)."""
        with self._lock:
            return len(self._roll)
