"""Seeded request streams for the serving benchmark's three workloads.

Each workload is a fixed mix of operation kinds dealt from a 100-card
deck that is reshuffled, with the workload seed, every 100 operations,
and each kind deals its queries from a pool the same way (see
:class:`Rotation`): the shares are exact, every pool member is sent
equally often, and only the order and the literals vary with the seed,
so two seeds put the same work in a run.  Every workload carries every
kind, because every end-to-end metric must be measured (and non-zero)
on every workload; the shares are what make a workload exercise its
layer.

* ``hot`` (scale 1): a fixed pool of 36 queries sent over and over, so
  every answer is a result-cache hit and time goes to transport,
  routing, encoding and the cache probe.
* ``cold`` (scale 8): every query text carries a seeded literal and is
  unique, so both the plan cache and the result cache miss and parse,
  compile, execute and serialize dominate; 1 in 50 operations is a
  two-``doc()`` self-join, which ``/api/query`` runs as a nested loop.
  One request in flight at a time.
* ``upload`` (scale 1): 30% fsynced score uploads and 30% honor-roll
  reads (re-rendered after every upload), the rest hot queries, one
  request in flight at a time.

The server only ever sees the generated requests; nothing here imports
the program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Iterator

#: Per workload: testbed scale and the kind deck (shares out of 100).
WORKLOADS = {
    "hot": {"scale": 1, "deck": {"query": 84, "batch": 10, "join": 2,
                                 "upload": 2, "page": 2}},
    # One request in flight at a time on cold and upload.  Two plan
    # executions must never run at once (see ``client.SERVE_ARGS``), and
    # a request beside a plan execution, a page render or an fsync
    # otherwise waits a whole 5 ms interpreter switch interval or not at
    # all: the page and upload latencies of both workloads flipped
    # between the two from run to run.
    "cold": {"scale": 8, "deck": {"query": 76, "batch": 10, "join": 2,
                                  "upload": 6, "page": 6},
             "exclusive": True},
    "upload": {"scale": 1, "deck": {"query": 34, "batch": 4, "join": 2,
                                    "upload": 30, "page": 30},
               "exclusive": True},
}

CONNECTIONS = 2
BATCH_ITEMS = 8

#: The twelve benchmark queries (reference source, XQuery), as published.
TWELVE = [
    ("gatech", 'FOR $b in doc("gatech.xml")/gatech/Course\n'
               "WHERE $b/Instructor = 'Mark'\nRETURN $b"),
    ("cmu", 'FOR $b in doc("cmu.xml")/cmu/Course\n'
            "WHERE $b/Time = '1:30%' and $b/CourseTitle = '%Database%'\n"
            "RETURN $b"),
    ("umd", 'FOR $b in doc("umd.xml")/umd/Course\n'
            "WHERE $b/CourseName = '%Data Structures%'\nRETURN $b"),
    ("cmu", 'FOR $b in doc("cmu.xml")/cmu/Course\n'
            "WHERE $b/Units > 10 and $b/CourseTitle = '%Database%'\n"
            "RETURN $b"),
    ("umd", 'FOR $b in doc("umd.xml")/umd/Course\n'
            "WHERE $b/CourseName = '%Database%'\nRETURN $b"),
    ("toronto", 'FOR $b in doc("toronto.xml")/toronto/course\n'
                "WHERE $b/title = '%Verification%'\nRETURN $b/text"),
    ("umich", 'FOR $b in doc("umich.xml")/umich/Course\n'
              "WHERE $b/prerequisite = 'None' and $b/title = '%Database%'\n"
              "RETURN $b"),
    ("gatech", 'FOR $b in doc("gatech.xml")/gatech/Course\n'
               "WHERE $b/Restricted = '%JR%' and $b/Title = '%Database%'\n"
               "RETURN $b"),
    ("brown", 'FOR $b in doc("brown.xml")/brown/Course\n'
              "WHERE $b/Title = '%Software Engineering%'\nRETURN $b/Room"),
    ("cmu", 'FOR $b in doc("cmu.xml")/cmu/Course\n'
            "WHERE $b/CourseTitle = '%Software%'\nRETURN $b/Lecturer"),
    ("cmu", 'FOR $b in doc("cmu.xml")/cmu/Course\n'
            "WHERE $b/CourseTitle = '%Database%'\nRETURN $b/Lecturer"),
    ("cmu", 'FOR $b in doc("cmu.xml")/cmu/Course\n'
            "WHERE $b/CourseTitle = '%Computer Networks%'\n"
            "RETURN $b/CourseTitle $b/Day $b/Time"),
]

#: (source, record path, key field, title field, person field).
SOURCES = [
    ("brown", "brown/Course", "CourseNum", "Title", "Instructor"),
    ("cmu", "cmu/Course", "CourseNum", "CourseTitle", "Lecturer"),
    ("gatech", "gatech/Course", "CourseNum", "Title", "Instructor"),
    ("toronto", "toronto/course", "code", "title", "instructor"),
    ("ucsd", "ucsd/Course", "CourseNum", "CourseTitle", None),
    ("umd", "umd/Course", "CourseNum", "CourseName", None),
    ("umass", "umass/Course", "CourseNum", "Name", "Instructor"),
    ("mit", "mit/Course", "Subject", "Name", "Lecturer"),
    ("stanford", "stanford/Course", "CourseID", "Title", "Instructor"),
    ("berkeley", "berkeley/Course", "CCN", "CourseTitle", "Instructor"),
    ("washington", "washington/Course", "Code", "CourseName", "Teacher"),
    ("wisconsin", "wisconsin/Course", "CourseNumber", "Title",
     "Professor"),
    ("uiuc", "uiuc/Course", "CRN", "CourseTitle", "Instructor"),
    ("cornell", "cornell/Course", "CourseNum", "LongTitle", "Staff"),
    ("princeton", "princeton/Course", "Listing", "Title", "Instructor"),
    ("caltech", "caltech/Course", "Number", "Name", "Instructor"),
    ("columbia", "columbia/Course", "CallNumber", "Title", "Faculty"),
    ("utexas", "utexas/Course", "UniqueNo", "CourseTitle", "Instructor"),
    ("purdue", "purdue/Course", "CourseNum", "Title", "Instructor"),
    ("ubc", "ubc/Course", "Section", "CourseTitle", "Instructor"),
]

WORDS = ("Database", "Software", "Systems", "Network", "Data", "Computer",
         "Programming", "Theory", "Design", "Introduction", "Advanced",
         "Algorithms", "Graphics", "Learning", "Security", "Engineering")

JOIN_SOURCES = [row for row in SOURCES if row[4] is not None]

#: Cold joins use the twelve sources added for scale, whose scale-8
#: self-joins cost within 30% of each other (the original sources range
#: over 3x), so the tail a join adds to other requests does not hinge on
#: which sources a run's last few joins happen to hit.
COLD_JOIN_SOURCES = SOURCES[8:]

#: Honor-roll systems: connection ``c`` uploads only systems ``j`` with
#: ``j % CONNECTIONS == c``, and system ``j`` always scores ``j + 1``
#: correct, so the final ranked roll does not depend on how the two
#: connections' uploads interleave.
SYSTEMS = 12
EFFORTS = {"NONE": 0, "LOW": 1, "MEDIUM": 2, "HIGH": 3}


@dataclass(frozen=True)
class Op:
    """One request.  ``check`` is what the answer is verified against:
    the XQuery text of a query, a tuple of them for a batch, the uploaded
    ``(card, submitter, date)`` for an upload."""

    kind: str
    method: str
    path: str
    body: bytes
    check: object = None
    keep: bool = False      # keep the reply body for checking
    exclusive: bool = False  # never in flight beside another one


def _selection(source: tuple, word: str, full: bool,
               nonce: str | None) -> str:
    slug, path, key, title, _ = source
    where = f"$c/{title} = '%{word}%'"
    if nonce is not None:
        where += f" and $c/{key} != 'n{nonce}'"
    returned = "$c" if full else f"$c/{title}"
    return (f'FOR $c IN doc("{slug}.xml")/{path}\n'
            f"WHERE {where}\nRETURN {returned}")


def _self_join(source: tuple, nonce: str | None) -> str:
    slug, path, key, _, person = source
    where = f"$a/{person} = $b/{person}"
    if nonce is not None:
        where += f" and $b/{key} != 'n{nonce}'"
    return (f'for $a in doc("{slug}.xml")/{path}, '
            f'$b in doc("{slug}.xml")/{path} '
            f"where {where} return $b/{key}")


def _twelve_variant(number: int, nonce: str) -> str:
    slug, text = TWELVE[number]
    key = {row[0]: row[2] for row in SOURCES}.get(slug, "title")
    return text.replace("WHERE ", f"WHERE $b/{key} != 'n{nonce}' and ", 1)


def hot_pool() -> tuple[list[str], list[str]]:
    """The hot workload's fixed (single queries, joins) pools."""
    singles = [text for _, text in TWELVE]
    for position, source in enumerate(SOURCES):
        singles.append(_selection(source, WORDS[position % len(WORDS)],
                                  full=position % 2 == 0, nonce=None))
    joins = [_self_join(source, None) for source in JOIN_SOURCES[:4]]
    return singles, joins


def _query_op(kind: str, xquery: str, keep: bool) -> Op:
    body = json.dumps({"xquery": xquery})
    return Op(kind, "POST", "/api/query", body.encode("utf-8"), xquery, keep)


def _batch_op(items: list[str], keep: bool) -> Op:
    body = json.dumps({"queries": [{"xquery": text} for text in items]})
    return Op("batch", "POST", "/api/query/batch", body.encode("utf-8"),
              tuple(items), keep)


def _upload_op(rng: random.Random, connection: int) -> Op:
    system = rng.randrange(SYSTEMS // CONNECTIONS) * CONNECTIONS + connection
    correct = set(rng.sample(range(1, 13), system + 1))
    outcomes, complexity = [], 0
    for number in range(1, 13):
        supported = number in correct or rng.random() < 0.3
        effort = rng.choice(tuple(EFFORTS)) if supported else None
        if number in correct:
            complexity += EFFORTS[effort]
        outcomes.append({"number": number, "supported": supported,
                         "correct": number in correct, "effort": effort,
                         "note": ""})
    card = {"system": f"BenchSystem{system:02d}", "outcomes": outcomes}
    submitter = f"bench-{connection}"
    date = f"2004-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    body = json.dumps({"submitter": submitter, "date": date,
                       "claimed": {"correct": len(correct),
                                   "complexity": complexity},
                       "card": card})
    return Op("upload", "POST", "/api/scores", body.encode("utf-8"),
              (card, submitter, date), True)


def _page_op(position: int) -> Op:
    # A fixed 1:2 split of HTML and JSON reads keeps page_p50 inside the
    # JSON mode and page_p90 inside the HTML mode, rather than on the
    # seam between them.
    path = "/honor-roll" if position % 3 == 0 else "/api/honor-roll"
    return Op("page", "GET", path, b"")


class Rotation:
    """Deals the members of *pool* in full cycles, each cycle in a fresh
    order drawn from *rng*.

    Query costs differ by up to 3x between sources at scale 8, so
    independent draws would put a different amount of work into each
    run; dealt cycles keep it the same for every seed.
    """

    def __init__(self, pool: list, rng: random.Random) -> None:
        self.pool = list(pool)
        self.rng = rng
        self.position = len(self.pool)

    def __next__(self):
        if self.position == len(self.pool):
            self.rng.shuffle(self.pool)
            self.position = 0
        self.position += 1
        return self.pool[self.position - 1]


#: Cold single-query templates: ``("twelve", number)`` or
#: ``("selection", source, whole record returned)``.
COLD_TEMPLATES = ([("twelve", number) for number in range(len(TWELVE))]
                  + [("selection", source, full) for source in SOURCES
                     for full in (True, False)])


class Stream:
    """The deterministic operation sequence of one connection."""

    def __init__(self, workload: str, seed: int, connection: int) -> None:
        self.workload = workload
        self.connection = connection
        self.rng = random.Random(f"{workload}:{seed}:{connection}")
        deck: list[str] = []
        for kind, share in WORKLOADS[workload]["deck"].items():
            deck.extend([kind] * share)
        self.deck = Rotation(deck, self.rng)
        self.count = 0
        self.pages = 0
        singles, joins = hot_pool()
        self.singles = Rotation(singles, self.rng)
        self.joins = Rotation(joins, self.rng)
        self.cold_templates = Rotation(COLD_TEMPLATES, self.rng)
        self.join_sources = Rotation(COLD_JOIN_SOURCES, self.rng)

    def _nonce(self) -> str:
        return f"{self.connection}x{self.count}"

    def _cold_single(self) -> str:
        rng = self.rng
        nonce = f"{self._nonce()}x{rng.randrange(1 << 30)}"
        template = next(self.cold_templates)
        if template[0] == "twelve":
            return _twelve_variant(template[1], nonce)
        return _selection(template[1], rng.choice(WORDS), template[2], nonce)

    def _make(self, kind: str) -> Op:
        rng = self.rng
        cold = self.workload == "cold"
        if kind == "query":
            if cold:
                return _query_op("query", self._cold_single(),
                                 keep=rng.random() < 0.04)
            return _query_op("query", next(self.singles), keep=True)
        if kind == "batch":
            if cold:
                return _batch_op([self._cold_single()
                                  for _ in range(BATCH_ITEMS)],
                                 keep=rng.random() < 0.1)
            return _batch_op([next(self.singles)
                              for _ in range(BATCH_ITEMS)], keep=True)
        if kind == "join":
            if cold:
                return _query_op("join", _self_join(next(self.join_sources),
                                                    self._nonce()),
                                 keep=rng.random() < 0.25)
            return _query_op("join", next(self.joins), keep=True)
        if kind == "upload":
            return _upload_op(rng, self.connection)
        self.pages += 1
        return _page_op(self.pages)

    def __iter__(self) -> Iterator[Op]:
        return self

    def __next__(self) -> Op:
        op = self._make(next(self.deck))
        if WORKLOADS[self.workload].get("exclusive"):
            op = replace(op, exclusive=True)
        self.count += 1
        return op


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """Untimed requests sent before the window: every hot query once (so
    the hot window only sees hits), and on cold one query per source so
    every document index exists before timing starts."""
    singles, joins = hot_pool()
    rng = random.Random(f"warmup:{workload}:{seed}")
    if workload == "cold":
        ops = [_query_op("query", _selection(source, "Data", True,
                                             f"w{position}"), keep=False)
               for position, source in enumerate(SOURCES)]
        ops.append(_query_op("join", _self_join(JOIN_SOURCES[0], "w"),
                             keep=False))
    else:
        ops = [_query_op("query", item, keep=False)
               for item in singles + joins]
    ops.append(_batch_op(singles[:BATCH_ITEMS], keep=False))
    ops.append(_upload_op(rng, 0))
    ops.append(Op("page", "GET", "/honor-roll", b""))
    ops.append(Op("page", "GET", "/api/honor-roll", b""))
    return ops
