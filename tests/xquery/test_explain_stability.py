"""Differential test: ``Plan.explain()`` is byte-stable across processes.

The explain goldens under ``tests/golden/`` were written by one process
and are compared in another, often on another day, so ``explain()``,
``explain_fingerprint`` and ``identity`` must be pure functions of the
query text and the registered function set — never of object ids, dict
iteration order, or interpreter session state.  Two fresh interpreters
compile all twelve queries and must print byte-identical dumps.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent.parent / "src"

_DUMP_SCRIPT = """\
import json, sys
from repro.core import QUERIES
from repro.xquery.plan import compile_query

dump = {}
for query in QUERIES:
    plan = compile_query(query.xquery)
    dump[f"Q{query.number}"] = {
        "explain": plan.explain(),
        "explain_sha256": plan.explain_fingerprint,
        "identity": plan.identity,
    }
json.dump(dump, sys.stdout, sort_keys=True)
"""


def _dump_in_fresh_process(extra_env=None):
    env = {"PYTHONPATH": str(REPO_SRC), "PYTHONHASHSEED": "random"}
    if extra_env:
        env.update(extra_env)
    result = subprocess.run(
        [sys.executable, "-c", _DUMP_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_explain_is_byte_identical_across_processes():
    first = _dump_in_fresh_process()
    second = _dump_in_fresh_process()
    assert first == second
    dump = json.loads(first)
    assert sorted(dump, key=lambda q: (len(q), q)) \
        == [f"Q{n}" for n in range(1, 13)]
    for row in dump.values():
        assert row["explain"]
        assert len(row["explain_sha256"]) == 64
        assert len(row["identity"]) == 64


def test_fresh_process_matches_this_process():
    """The subprocess dump agrees with an in-process compile, so
    committed goldens stay comparable to future compiles."""
    from repro.core import QUERIES
    from repro.xquery.plan import compile_query

    dump = json.loads(_dump_in_fresh_process())
    for query in QUERIES:
        plan = compile_query(query.xquery)
        row = dump[f"Q{query.number}"]
        assert row["explain"] == plan.explain()
        assert row["explain_sha256"] == plan.explain_fingerprint
        assert row["identity"] == plan.identity


def test_distinct_queries_have_distinct_identities():
    from repro.core import QUERIES
    from repro.xquery.plan import compile_query

    identities = [compile_query(q.xquery).identity for q in QUERIES]
    assert len(set(identities)) == len(identities)
