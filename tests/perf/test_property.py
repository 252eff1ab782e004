"""Property: a snapshot compared against itself is always clean.

This is the contract the CI gate rests on — whatever a collector
recorded, ``report(A, A)`` must report zero plan and zero cost
regressions, or the gate would flag changes that do not exist.
Hypothesis drives the comparison over arbitrary snapshot shapes;
the real-collector version of the same property lives in
``test_collect.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.report import compare_snapshots
from repro.perf.schema import validate_document

from .conftest import make_cell, make_row, make_snapshot

_labels = st.lists(
    st.sampled_from([f"Q{n}" for n in range(1, 13)]),
    min_size=1, max_size=6, unique=True)


@st.composite
def snapshots(draw):
    cells = []
    for scale in draw(st.lists(st.integers(1, 32), min_size=1,
                               max_size=3, unique=True)):
        rows = []
        for label in draw(_labels):
            rows.append(make_row(
                label,
                explain=draw(st.text(
                    alphabet="plan scdoxe\n", min_size=1, max_size=30)),
                items=draw(st.integers(0, 500))))
        cells.append(make_cell(rows, scale=scale))
    return make_snapshot(cells, label=draw(st.text(max_size=12)) or "s")


@given(snapshot=snapshots())
@settings(max_examples=60, deadline=None)
def test_self_comparison_is_always_clean(snapshot):
    report = compare_snapshots(snapshot, snapshot)
    assert report["ok"]
    assert report["plan_regressions"] == []
    assert report["cost_regressions"] == []
    assert report["missing"] == []


@given(snapshot=snapshots())
@settings(max_examples=30, deadline=None)
def test_generated_snapshots_validate(snapshot):
    """The strategy only produces schema-valid documents — so the
    self-comparison property really covers the whole format."""
    assert validate_document(snapshot) == []
