"""Eviction-policy sanity under skewed reference locality.

The gauntlet's skew family concentrates probe traffic on a handful of hot
rows.  Under that locality a reference-aware window (LRU) must beat the
plain count window (FIFO) on probe hit rate: FIFO evicts hot rows on
schedule no matter how often they match, while the reference window keeps
renewing them.  This is the sanity check that the eviction machinery
actually *uses* the reference signal.
"""

from __future__ import annotations

from repro.core.stem import CountEviction, ReferenceWindowEviction, SteM
from repro.core.tuples import QTuple
from repro.storage.datagen import ZipfDraw
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.helpers import equi_join, layout_over, make_uniform_table

#: Rows in the build universe (distinct join-key per row).
UNIVERSE = 60
#: SteM capacity: small enough that most of the universe cannot fit.
CAPACITY = 12
#: Interleaved (build, probe) steps.
STEPS = 600

JOIN = equi_join("R.a", "S.x")
LAYOUT = layout_over("R", "S")


def _universe_rows():
    table = make_uniform_table("R", UNIVERSE, columns=("a", "pad"), seed=0)
    return list(table.rows)


def _probe_row(key: int):
    table = Table("S", Schema.of("x:int"))
    table.insert((key,))
    return table.rows[-1]


def run_locality_trace(eviction) -> float:
    """Interleave uniform builds with Zipf-skewed probes; return hit rate."""
    rows = _universe_rows()
    stem = SteM("R", aliases=("R",), join_columns=("a",), eviction=eviction)
    build_draw = ZipfDraw(UNIVERSE, skew=0.0, seed=1)  # uniform build churn
    probe_draw = ZipfDraw(UNIVERSE, skew=1.4, seed=2)  # hot probe locality
    hits = 0
    probes = 0
    timestamp = 0.0
    # Seed the store with the hot head so both policies start identically.
    for row in rows[:CAPACITY]:
        timestamp += 1.0
        stem.build(row, timestamp)
    for _ in range(STEPS):
        timestamp += 1.0
        # Ongoing churn: a scan keeps delivering (uniformly random) rows.
        stem.build(rows[build_draw()], timestamp)
        # Skewed probe traffic: hot keys dominate.  The probe path is the
        # real one, so reference-window eviction sees its on_match signal.
        key = rows[probe_draw()]["a"]
        outcome = stem.probe(QTuple({"S": _probe_row(key)}, layout=LAYOUT), "R", [JOIN])
        probes += 1
        if outcome.results:
            hits += 1
    assert probes == STEPS
    return hits / probes


def test_reference_window_beats_count_window_under_skew():
    lru_rate = run_locality_trace(ReferenceWindowEviction(CAPACITY))
    fifo_rate = run_locality_trace(CountEviction(CAPACITY))
    assert lru_rate > fifo_rate, (
        f"reference window {lru_rate:.2%} should beat count window "
        f"{fifo_rate:.2%} under skewed probe locality"
    )
    # The margin should be material, not noise.
    assert lru_rate - fifo_rate > 0.05


def test_policies_agree_without_reference_locality():
    """Control: under uniform probes the two windows are comparable."""
    rows = _universe_rows()

    def run(eviction) -> float:
        stem = SteM("R", aliases=("R",), join_columns=("a",), eviction=eviction)
        build_draw = ZipfDraw(UNIVERSE, skew=0.0, seed=3)
        probe_draw = ZipfDraw(UNIVERSE, skew=0.0, seed=4)
        hits = 0
        timestamp = 0.0
        for _ in range(STEPS):
            timestamp += 1.0
            stem.build(rows[build_draw()], timestamp)
            key = rows[probe_draw()]["a"]
            if stem.probe(QTuple({"S": _probe_row(key)}, layout=LAYOUT), "R", [JOIN]).results:
                hits += 1
        return hits / STEPS

    lru_rate = run(ReferenceWindowEviction(CAPACITY))
    fifo_rate = run(CountEviction(CAPACITY))
    assert abs(lru_rate - fifo_rate) < 0.1
