"""Python calls per simulator event, as an exact-count ratchet.

Calls per event is the one performance number tier-1 can gate without a
clock: it counts work, so it does not move with the host.  Each shape below
runs once under ``sys.setprofile``; the profiler counts every ``call`` event
whose code lives in ``src/repro`` and whose name does not start with ``<``
(CPython 3.12 inlines comprehensions, so they would count on 3.10 and 3.11
only).  The count is divided by the simulator's executed events.

A shape fails when its ratio exceeds its :data:`CEILINGS` entry, and prints
the functions called most.  A change that earns fewer calls lowers the
ceiling; raising one is a changed bound and must be said in CHANGES.md.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.bench.workloads import staggered_fleet_workload
from repro.engine.multi import MultiQueryEngine, QueryAdmission
from repro.query.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r
from repro.storage.schema import Schema
from repro.storage.table import Table

#: Where ``src/repro`` was imported from, spelled as its code objects name it.
SOURCE = str(Path(repro.__file__).parent)

#: Calls per event each shape may take: the ratio last measured (CPython
#: 3.11: 18.731, 18.310 and 28.450, equal under every hash seed), plus 1%
#: in case another interpreter version counts a call more or less.
CEILINGS = {
    "join_fleet": 18.92,
    "aggregate_window": 18.50,
    "fan_out": 28.74,
}


def join_fleet() -> MultiQueryEngine:
    """Four staggered R-T joins over shared SteMs."""
    workload = staggered_fleet_workload(n_queries=4, stagger=2.0, rows=80)
    return MultiQueryEngine(list(workload.admissions), workload.catalog, batch_size=16)


def aggregate_window() -> MultiQueryEngine:
    """Three GROUP BY panels over one count-bounded SteM."""
    rows = 200
    catalog = Catalog()
    catalog.add_table(make_source_r(rows, distinct_a=10, seed=0))
    catalog.add_scan("R", rate=50.0)
    panels = (
        "SELECT a, count(*), sum(key) FROM R GROUP BY a",
        "SELECT a, min(key), max(key) FROM R WHERE R.a < 5 GROUP BY a",
        "SELECT count(*), avg(key) FROM R",
    )
    admissions = [
        QueryAdmission(parse_query(sql), policy="naive", arrival_time=position)
        for position, sql in enumerate(panels)
    ]
    return MultiQueryEngine(
        admissions, catalog, batch_size=16, stem_eviction="count", stem_max_size=rows // 4
    )


def fan_out() -> MultiQueryEngine:
    """An 80 x 80 row join on a four-valued column: 20 matches per probe."""
    catalog = Catalog()
    for name in ("A", "B"):
        rows = [(i, i % 4) for i in range(80)]
        catalog.add_table(Table(name, Schema.of("id:int", "value:int"), rows))
        catalog.add_scan(name, rate=100.0)
    query = parse_query("SELECT * FROM A, B WHERE A.value = B.value AND A.id < B.id")
    return MultiQueryEngine([QueryAdmission(query, policy="naive")], catalog, batch_size=16)


SHAPES = {"join_fleet": join_fleet, "aggregate_window": aggregate_window, "fan_out": fan_out}


def calls_per_event(engine: MultiQueryEngine) -> tuple[float, Counter]:
    """Run ``engine`` under the profiler: ``src/repro`` calls per event, and
    the calls by ``file:line function``."""
    calls: Counter = Counter()

    def profile(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SOURCE) and not code.co_name.startswith("<"):
                calls[code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        engine.run()
    finally:
        sys.setprofile(previous)
    by_function = Counter()
    for code, count in calls.items():
        path = Path(code.co_filename).relative_to(SOURCE)
        by_function[f"{path}:{code.co_firstlineno} {code.co_name}"] += count
    return sum(calls.values()) / engine.simulator.executed_events, by_function


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_calls_per_event_stay_under_the_ceiling(shape):
    engine = SHAPES[shape]()
    ratio, by_function = calls_per_event(engine)
    top = "\n".join(f"  {count:>7} {name}" for name, count in by_function.most_common(15))
    print(f"{shape}: {ratio:.3f} calls per event\n{top}")
    assert by_function, "no call into src/repro was counted"
    assert ratio <= CEILINGS[shape], (
        f"{shape}: {ratio:.3f} calls per event exceeds the ceiling "
        f"{CEILINGS[shape]}; the functions called most:\n{top}"
    )
