"""Engine-level byte identity: compiled SteM probes vs the interpreted walk.

``tests/core/test_probeplan.py`` pins the single-query engine.  Here the
multi-query engine runs a fleet with shared and with private SteMs across
routing policies and batch sizes, and the churn engine admits and retires
queries over windowed SteMs (count, time and reference windows — the last
reorders the row store on every match).  With ``compiled_probes=True`` and
``False`` every query's results and trace must be identical.
"""

from __future__ import annotations

import pytest

from repro.engine.multi import ChurnEvent, QueryAdmission, run_churn, run_multi
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_t

SQL = "SELECT * FROM R, T WHERE R.key = T.key AND R.a < 6"
SECOND_SQL = "SELECT * FROM R, T WHERE R.key = T.key"
POLICIES = ["naive", "benefit", "lottery", "random"]


def build_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(40, 10, seed=7))
    catalog.add_table(make_source_t(40, seed=8))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=80.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


def records(trace: TraceLog) -> list[tuple]:
    return [(record.time, record.kind, record.detail) for record in trace]


@pytest.mark.parametrize("shared", [True, False], ids=["shared-stems", "private-stems"])
@pytest.mark.parametrize("batch_size", [1, 8], ids=lambda b: f"batch={b}")
@pytest.mark.parametrize("policy", POLICIES)
def test_multi_query_fleet(policy, batch_size, shared):
    def run(compiled_probes):
        admissions = [
            QueryAdmission(SQL, query_id="a", policy=policy, trace=TraceLog()),
            QueryAdmission(SECOND_SQL, query_id="b", policy=policy,
                           arrival_time=0.2, trace=TraceLog()),
            QueryAdmission(SECOND_SQL, query_id="c", policy=policy,
                           arrival_time=0.4, trace=TraceLog()),
        ]
        result = run_multi(
            admissions, build_catalog(), shared_stems=shared,
            batch_size=batch_size, compiled_probes=compiled_probes,
        )
        return result, [records(admission.trace) for admission in admissions]

    (compiled, compiled_traces), (interpreted, interpreted_traces) = run(True), run(False)
    assert compiled["a"].row_count > 0
    for query_id in ("a", "b", "c"):
        assert compiled[query_id].identities() == interpreted[query_id].identities()
    assert compiled_traces == interpreted_traces
    assert compiled.stem_stats == interpreted.stem_stats


@pytest.mark.parametrize("bound", [
    {"stem_eviction": "count", "stem_max_size": 24},
    {"stem_eviction": "time-window", "stem_window": 30},
    {"stem_eviction": "reference-window", "stem_max_size": 24},
], ids=["count", "time-window", "reference-window"])
@pytest.mark.parametrize("policy", POLICIES)
def test_churn(policy, bound):
    def run(compiled_probes):
        traces = [TraceLog(), TraceLog()]
        events = [
            ChurnEvent(time=0.0, action="admit", admission=QueryAdmission(
                SQL, query_id="bg", policy=policy, trace=traces[0])),
            ChurnEvent(time=0.15, action="admit", admission=QueryAdmission(
                SECOND_SQL, query_id="late", policy=policy, trace=traces[1])),
            ChurnEvent(time=0.3, action="retire", query_id="bg"),
        ]
        result = run_churn(events, build_catalog(), batch_size=4,
                           compiled_probes=compiled_probes, **bound)
        return result, [records(trace) for trace in traces]

    (compiled, compiled_traces), (interpreted, interpreted_traces) = run(True), run(False)
    assert compiled["late"].row_count > 0
    assert sum(s["evictions"] for s in compiled.stem_stats.values()) > 0
    for query_id in ("bg", "late"):
        assert compiled[query_id].identities() == interpreted[query_id].identities()
    assert compiled_traces == interpreted_traces
    assert compiled.summary() == interpreted.summary()
