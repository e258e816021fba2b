"""Engine-level differential: the compiled probe path vs the interpreted oracle.

The engine probes SteMs through one path, ``SteM.probe_with_plan``.  The
``both_paths`` fixture runs each workload twice: once as shipped, and once
with ``SteM.probe_with_plan`` replaced by the interpreted reference
(``tests/reference/interpreted_probe.py``) evaluating the plan's target
alias and predicates.  Every query's results, trace and SteM counters must
be identical across the two runs:

* single-query ``execute`` runs across policies and batch sizes;
* the multi-query engine over a fleet with shared SteMs, a shared-SteM
  pair, and the heavy staggered fleet;
* the churn engine admitting and retiring queries over windowed SteMs
  (count, time and reference windows — the last reorders the row store on
  every match);
* every adversarial gauntlet family, query by query.
"""

from __future__ import annotations

import pytest

from repro.bench.adversarial import GAUNTLET_POLICIES, gauntlet_scenarios
from repro.bench.workloads import MultiQueryWorkload, staggered_fleet_workload
from repro.core.stem import SteM
from repro.engine.api import execute
from repro.engine.multi import ChurnEvent, QueryAdmission, run_churn, run_multi
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_t
from tests.reference.interpreted_probe import interpreted_probe

SQL = "SELECT * FROM R, T WHERE R.key = T.key AND R.a < 6"
SECOND_SQL = "SELECT * FROM R, T WHERE R.key = T.key"
POLICIES = ["naive", "benefit", "lottery", "random"]
GAUNTLET = gauntlet_scenarios(smoke=True)


@pytest.fixture
def both_paths(monkeypatch):
    """``run_both(run)``: ``run()`` on the compiled path, then on the oracle.

    Fails when the substituted run never probed a SteM, so a substitution
    that silently stopped taking effect cannot pass as agreement.
    """
    calls = 0

    def substitute(self, probe, plan, enforce_timestamp=True):
        nonlocal calls
        calls += 1
        return interpreted_probe(
            self, probe, plan.target_alias, plan.predicates, enforce_timestamp
        )

    def run_both(run):
        compiled = run()
        with monkeypatch.context() as patch:
            patch.setattr(SteM, "probe_with_plan", substitute)
            interpreted = run()
        assert calls > 0, "the interpreted oracle was never called"
        return compiled, interpreted

    return run_both


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


def fleet_observation(result, traces) -> tuple:
    """Per-query identities, traces and SteM counters of a multi-query run."""
    identities = {query_id: result[query_id].identities() for query_id in result.results}
    assert sum(len(rows) for rows in identities.values()) > 0
    return identities, [records(trace) for trace in traces], result.stem_stats


@pytest.mark.parametrize("policy", ["naive", "benefit", "lottery"])
@pytest.mark.parametrize("batch_size", [1, 8, 64], ids=lambda b: f"batch={b}")
def test_single_query(both_paths, policy, batch_size):
    def run():
        trace = TraceLog()
        result = execute(
            SQL, build_catalog(), engine="stems", policy=policy,
            batch_size=batch_size, trace=trace,
        )
        assert result.row_count > 0
        return result.identities(), records(trace)

    compiled, interpreted = both_paths(run)
    assert compiled == interpreted


@pytest.mark.parametrize("batch_size", [1, 8], ids=lambda b: f"batch={b}")
@pytest.mark.parametrize("policy", POLICIES)
def test_multi_query_fleet(both_paths, policy, batch_size):
    def run():
        admissions = [
            QueryAdmission(SQL, query_id="a", policy=policy, trace=TraceLog()),
            QueryAdmission(SECOND_SQL, query_id="b", policy=policy,
                           arrival_time=0.2, trace=TraceLog()),
            QueryAdmission(SECOND_SQL, query_id="c", policy=policy,
                           arrival_time=0.4, trace=TraceLog()),
        ]
        result = run_multi(
            admissions, build_catalog(), batch_size=batch_size,
        )
        return fleet_observation(result, [admission.trace for admission in admissions])

    compiled, interpreted = both_paths(run)
    assert compiled == interpreted


def test_shared_stem_pair(both_paths):
    """Two queries with different policies over one pair of shared SteMs."""
    def run():
        admissions = [
            QueryAdmission(SQL, query_id="a", policy="naive", trace=TraceLog()),
            QueryAdmission(SECOND_SQL, query_id="b", policy="lottery",
                           arrival_time=0.2, trace=TraceLog()),
        ]
        result = run_multi(admissions, build_catalog(), batch_size=8)
        return fleet_observation(result, [admission.trace for admission in admissions])

    compiled, interpreted = both_paths(run)
    assert compiled == interpreted


def test_heavy_staggered_fleet(both_paths):
    """Six staggered R⨝T queries over one pair of shared SteMs."""
    def run():
        workload = staggered_fleet_workload(
            n_queries=6, stagger=2.0, rows=200, policy="naive"
        )
        result = run_multi(
            list(workload.admissions), workload.catalog, batch_size=16,
        )
        return fleet_observation(result, [])

    compiled, interpreted = both_paths(run)
    assert compiled == interpreted


@pytest.mark.parametrize("bound", [
    {"stem_eviction": "count", "stem_max_size": 24},
    {"stem_eviction": "time-window", "stem_window": 30},
    {"stem_eviction": "reference-window", "stem_max_size": 24},
], ids=["count", "time-window", "reference-window"])
@pytest.mark.parametrize("policy", POLICIES)
def test_churn(both_paths, policy, bound):
    def run():
        traces = [TraceLog(), TraceLog()]
        events = [
            ChurnEvent(time=0.0, action="admit", admission=QueryAdmission(
                SQL, query_id="bg", policy=policy, trace=traces[0])),
            ChurnEvent(time=0.15, action="admit", admission=QueryAdmission(
                SECOND_SQL, query_id="late", policy=policy, trace=traces[1])),
            ChurnEvent(time=0.3, action="retire", query_id="bg"),
        ]
        result = run_churn(events, build_catalog(), batch_size=4, **bound)
        assert result["late"].row_count > 0
        assert sum(s["evictions"] for s in result.stem_stats.values()) > 0
        return fleet_observation(result, traces), result.summary()

    compiled, interpreted = both_paths(run)
    assert compiled == interpreted


@pytest.mark.parametrize("policy", GAUNTLET_POLICIES)
@pytest.mark.parametrize("name", sorted(GAUNTLET))
def test_gauntlet_scenario(both_paths, name, policy):
    """Every gauntlet family, query by query on fresh catalogs (the fleet
    family's queries interleave under the multi-query engine, so the
    per-query single run is the well-defined comparison)."""
    scenario = GAUNTLET[name]
    workload = scenario.build()
    if isinstance(workload, MultiQueryWorkload):
        queries = [admission.query for admission in workload.admissions]
    else:
        queries = [workload.query]

    def run():
        observations = []
        for query in queries:
            fresh = scenario.build()
            trace = TraceLog()
            result = execute(
                query, fresh.catalog, policy=policy,
                cost_model=getattr(fresh, "cost_model", None), trace=trace,
            )
            observations.append((result.identities(), records(trace)))
        return observations

    compiled, interpreted = both_paths(run)
    assert compiled == interpreted
