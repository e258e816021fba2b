"""Continuous-query churn: differential admission/retirement semantics.

The tentpole claim of the churn layer (paper §3.2/§3.3: SteMs are shared,
*long-lived* state modules; queries come and go while the dataflow keeps
running) is pinned differentially:

* **Late admission ≡ fresh run.**  A query admitted at virtual time T onto
  a live multi-query run sees exactly the rows its own sources deliver
  after T.  On a catalog slice no other query touches, its routing trace
  and results are therefore *identical* to a fresh single-query run —
  modulo the admission-time shift on event times and the fleet-wide tuple
  id counter, both of which are bijectively normalised below (the
  "differential semantics" of the churn layer).  Checked across
  naive/lottery/benefit and batch sizes 1 and 8.
* **Shared-state exposure is the only divergence.**  On a *shared* table
  the late query additionally probes pre-existing SteM state (§3.3's
  covering-probe semantics): it produces the same result set with fewer or
  zero access-method lookups of its own.
* **Dynamic == static.**  Admitting queries onto the live simulator is
  byte-identical — traces, tuple ids, result order — to declaring the same
  fleet up front with staggered arrival times.
"""

from __future__ import annotations

import pytest

from repro.engine.api import execute
from repro.engine.multi import ChurnEvent, MultiQueryEngine, QueryAdmission, run_churn
from repro.errors import ExecutionError
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_cyclic_triple, make_source_r, make_source_t
from tests.helpers import refcount

BACKGROUND_SQL = "SELECT * FROM R, T WHERE R.key = T.key"
FOREGROUND_SQL = "SELECT * FROM A, B WHERE A.ab = B.ab"
#: Admission instant of the late query; deliberately off every delivery
#: grid so no cross-query event-time tie can reorder the schedule.
ADMIT_AT = 1.63


def build_catalog() -> Catalog:
    """R/T (the background fleet's tables) plus A/B (the late query's)."""
    catalog = Catalog()
    catalog.add_table(make_source_r(40, 10, seed=7))
    catalog.add_table(make_source_t(40, seed=8))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=80.0)
    catalog.add_index("T", ["key"], latency=0.05)
    table_a, table_b, table_c = make_cyclic_triple(30, seed=5)
    catalog.add_table(table_a)
    catalog.add_table(table_b)
    catalog.add_table(table_c)
    catalog.add_scan("A", rate=90.0)
    catalog.add_scan("B", rate=70.0)
    return catalog


def canonical_trace(trace: TraceLog, origin: float) -> list[tuple]:
    """A trace normalised for differential comparison.

    Event times are shifted to the query's own origin (its admission
    instant) and rounded to absorb float-addition noise from the shift;
    tuple ids — drawn from the fleet-wide per-run allocator — are renamed
    in first-appearance order.  Both transformations are bijections, so
    equality of canonical traces means the runs performed the same
    routings, outputs and retirements on the same tuples in the same
    order at the same relative times.
    """
    ids: dict[int, int] = {}
    out: list[tuple] = []
    for record in trace:
        detail = record.detail
        if isinstance(detail, tuple):
            head, rest = detail[0], detail[1:]
            detail = (ids.setdefault(head, len(ids)),) + rest
        elif isinstance(detail, int):
            detail = ids.setdefault(detail, len(ids))
        out.append((round(record.time - origin, 7), record.kind, detail))
    return out


class TestLateAdmissionDifferential:
    @pytest.mark.parametrize("policy", ["naive", "lottery", "benefit"])
    @pytest.mark.parametrize("batch_size", [1, 8], ids=lambda b: f"batch={b}")
    def test_admission_at_t_equals_fresh_run(self, policy, batch_size):
        """Live admission at T ≡ fresh single-query run, differentially."""
        multi_trace = TraceLog()
        engine = MultiQueryEngine(
            [QueryAdmission(BACKGROUND_SQL, query_id="bg", policy=policy)],
            build_catalog(),
            batch_size=batch_size,
        )
        admission = QueryAdmission(
            FOREGROUND_SQL, query_id="fg", policy=policy, trace=multi_trace
        )
        engine.simulator.schedule_at(
            ADMIT_AT, lambda: engine.admit(admission, at_time=ADMIT_AT)
        )
        multi = engine.run()

        alone_trace = TraceLog()
        alone = execute(
            FOREGROUND_SQL,
            build_catalog(),
            policy=policy,
            batch_size=batch_size,
            trace=alone_trace,
        )

        assert canonical_trace(multi_trace, ADMIT_AT) == canonical_trace(
            alone_trace, 0.0
        )
        assert len(multi_trace) > 0
        # Results identical *in emission order* (not just as sets), and
        # emitted at the same admission-relative times.
        assert [t.identity() for t in multi["fg"].tuples] == [
            t.identity() for t in alone.tuples
        ]
        assert [
            pytest.approx(time - ADMIT_AT) for time, _ in multi["fg"].output_series
        ] == [time for time, _ in alone.output_series]

    def test_late_query_only_sees_rows_delivered_after_admission(self):
        """The admitted query's scans start at T: no replay of missed rows."""
        engine = MultiQueryEngine(
            [QueryAdmission(BACKGROUND_SQL, query_id="bg", policy="naive")],
            build_catalog(),
        )
        trace = TraceLog()
        admission = QueryAdmission(
            FOREGROUND_SQL, query_id="fg", policy="naive", trace=trace
        )
        engine.simulator.schedule_at(
            ADMIT_AT, lambda: engine.admit(admission, at_time=ADMIT_AT)
        )
        engine.run()
        assert all(record.time >= ADMIT_AT for record in trace)

    @pytest.mark.parametrize("policy", ["naive", "lottery", "benefit"])
    def test_shared_state_answers_late_probes(self, policy):
        """On a shared table the late query reuses pre-existing SteM state:
        same result set as running alone, but zero own index lookups (the
        §3.3 covering-probe exposure — the *only* sanctioned divergence
        from the fresh-run trace)."""
        catalog = build_catalog()
        engine = MultiQueryEngine(
            [QueryAdmission(BACKGROUND_SQL, query_id="bg", policy=policy)],
            catalog,
        )
        late = QueryAdmission(BACKGROUND_SQL, query_id="late", policy=policy)
        # Admit long after both scans sealed the shared SteMs.
        engine.simulator.schedule_at(30.0, lambda: engine.admit(late, at_time=30.0))
        multi = engine.run()
        alone = execute(BACKGROUND_SQL, catalog, policy=policy)
        assert (
            multi["late"].canonical_identities() == alone.canonical_identities()
        )
        assert multi["late"].total_index_lookups() == 0
        assert alone.total_index_lookups() > 0


class TestRetirement:
    def test_mid_run_retirement_snapshots_results_and_frees_the_sim(self):
        """Retiring mid-run keeps the rows emitted so far, stops the rest."""
        catalog = build_catalog()
        engine = MultiQueryEngine(
            [QueryAdmission(BACKGROUND_SQL, query_id="bg", policy="naive")],
            catalog,
        )
        retire_at = 0.21
        engine.simulator.schedule_at(retire_at, lambda: engine.retire("bg"))
        multi = engine.run()
        result = multi["bg"]
        assert result.retired_at == pytest.approx(retire_at)
        assert multi.retired == ("bg",)
        full = execute(BACKGROUND_SQL, catalog, policy="naive")
        # A strict, non-empty prefix of the full run's outputs.
        assert 0 < result.row_count < full.row_count
        assert result.identities() == full.identities()[: result.row_count]
        # The simulation quiesced shortly after the retirement instead of
        # streaming the remaining scan deliveries.
        assert multi.final_time < full.final_time / 2

    def test_retirement_reclaims_unreferenced_stems_and_indexes(self):
        catalog = build_catalog()
        engine = MultiQueryEngine(
            [
                QueryAdmission(BACKGROUND_SQL, query_id="rt", policy="naive"),
                QueryAdmission(FOREGROUND_SQL, query_id="ab", policy="naive"),
            ],
            catalog,
        )
        engine.run()
        registry = engine.registry
        assert set(registry.stems) == {"R", "T", "A", "B"}
        engine.retire("ab")
        # A and B had a single reader: reclaimed outright.
        assert set(registry.stems) == {"R", "T"}
        assert registry.stats["reclaimed"] == 2
        assert refcount(registry, "A") == 0 and refcount(registry, "R") == 1
        engine.retire("rt")
        assert len(registry) == 0
        # Reclaimed SteMs still contribute to the run's build totals.
        assert engine._collect(engine.simulator.now).stem_totals["insertions"] > 0

    def test_retiring_one_reader_drops_only_its_private_index(self):
        """Two queries join a shared table on different columns; the second
        query's retirement drops the index only its bindings needed and
        bumps the epoch so surviving compiled plans re-resolve."""
        catalog = build_catalog()
        other_sql = "SELECT * FROM R, T WHERE R.a = T.key"
        engine = MultiQueryEngine(
            [
                QueryAdmission(BACKGROUND_SQL, query_id="bykey", policy="naive"),
                QueryAdmission(other_sql, query_id="bya", policy="naive"),
            ],
            catalog,
        )
        engine.run()
        stem_r = engine.registry.stems["R"]
        assert {"key", "a"} <= set(stem_r.join_columns)
        epoch = stem_r.index_epoch
        engine.retire("bya")
        assert "a" not in stem_r.join_columns
        assert "key" in stem_r.join_columns
        assert stem_r.index_epoch > epoch
        assert engine.registry.stats["indexes_dropped"] >= 1

    def test_retire_before_scheduled_start_is_inert(self):
        """A query retired before its start event fires never streams."""
        catalog = build_catalog()
        engine = MultiQueryEngine(
            [
                QueryAdmission(BACKGROUND_SQL, query_id="bg", policy="naive"),
                QueryAdmission(
                    FOREGROUND_SQL, query_id="fg", policy="naive", arrival_time=10.0
                ),
            ],
            catalog,
        )
        scan_modules = [
            am for ams in engine.eddy_of("fg").scan_ams.values() for am in ams
        ]
        engine.simulator.schedule_at(5.0, lambda: engine.retire("fg"))
        multi = engine.run()
        assert multi["fg"].row_count == 0
        assert all(module.delivered == 0 for module in scan_modules)
        # The dead query's start event did not stretch the simulation.
        assert multi.final_time == pytest.approx(multi["bg"].final_time)

    def test_private_stems_honour_the_eviction_policy(self):
        """`stem_eviction` bounds private SteMs too, not only shared ones."""
        catalog = build_catalog()
        events = [
            ChurnEvent(
                time=0.0,
                action="admit",
                admission=QueryAdmission(
                    BACKGROUND_SQL, query_id="bg", policy="naive"
                ),
            )
        ]
        result = run_churn(
            events,
            catalog,
            shared_stems=False,
            stem_eviction="time-window",
            stem_window=20,
        )
        # The window was enforced on the private SteMs: rows were evicted
        # (40-row tables vs a 20-tick window), and the query still ran.
        evictions = sum(
            stats.get("evictions", 0) for stats in result.stem_stats.values()
        )
        assert evictions > 0
        assert result["bg"].row_count > 0

    def test_retire_unknown_or_twice_raises(self):
        engine = MultiQueryEngine(
            [QueryAdmission(BACKGROUND_SQL, query_id="bg", policy="naive")],
            build_catalog(),
        )
        with pytest.raises(ExecutionError, match="unknown query id"):
            engine.retire("nope")
        engine.run()
        engine.retire("bg")
        with pytest.raises(ExecutionError, match="already retired"):
            engine.retire("bg")


class TestDynamicEqualsStatic:
    @pytest.mark.parametrize("policy", ["naive", "lottery", "benefit"])
    @pytest.mark.parametrize("batch_size", [1, 8], ids=lambda b: f"batch={b}")
    def test_churn_admission_is_byte_identical_to_static_fleet(
        self, policy, batch_size
    ):
        """Admitting onto the live simulator == declaring the fleet up
        front: traces (tuple ids included), result order, everything."""
        arrivals = [0.0, 1.37, 3.11]

        def admissions(traces):
            return [
                QueryAdmission(
                    BACKGROUND_SQL,
                    query_id=f"q{position}",
                    policy=policy,
                    arrival_time=arrival,
                    trace=traces[position],
                )
                for position, arrival in enumerate(arrivals)
            ]

        static_traces = [TraceLog() for _ in arrivals]
        static = MultiQueryEngine(
            admissions(static_traces), build_catalog(), batch_size=batch_size
        ).run()

        dynamic_traces = [TraceLog() for _ in arrivals]
        events = [
            ChurnEvent(time=a.arrival_time, action="admit", admission=a)
            for a in admissions(dynamic_traces)
        ]
        dynamic = run_churn(events, build_catalog(), batch_size=batch_size)

        def records(trace):
            return [(r.time, r.kind, r.detail) for r in trace]

        for position in range(len(arrivals)):
            assert records(static_traces[position]) == records(
                dynamic_traces[position]
            )
            query_id = f"q{position}"
            assert static[query_id].identities() == dynamic[query_id].identities()


class TestContinuousServiceMode:
    def test_empty_admissions_still_rejected_without_continuous(self):
        with pytest.raises(ExecutionError, match="at least one"):
            MultiQueryEngine([], build_catalog())

    def test_service_starts_empty_and_accepts_churn(self):
        events = [
            ChurnEvent(
                time=0.5,
                action="admit",
                admission=QueryAdmission(
                    BACKGROUND_SQL, query_id="only", policy="naive"
                ),
            ),
            ChurnEvent(time=40.0, action="retire", query_id="only"),
        ]
        result = run_churn(events, build_catalog())
        assert result["only"].row_count == execute(
            BACKGROUND_SQL, build_catalog(), policy="naive"
        ).row_count
        assert result.retired == ("only",)

    def test_admitted_and_active_track_churn(self):
        engine = MultiQueryEngine([], build_catalog(), continuous=True)
        engine.admit(QueryAdmission(BACKGROUND_SQL, query_id="a", policy="naive"))
        engine.admit(QueryAdmission(FOREGROUND_SQL, query_id="b", policy="naive"))
        engine.run()
        assert engine.admitted == ("a", "b") and engine.active == ("a", "b")
        engine.retire("a")
        assert engine.admitted == ("a", "b") and engine.active == ("b",)
