"""Tests for the multi-query engine and SteM sharing (repro.engine.multi)."""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.workloads import churn_workload, staggered_fleet_workload
from repro.errors import ExecutionError
from repro.core.costs import CostModel
from repro.core.stem_registry import SteMRegistry
from repro.engine.api import execute
from repro.engine.multi import (
    ChurnEvent,
    MultiQueryEngine,
    QueryAdmission,
    run_churn,
    run_multi,
)
from repro.engine.config import EngineConfig
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t

JOIN_SQL = "SELECT * FROM R, T WHERE R.key = T.key"


def build_catalog(rows: int = 50) -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(rows, max(rows // 4, 1), seed=11))
    catalog.add_table(make_source_t(rows, seed=12))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=80.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


def identity(result):
    return sorted(tuple_.identity() for tuple_ in result.tuples)


def fleet(cutoffs, stagger=1.0, policy="naive"):
    admissions = []
    for position, cutoff in enumerate(cutoffs):
        sql = JOIN_SQL if cutoff is None else f"{JOIN_SQL} AND R.a < {cutoff}"
        admissions.append(
            QueryAdmission(sql, policy=policy, arrival_time=stagger * position)
        )
    return admissions


class TestAdmission:
    def test_plain_strings_are_wrapped_and_ids_defaulted(self):
        engine = MultiQueryEngine([JOIN_SQL, JOIN_SQL], build_catalog())
        assert engine.admitted == ("q0", "q1")

    def test_duplicate_query_ids_rejected(self):
        with pytest.raises(ExecutionError, match="duplicate query id"):
            MultiQueryEngine(
                [QueryAdmission(JOIN_SQL, query_id="q"),
                 QueryAdmission(JOIN_SQL, query_id="q")],
                build_catalog(),
            )

    def test_negative_arrival_rejected(self):
        with pytest.raises(ExecutionError, match="arrival_time"):
            MultiQueryEngine(
                [QueryAdmission(JOIN_SQL, arrival_time=-1.0)], build_catalog()
            )

    def test_empty_admissions_rejected(self):
        with pytest.raises(ExecutionError, match="at least one"):
            MultiQueryEngine([], build_catalog())

    def test_eddy_of_unknown_id_raises(self):
        engine = MultiQueryEngine([JOIN_SQL], build_catalog())
        with pytest.raises(ExecutionError, match="unknown query id"):
            engine.eddy_of("nope")


class TestSharedExecution:
    def test_results_identical_to_each_query_alone(self):
        catalog = build_catalog()
        admissions = fleet([5, 9, None], stagger=0.8)
        multi = run_multi(admissions, catalog)
        for position, admission in enumerate(admissions):
            alone = execute(admission.query, catalog, policy="naive")
            assert identity(multi[f"q{position}"]) == identity(alone)

    def test_each_admission_alone_matches_the_fleet(self):
        # One admission, arrival time kept, in an engine of its own: the
        # baseline the sharing ablation and the CLI compare a fleet with.
        catalog = build_catalog()
        admissions = fleet([5, 9, None], stagger=0.8)
        multi = run_multi(admissions, catalog)
        for position, admission in enumerate(admissions):
            alone = run_multi([admission], catalog)
            assert identity(alone["q0"]) == identity(multi[f"q{position}"])

    def test_shared_inserts_one_tables_worth(self):
        catalog = build_catalog(rows=40)
        admissions = fleet([6, 8, None], stagger=0.5)
        shared = run_multi(admissions, catalog)
        alone = [run_multi([admission], catalog) for admission in admissions]
        # R and T rows are inserted once under sharing, once per query run
        # alone.
        assert shared.stem_totals["insertions"] == 80
        assert sum(run.stem_totals["insertions"] for run in alone) == 240
        assert shared.stem_totals["duplicates"] > 0
        assert shared.registry_stats["stems"] == 2
        assert all(run.registry_stats["stems"] == 2 for run in alone)

    def test_outputs_and_results_carry_query_ids(self):
        catalog = build_catalog(rows=30)
        multi = run_multi(fleet([7, None]), catalog)
        assert list(multi) == ["q0", "q1"] and "q0" in multi  # mapping protocol
        for query_id, result in multi.items():
            assert result.query_id == query_id
            assert all(tuple_.query_id == query_id for tuple_ in result.tuples)

    def test_strict_constraints_run_clean_with_sharing(self):
        catalog = build_catalog(rows=30)
        multi = run_multi(
            fleet([7, None]), catalog, strict_constraints=True
        )
        assert multi.total_rows > 0

    def test_staggered_admission_starts_scans_at_arrival(self):
        catalog = build_catalog(rows=30)
        arrival = 5.0
        multi = run_multi(
            [QueryAdmission(JOIN_SQL, arrival_time=0.0, policy="naive"),
             QueryAdmission(JOIN_SQL, arrival_time=arrival, policy="naive")],
            catalog,
        )
        late = multi["q1"]
        assert late.output_series.points[0][0] >= arrival
        assert identity(late) == identity(multi["q0"])

    def test_mixed_table_sets_share_per_table(self):
        catalog = build_catalog(rows=30)
        catalog.add_table(make_source_s(10))
        catalog.add_scan("S", rate=100.0)
        multi = run_multi(
            [QueryAdmission(JOIN_SQL, query_id="rt", policy="naive"),
             QueryAdmission("SELECT * FROM R, S WHERE R.a = S.x",
                            query_id="rs", policy="naive", arrival_time=0.5)],
            catalog,
        )
        assert set(multi.stem_stats) == {"stem:R", "stem:S", "stem:T"}
        alone_rs = execute(
            "SELECT * FROM R, S WHERE R.a = S.x", catalog, policy="naive"
        )
        assert identity(multi["rs"]) == identity(alone_rs)

    def test_self_join_aliases_stay_private(self):
        catalog = Catalog()
        catalog.add_table(make_source_r(30, 10, seed=4))
        catalog.add_scan("R", rate=100.0)
        sql = "SELECT * FROM R r1, R r2 WHERE r1.key = r2.a"
        engine = MultiQueryEngine(
            [QueryAdmission(sql, policy="naive"),
             QueryAdmission(sql, policy="naive", arrival_time=0.3)],
            catalog,
        )
        multi = engine.run()
        # One registry SteM per query and alias, none of them shared.
        names = {
            f"{query_id}:stem:{alias}"
            for query_id in ("q0", "q1")
            for alias in ("r1", "r2")
        }
        stems = engine.registry.stems
        assert set(stems) == names
        assert {stem.name for stem in stems.values()} == names
        for query_id in ("q0", "q1"):
            for alias, module in engine.eddy_of(query_id).stems.items():
                assert module.stem is stems[f"{query_id}:stem:{alias}"]
        assert set(multi.stem_stats) == names
        alone = execute(sql, catalog, policy="naive")
        assert identity(multi["q0"]) == identity(alone)
        assert identity(multi["q1"]) == identity(alone)
        # All of them are reclaimed once both queries retire.
        engine.retire("q0")
        assert set(engine.registry.stems) == {"q1:stem:r1", "q1:stem:r2"}
        engine.retire("q1")
        assert len(engine.registry) == 0
        assert set(engine.registry.reclaimed_stats) == names

    @staticmethod
    def index_only_s_catalog() -> Catalog:
        """R and T scanned; S reachable only through its index on x."""
        catalog = Catalog()
        catalog.add_table(make_source_r(40, 10, seed=3))
        catalog.add_table(make_source_s(10))
        catalog.add_table(make_source_t(40, seed=4))
        catalog.add_scan("R", rate=100.0)
        catalog.add_scan("T", rate=100.0)
        catalog.add_index("S", ["x"], latency=0.05)
        return catalog

    def test_index_only_target_is_covered_by_a_query_that_carried_every_row(self):
        # The R rows an earlier R-T query built carry older timestamps than
        # every S row, so the R-S query's probes into S meet suppressed
        # matches.  It carried every S row itself, so the probes are covered
        # and it takes the index path exactly as often as it does alone.
        rs_sql = "SELECT * FROM R, S WHERE R.a = S.x"

        def rs_admission(trace):
            return QueryAdmission(
                rs_sql, query_id="rs", policy="naive", arrival_time=0.3, trace=trace
            )

        fleet_trace, alone_trace = TraceLog(), TraceLog()
        multi = run_multi(
            [QueryAdmission(JOIN_SQL, query_id="rt", policy="naive"),
             rs_admission(fleet_trace)],
            self.index_only_s_catalog(),
        )
        alone = run_multi([rs_admission(alone_trace)], self.index_only_s_catalog())
        assert multi["rs"].canonical_identities() == alone["rs"].canonical_identities()

        def index_routes(trace):
            return sum(
                1 for r in trace if r.kind == "route" and r.detail[1].startswith("am:S_")
            )

        # Results may come sooner (the R SteM already holds rows), but no
        # probe goes to the index that would not go there alone.
        assert index_routes(fleet_trace) == index_routes(alone_trace) > 0

    def test_index_only_target_keeps_the_am_path_for_another_querys_rows(self):
        # The second R-S query arrives after the first has quiesced: every
        # stored S row was built by the first, so its probes into S still
        # take the index path, and it looks every key up again itself.
        sql = "SELECT * FROM R, S WHERE R.a = S.x"
        late = QueryAdmission(sql, query_id="late", policy="naive", arrival_time=5.0)
        multi = run_multi(
            [QueryAdmission(sql, query_id="early", policy="naive"), late],
            self.index_only_s_catalog(),
        )
        alone = run_multi([late], self.index_only_s_catalog())
        assert multi["early"].completion_time < 5.0
        assert multi["late"].canonical_identities() == alone["late"].canonical_identities()
        assert multi["late"].total_index_lookups() == alone["late"].total_index_lookups() == 10

    def test_eviction_forgets_carried_rows(self):
        """Sliding-window SteMs: an evicted row re-delivered to the same
        query must bounce back again, not be dropped as a duplicate."""
        catalog = build_catalog(rows=120)
        admission = QueryAdmission(JOIN_SQL, policy="naive")
        multi = run_multi([admission], catalog, stem_max_size=50)
        alone = execute(JOIN_SQL, catalog, policy="naive", stem_max_size=50)
        assert identity(multi["q0"]) == identity(alone)
        # Evictions actually happened (the window is smaller than the table).
        assert sum(
            stats["evictions"] for stats in multi.stem_stats.values()
        ) > 0

    def test_policies_are_instantiated_per_admission(self):
        engine = MultiQueryEngine(
            [QueryAdmission(JOIN_SQL, policy="lottery"),
             QueryAdmission(JOIN_SQL, policy="lottery")],
            build_catalog(rows=20),
        )
        assert engine.eddy_of("q0").policy is not engine.eddy_of("q1").policy

    def test_shared_policy_instance_rejected(self):
        from repro.core.policies import LotteryPolicy

        policy = LotteryPolicy(seed=1)
        with pytest.raises(ExecutionError, match="cannot be shared"):
            MultiQueryEngine(
                [QueryAdmission(JOIN_SQL, policy=policy),
                 QueryAdmission(JOIN_SQL, policy=policy)],
                build_catalog(rows=20),
            )

    def test_a_single_query_runs_on_the_registry(self):
        engine = MultiQueryEngine([JOIN_SQL], build_catalog(rows=30))
        assert set(engine.registry.stems) == {"R", "T"}
        stems = engine.eddy_of("q0").stems
        assert [stems[alias].stem for alias in ("R", "T")] == [
            engine.registry.stems[table] for table in ("R", "T")
        ]
        result = engine.run()
        assert set(result.stem_stats) == {"stem:R", "stem:T"}
        assert result.stem_totals["insertions"] == 60

    def test_shared_stems_is_an_unknown_option(self):
        admission = QueryAdmission(JOIN_SQL, query_id="a")
        unknown = r"\(\) got unknown option\(s\): shared_stems"
        with pytest.raises(ExecutionError, match="MultiQueryEngine" + unknown):
            MultiQueryEngine([admission], build_catalog(), shared_stems=False)
        with pytest.raises(ExecutionError, match="run_multi" + unknown):
            run_multi([admission], build_catalog(), shared_stems=False)
        with pytest.raises(ExecutionError, match="run_churn" + unknown):
            run_churn([], build_catalog(), shared_stems=False)

    def test_totals_survive_every_query_retiring(self):
        engine = MultiQueryEngine(fleet([6, None], stagger=0.5), build_catalog(rows=40))
        live = engine.run()
        for query_id in engine.active:
            engine.retire(query_id)
        retired = engine.run()
        assert len(engine.registry) == 0
        assert retired.stem_stats == live.stem_stats
        assert retired.stem_totals == live.stem_totals
        assert retired.stem_totals["insertions"] == 80

    def test_run_until_truncates_all_queries(self):
        catalog = build_catalog(rows=40)
        multi = run_multi(fleet([None, None], stagger=0.2), catalog, until=0.05)
        assert multi.final_time <= 0.06
        assert multi.total_rows < 80


class TestSteMRegistry:
    def test_get_or_create_and_alias_merge(self):
        registry = SteMRegistry()
        first = registry.stem_for("R", "r1", ("key",), owner="q0")
        again = registry.stem_for("R", "r2", ("a",), owner="q1")
        assert first is again
        assert set(first.aliases) == {"r1", "r2"}
        assert set(first.join_columns) == {"key", "a"}
        assert registry.stats["stems"] == 1
        assert registry.stats["attachments"] == 2
        assert "R" in registry and len(registry) == 1

    def test_every_acquisition_names_its_owner(self):
        # No anonymous acquisition pins a SteM: releasing the one owner
        # reclaims it.
        registry = SteMRegistry()
        with pytest.raises(TypeError):
            registry.stem_for("R", "R", ("key",))
        registry.stem_for("R", "R", ("key",), owner="q0")
        assert registry.release("q0") == ["R"]
        assert len(registry) == 0 and registry.stats["reclaimed"] == 1

    def test_a_named_stem_is_one_of_its_own(self):
        registry = SteMRegistry()
        shared = registry.stem_for("R", "R", ("key",), owner="q0")
        assert registry.stem_for("R", "R", owner="q1", name="stem:R") is shared
        own = registry.stem_for("R", "r1", ("a",), owner="q2", name="q2:stem:r1")
        assert own is not shared and own.name == "q2:stem:r1"
        assert own.aliases == ("r1",) and shared.aliases == ("R",)
        # A restore acquires it by name before its query does.
        assert registry.stem_for("R", "r1", ("a",), owner="", name="q2:stem:r1") is own
        assert set(registry.stems) == {"R", "q2:stem:r1"}
        assert registry.release("q2") == []
        assert registry.release("") == ["q2:stem:r1"]
        assert set(registry.reclaimed_stats) == {"q2:stem:r1"}
        assert set(registry.stems) == {"R"}

    def test_join_column_backfill_indexes_existing_rows(self):
        registry = SteMRegistry()
        table = make_source_r(10, 5, seed=1)
        stem = registry.stem_for("R", "R", ("key",), owner="q0")
        for position, row in enumerate(table.rows):
            stem.build(row, float(position + 1))
        stem2 = registry.stem_for("R", "R2", ("a",), owner="q1")
        # The new index was backfilled: an a-bound probe uses it and finds
        # the pre-existing rows.
        wanted = table.rows[0]["a"]
        matches = stem2._indexes["a"].get(wanted, {})
        assert matches and all(row["a"] == wanted for row in matches)
        assert all(matches[row] == stem2.timestamp_of(row) for row in matches)


class TestEngineOptions:
    def test_execute_unknown_option_fails_clearly(self):
        with pytest.raises(ExecutionError, match="execute.*batch.*batch_size"):
            execute(JOIN_SQL, build_catalog(), batch=4)

    def test_unknown_option_fails_clearly(self):
        with pytest.raises(ExecutionError, match="run_multi.*bogus"):
            run_multi([QueryAdmission(JOIN_SQL, query_id="a")], build_catalog(),
                      bogus=1)
        with pytest.raises(ExecutionError, match="run_churn.*stem_windw"):
            run_churn([], build_catalog(), stem_windw=5)

    def test_run_multi_accepts_the_shared_option_set(self):
        # Regression for the option-plumbing gap: stem_eviction/stem_window
        # used to be impossible to reach through run_multi.
        result = run_multi(
            [QueryAdmission(JOIN_SQL, query_id="a", policy="naive")],
            build_catalog(),
            stem_eviction="count", stem_max_size=16, stem_window=None,
        )
        assert result["a"].row_count >= 0

    def test_retired_stats_fold_to_int_counters(self):
        # Every SteM counter is an int, live and retired ones alike, so
        # merge_stats only ever sums.
        engine = MultiQueryEngine(
            [
                QueryAdmission(JOIN_SQL, query_id="keep", policy="naive"),
                QueryAdmission(JOIN_SQL, query_id="churned", policy="naive",
                               arrival_time=0.4),
            ],
            build_catalog(),
            stem_eviction="count",
            stem_max_size=32,
        )
        engine.run()
        engine.retire("churned")
        result = engine.run()
        for stats in result.stem_stats.values():
            for name, value in stats.items():
                assert type(value) is int, (name, value)

    def test_option_table_names_the_shared_set(self):
        assert set(OPTION_SETTINGS) == set(EngineConfig.OPTIONS)
        assert len(EngineConfig.OPTIONS) == 6

    def test_entry_points_reject_stem_index_kind_as_unknown(self):
        # SteM indexes have one shape; the option that picked another went.
        admission = QueryAdmission(JOIN_SQL, query_id="a")
        unknown = r"\(\) got unknown option\(s\): stem_index_kind"
        with pytest.raises(ExecutionError, match="execute" + unknown):
            execute(JOIN_SQL, build_catalog(), stem_index_kind="hash")
        with pytest.raises(ExecutionError, match="run_multi" + unknown):
            run_multi([admission], build_catalog(), stem_index_kind="hash")
        with pytest.raises(ExecutionError, match="run_churn" + unknown):
            run_churn([], build_catalog(), stem_index_kind="sorted")

    @pytest.mark.parametrize(
        "bound",
        [
            {"stem_window": 12},
            {"stem_eviction": "count", "stem_max_size": 12, "stem_window": 12},
            {"stem_eviction": "reference-window", "stem_max_size": 12, "stem_window": 12},
            {"stem_eviction": "time-window", "stem_window": 12, "stem_max_size": 12},
        ],
        ids=["window-alone", "count+window", "reference-window+window", "time-window+max_size"],
    )
    def test_a_bound_its_policy_does_not_read_is_rejected(self, bound):
        # Dropping the bound silently would run with unbounded (or
        # differently bounded) SteMs; every entry point refuses it instead.
        admission = QueryAdmission(JOIN_SQL, query_id="a", policy="naive")
        with pytest.raises(ExecutionError, match="eviction"):
            execute(JOIN_SQL, build_catalog(), **bound)
        with pytest.raises(ExecutionError, match="eviction"):
            run_multi([admission], build_catalog(), **bound)
        with pytest.raises(ExecutionError, match="eviction"):
            run_churn([], build_catalog(), **bound)
        with pytest.raises(ExecutionError, match="eviction"):
            MultiQueryEngine([], build_catalog(), continuous=True, **bound)

    @pytest.mark.parametrize("name", EngineConfig.OPTIONS)
    def test_every_entry_point_accepts_the_option(self, name):
        # Each shared option reaches all three entry points with a
        # non-default value; only the SteM bounds may shrink the answer.
        options = OPTION_SETTINGS[name]
        full = identity(execute(JOIN_SQL, build_catalog(), policy="naive"))
        answers = [
            identity(execute(JOIN_SQL, build_catalog(), policy="naive", **options)),
            identity(run_multi(
                [QueryAdmission(JOIN_SQL, query_id="a", policy="naive")],
                build_catalog(), **options,
            )["a"]),
            identity(run_churn(
                [ChurnEvent(time=0.0, action="admit",
                            admission=QueryAdmission(JOIN_SQL, query_id="a",
                                                     policy="naive"))],
                build_catalog(), **options,
            )["a"]),
        ]
        bounded = name in ("stem_max_size", "stem_eviction", "stem_window")
        for answer in answers:
            assert answer, options
            if bounded:
                assert set(answer) < set(full), options
            else:
                assert answer == full, options


#: One non-default, valid setting per shared engine option (the eviction
#: policy needs its bound beside it).
OPTION_SETTINGS = {
    "cost_model": {"cost_model": CostModel(route_cost=0.0005)},
    "strict_constraints": {"strict_constraints": True},
    "batch_size": {"batch_size": 8},
    "stem_max_size": {"stem_max_size": 12},
    "stem_eviction": {"stem_eviction": "time-window", "stem_window": 12},
    # A window bounds time-window eviction only (alone it is rejected, see
    # test_a_bound_its_policy_does_not_read_is_rejected).
    "stem_window": {"stem_eviction": "time-window", "stem_window": 6},
}


class TestBoundedAnswers:
    """A bounded SteM forgets rows but never invents a match: every result
    of a bounded run belongs to its query's complete answer.  (A row that
    left the window and is delivered again may join again, so a windowed
    answer can repeat a result.)"""

    @pytest.mark.parametrize(
        "bound",
        [
            {"stem_eviction": "count", "stem_max_size": 24},
            {"stem_eviction": "time-window", "stem_window": 24},
        ],
        ids=["count", "time-window"],
    )
    @pytest.mark.parametrize("entry", ["run_multi", "run_churn"])
    def test_bounded_answers_are_sound(self, entry, bound):
        if entry == "run_multi":
            workload = staggered_fleet_workload(n_queries=3, stagger=2.0,
                                                rows=60, seed=3)
            admissions = list(workload.admissions)
            bounded = run_multi(admissions, workload.catalog, **bound)
        else:
            workload = churn_workload(duration=20.0, rows=60, seed=3)
            admissions = [event.admission for event in workload.events
                          if event.action == "admit"]
            bounded = run_churn(workload.events, workload.catalog, **bound)
        assert sum(stats["evictions"] for stats in bounded.stem_stats.values()) > 0
        assert {a.query_id for a in admissions} == set(bounded.results)
        assert bounded.total_rows > 0
        for admission in admissions:
            complete = set(identity(execute(admission.query, workload.catalog,
                                            policy="naive")))
            answer = set(identity(bounded[admission.query_id]))
            assert answer <= complete, admission.query_id


def fleet_digest(result) -> str:
    text = repr([
        (query_id, result[query_id].identities(), result[query_id].completion_time)
        for query_id in sorted(result.results)
    ])
    return hashlib.sha256(text.encode()).hexdigest()


class TestRemovedSharding:
    """Hash-partitioned SteMs are gone; ``shards`` survives only as the
    ``MultiQueryEngine`` keyword the e2e harness passes, and it accepts
    nothing but None or 1."""

    def test_shards_one_equals_the_default(self):
        def run(**options):
            admissions = [
                QueryAdmission(JOIN_SQL, query_id="a", policy="naive",
                               trace=TraceLog()),
                QueryAdmission(f"{JOIN_SQL} AND R.a < 6", query_id="b",
                               policy="benefit", arrival_time=0.3,
                               trace=TraceLog()),
            ]
            result = MultiQueryEngine(admissions, build_catalog(), **options).run()
            traces = [
                [(record.time, record.kind, record.detail) for record in a.trace]
                for a in admissions
            ]
            return result, traces

        (one, one_traces), (default, default_traces) = run(shards=1), run()
        assert default["a"].row_count > 0
        for query_id in ("a", "b"):
            assert one[query_id].identities() == default[query_id].identities()
        assert one_traces == default_traces

    @pytest.mark.parametrize("shards", [0, 2, 4])
    def test_any_other_shard_count_raises(self, shards):
        with pytest.raises(ExecutionError, match=f"shards={shards}.*removed"):
            MultiQueryEngine([JOIN_SQL], build_catalog(), shards=shards)

    def test_entry_points_reject_shards_as_unknown(self):
        admission = QueryAdmission(JOIN_SQL, query_id="a")
        with pytest.raises(ExecutionError, match=r"execute\(\) got unknown option\(s\): shards"):
            execute(JOIN_SQL, build_catalog(), shards=1)
        with pytest.raises(ExecutionError, match=r"run_multi\(\) got unknown option\(s\): shards"):
            run_multi([admission], build_catalog(), shards=1)
        with pytest.raises(ExecutionError, match=r"run_churn\(\) got unknown option\(s\): shards"):
            run_churn([], build_catalog(), shards=1)

    def test_repro_shards_env_changes_nothing(self, monkeypatch):
        def digest():
            workload = staggered_fleet_workload(n_queries=3, stagger=2.0, rows=60)
            return fleet_digest(run_multi(workload.admissions, workload.catalog))

        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        default = digest()
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert digest() == default

    def test_shutdown_shard_pool_has_nothing_to_stop(self):
        from repro.core.partition import shutdown_shard_pool

        assert shutdown_shard_pool() is False


#: Each removed option that the e2e harness still passes to
#: ``MultiQueryEngine``: the settings it accepts, one it rejects with the
#: error that names the removal, and the env switch it used to read.
REMOVED_OPTIONS = {
    "columnar": ((None, False), True, "columnar data plane was removed",
                 ("REPRO_COLUMNAR_BACKEND", "numpy")),
    "compiled_probes": ((None, True, False), "yes", "there is one probe path",
                        ("REPRO_INTERPRETED_PROBES", "1")),
}


@pytest.mark.parametrize("option", sorted(REMOVED_OPTIONS))
class TestRemovedOptions:
    """The columnar data plane and the interpreted probe path are gone;
    ``columnar`` and ``compiled_probes`` survive only as the
    ``MultiQueryEngine`` keywords the e2e harness passes, accept only the
    values it passes, and select nothing."""

    def test_accepted_values_equal_the_default(self, option):
        def run(**options):
            admissions = [
                QueryAdmission(JOIN_SQL, query_id="a", policy="naive",
                               trace=TraceLog()),
                QueryAdmission(f"{JOIN_SQL} AND R.a < 6", query_id="b",
                               policy="lottery", arrival_time=0.3,
                               trace=TraceLog()),
            ]
            result = MultiQueryEngine(
                admissions, build_catalog(), batch_size=4, **options
            ).run()
            traces = [
                [(record.time, record.kind, record.detail) for record in a.trace]
                for a in admissions
            ]
            identities = {query_id: result[query_id].identities()
                          for query_id in result.results}
            return identities, result.stem_stats, traces

        default = run()
        assert default[0]["a"]
        for value in REMOVED_OPTIONS[option][0]:
            assert run(**{option: value}) == default, value

    def test_other_values_raise(self, option):
        _, rejected, message, _ = REMOVED_OPTIONS[option]
        with pytest.raises(ExecutionError, match=message):
            MultiQueryEngine([JOIN_SQL], build_catalog(), **{option: rejected})

    def test_entry_points_reject_the_option_as_unknown(self, option):
        admission = QueryAdmission(JOIN_SQL, query_id="a")
        unknown = rf"\(\) got unknown option\(s\): {option}"
        with pytest.raises(ExecutionError, match="execute" + unknown):
            execute(JOIN_SQL, build_catalog(), **{option: False})
        with pytest.raises(ExecutionError, match="run_multi" + unknown):
            run_multi([admission], build_catalog(), **{option: False})
        with pytest.raises(ExecutionError, match="run_churn" + unknown):
            run_churn([], build_catalog(), **{option: False})

    def test_former_env_switch_changes_nothing(self, option, monkeypatch):
        variable, value = REMOVED_OPTIONS[option][3]

        def digest():
            workload = staggered_fleet_workload(n_queries=3, stagger=2.0, rows=60)
            return fleet_digest(run_multi(workload.admissions, workload.catalog))

        monkeypatch.delenv(variable, raising=False)
        default = digest()
        monkeypatch.setenv(variable, value)
        assert digest() == default


class TestNumpyFree:
    def test_numpy_is_never_imported(self):
        # A fresh interpreter: ``import repro``, a shared-SteM fleet and a
        # fan-out join (75 matches per probe) leave numpy unloaded.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == "[False, False, False] True 5550".split()


_IMPORT_PROBE = """
import sys
import repro
from repro.engine.api import execute
from repro.engine.multi import MultiQueryEngine
from repro.storage import Catalog, Schema, Table
from repro.storage.datagen import make_source_r, make_source_t

loaded = ["numpy" in sys.modules]
catalog = Catalog()
catalog.add_table(make_source_r(40, 10, seed=11))
catalog.add_table(make_source_t(40, seed=12))
catalog.add_scan("R", rate=100.0)
catalog.add_scan("T", rate=80.0)
sql = "SELECT * FROM R, T WHERE R.key = T.key"
fleet = MultiQueryEngine([sql, sql + " AND R.a < 5"], catalog)
rows = sum(result.row_count for _, result in fleet.run().items())
loaded.append("numpy" in sys.modules)

catalog = Catalog()
for name in ("A", "B"):
    pairs = [(i, i % 2) for i in range(150)]
    catalog.add_table(Table(name, Schema.of("id:int", "value:int"), pairs))
    catalog.add_scan(name, rate=100.0)
fanout = execute("SELECT * FROM A, B WHERE A.value = B.value AND A.id < B.id", catalog)
loaded.append("numpy" in sys.modules)
print(loaded, rows > 0, fanout.row_count)
"""
