"""Tests for the eddy router itself: registration, backpressure, termination."""

import pytest

from repro.errors import ExecutionError
from repro.core.costs import CostModel
from repro.core.eddy import Eddy
from repro.core.modules.selection import SelectionModule
from repro.core.policies import NaivePolicy
from repro.core.tuples import singleton_tuple
from repro.engine.stems_engine import StemsEngine
from repro.query.predicates import selection
from repro.sim.simulator import Simulator
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_t


def small_engine(**kwargs) -> StemsEngine:
    catalog = Catalog()
    catalog.add_table(make_source_r(30, 10, seed=5))
    catalog.add_table(make_source_t(30, seed=6))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=100.0)
    return StemsEngine(
        "SELECT * FROM R, T WHERE R.key = T.key", catalog, policy="naive", **kwargs
    )


class TestRegistration:
    def test_duplicate_module_names_rejected(self):
        eddy = Eddy(Simulator(), NaivePolicy())
        module = SelectionModule(selection("R.a", "<", 5), name="sm")
        eddy.register_selection(module)
        with pytest.raises(ExecutionError):
            eddy.register_selection(SelectionModule(selection("R.a", ">", 5), name="sm"))

    def test_scan_am_registry_and_helpers(self):
        engine = small_engine()
        assert engine.eddy.has_scan_am("R")
        assert engine.eddy.has_scan_am("T")
        assert not engine.eddy.has_scan_am("Z")
        wait = engine.eddy.expected_scan_wait("T")
        assert wait is not None and wait > 0
        assert engine.eddy.expected_scan_wait("Z") is None


class TestExecutionMechanics:
    def test_outputs_and_series_are_consistent(self):
        engine = small_engine()
        result = engine.run()
        assert result.row_count == 30
        series = result.output_series
        assert series.final_count == 30
        assert series.points == tuple(sorted(series.points))
        assert engine.eddy.completion_time == series.final_time

    def test_termination_leaves_no_pending_work(self):
        engine = small_engine()
        engine.run()
        assert engine.simulator.pending_events == 0
        assert not engine.eddy._ready
        for module in engine.eddy.modules.values():
            assert module.pending_work == 0

    def test_eddy_stats_populated(self):
        engine = small_engine()
        result = engine.run()
        assert result.eddy_stats["routings"] > 60
        assert result.eddy_stats["retired"] > 0

    def test_strict_constraints_mode_runs_clean(self):
        engine = small_engine(strict_constraints=True)
        result = engine.run()
        assert result.row_count == 30

    def test_run_until_truncates_execution(self):
        engine = small_engine()
        result = engine.run(until=0.05)
        assert result.final_time <= 0.06
        assert result.row_count < 30

    def test_route_cost_slows_virtual_completion(self):
        fast = small_engine(cost_model=CostModel(route_cost=1e-5)).run()
        slow = small_engine(cost_model=CostModel(route_cost=5e-3)).run()
        assert slow.final_time > fast.final_time

    def test_max_routing_guard(self):
        engine = small_engine()
        engine.eddy.max_routing_steps = 10
        with pytest.raises(ExecutionError):
            engine.run()

    def test_preference_predicates_set_priority(self):
        catalog = Catalog()
        catalog.add_table(make_source_r(20, 5, seed=1))
        catalog.add_table(make_source_t(20, seed=2))
        catalog.add_scan("R", rate=100.0)
        catalog.add_scan("T", rate=100.0)
        engine = StemsEngine(
            "SELECT * FROM R, T WHERE R.key = T.key",
            catalog,
            policy="naive",
            preferences=[selection("R.a", "<", 2, priority=3.0)],
        )
        result = engine.run()
        prioritized = [t for t in result.tuples if t.priority > 0]
        others = [t for t in result.tuples if t.priority == 0]
        assert prioritized and others
        assert all(t.value("R", "a") < 2 for t in prioritized)


class TestBackpressure:
    def test_bounded_join_module_queue_blocks_and_recovers(self):
        """Offers rejected by a full module queue are retried, not lost."""
        from repro.engine.joins_engine import EddyJoinsEngine, JoinSpec

        catalog = Catalog()
        catalog.add_table(make_source_r(50, 10, seed=2))
        catalog.add_table(make_source_t(50, seed=3))
        catalog.add_scan("R", rate=1000.0)  # floods the join module
        catalog.add_index("T", ["key"], latency=0.01)
        engine = EddyJoinsEngine(
            "SELECT * FROM R, T WHERE R.key = T.key",
            catalog,
            plan=[JoinSpec(kind="index", left=("R",), right="T",
                           index_columns=("key",), lookup_latency=0.01,
                           queue_capacity=4)],
        )
        result = engine.run()
        assert result.row_count == 50
        assert result.eddy_stats["blocked_offers"] > 0


class TestFailedTupleDrops:
    """Failed tuples leave the dataflow with trace + policy accounting."""

    def _failed_tuples(self, count):
        table = make_source_r(max(count, 2), 2, seed=9)
        tuples = []
        for row in table.rows[:count]:
            tuple_ = singleton_tuple("R", row)
            tuple_.failed = True
            tuples.append(tuple_)
        return tuples

    @pytest.mark.parametrize("batch_size", [1, 4], ids=lambda b: f"batch={b}")
    def test_failed_drops_traced_and_fed_back(self, batch_size):
        from repro.sim.tracing import TraceLog

        retired = []

        class RecordingPolicy(NaivePolicy):
            def on_retire(self, tuple_, eddy):
                retired.append(tuple_.tuple_id)

        trace = TraceLog()
        eddy = Eddy(Simulator(), RecordingPolicy(), trace=trace, batch_size=batch_size)
        tuples = self._failed_tuples(3)
        for tuple_ in tuples:
            eddy.to_eddy(tuple_)
        eddy.sim.run()
        assert eddy.stats["dropped_failed"] == 3
        # The policy's retirement feedback fired for every dropped tuple...
        assert sorted(retired) == sorted(t.tuple_id for t in tuples)
        # ...and the trace accounts for each departure.
        dropped = trace.filter("drop_failed")
        assert sorted(record.detail for record in dropped) == sorted(
            t.tuple_id for t in tuples
        )

    def test_full_run_trace_accounts_for_every_tuple(self):
        """output/retire/drop_failed/absorbed cover every routed tuple.

        The competing index AM on T makes the scan and the index deliver
        the same rows, so the T SteM absorbs duplicate builds — those
        departures must be traced too.
        """
        from repro.sim.tracing import TraceLog

        catalog = Catalog()
        catalog.add_table(make_source_r(30, 10, seed=5))
        catalog.add_table(make_source_t(30, seed=6))
        catalog.add_scan("R", rate=100.0)
        catalog.add_scan("T", rate=100.0)
        catalog.add_index("T", ["key"], latency=0.05)
        trace = TraceLog()
        engine = StemsEngine(
            "SELECT * FROM R, T WHERE R.key = T.key AND R.a < 4",
            catalog,
            policy="naive",
            trace=trace,
        )
        result = engine.run()
        stats = engine.eddy.stats
        assert stats["dropped_failed"] > 0
        assert stats["absorbed"] > 0
        assert trace.count("output") == result.row_count
        assert trace.count("drop_failed") == stats["dropped_failed"]
        assert trace.count("retire") == stats["retired"]
        assert trace.count("absorbed") == stats["absorbed"]
        # Every tuple that was ever routed eventually left the dataflow one
        # of the four ways (builds/probes/selections bounce back first).
        routed_ids = {record.detail[0] for record in trace.filter("route")}
        departed_ids = {
            record.detail
            for kind in ("output", "retire", "drop_failed", "absorbed")
            for record in trace.filter(kind)
        }
        assert routed_ids <= departed_ids
