"""Tests for the eddy router itself: registration, backpressure, termination."""

import pytest

from repro.errors import ExecutionError
from repro.core.costs import CostModel
from repro.core.eddy import Eddy
from repro.core.modules.selection import SelectionModule
from repro.core.policies import NaivePolicy
from repro.engine.multi import MultiQueryEngine
from repro.query.predicates import selection
from repro.sim.simulator import Simulator
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_t
from tests.conftest import single_query_engine
from tests.helpers import layout_over, singleton_tuple


def small_engine(**kwargs) -> MultiQueryEngine:
    catalog = Catalog()
    catalog.add_table(make_source_r(30, 10, seed=5))
    catalog.add_table(make_source_t(30, seed=6))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=100.0)
    return single_query_engine(
        "SELECT * FROM R, T WHERE R.key = T.key", catalog, policy="naive", **kwargs
    )


class TestRegistration:
    def test_duplicate_module_names_rejected(self):
        eddy = Eddy(Simulator(), NaivePolicy(), layout=layout_over("R"))
        module = SelectionModule(selection("R.a", "<", 5), name="sm")
        eddy.register_selection(module)
        with pytest.raises(ExecutionError):
            eddy.register_selection(SelectionModule(selection("R.a", ">", 5), name="sm"))

    def test_scan_am_registry_and_helpers(self):
        eddy = small_engine().eddy_of("q0")
        assert eddy.has_scan_am("R")
        assert eddy.has_scan_am("T")
        assert not eddy.has_scan_am("Z")
        wait = eddy.expected_scan_wait("T")
        assert wait is not None and wait > 0
        assert eddy.expected_scan_wait("Z") is None


class TestExecutionMechanics:
    def test_outputs_and_series_are_consistent(self):
        engine = small_engine()
        result = engine.run()["q0"]
        assert result.row_count == 30
        series = result.output_series
        assert series.final_count == 30
        assert series.points == tuple(sorted(series.points))
        assert engine.eddy_of("q0").completion_time == series.final_time

    def test_termination_leaves_no_pending_work(self):
        engine = small_engine()
        engine.run()
        assert engine.simulator.pending_events == 0
        eddy = engine.eddy_of("q0")
        assert not eddy._ready
        for module in eddy.modules.values():
            assert not module.queue.items and not module.busy
        for ams in eddy.index_ams.values():
            assert all(am.outstanding_lookups == 0 for am in ams)

    def test_eddy_stats_populated(self):
        engine = small_engine()
        result = engine.run()["q0"]
        assert result.eddy_stats["routings"] > 60
        assert result.eddy_stats["retired"] > 0

    def test_strict_constraints_mode_runs_clean(self):
        engine = small_engine(strict_constraints=True)
        result = engine.run()["q0"]
        assert result.row_count == 30

    def test_run_until_truncates_execution(self):
        engine = small_engine()
        result = engine.run(until=0.05)["q0"]
        assert result.final_time <= 0.06
        assert result.row_count < 30

    def test_route_cost_slows_virtual_completion(self):
        fast = small_engine(cost_model=CostModel(route_cost=1e-5)).run()["q0"]
        slow = small_engine(cost_model=CostModel(route_cost=5e-3)).run()["q0"]
        assert slow.final_time > fast.final_time

    def test_max_routing_guard(self):
        engine = small_engine()
        engine.eddy_of("q0").max_routing_steps = 10
        with pytest.raises(ExecutionError):
            engine.run()

    def test_preference_predicates_set_priority(self):
        catalog = Catalog()
        catalog.add_table(make_source_r(20, 5, seed=1))
        catalog.add_table(make_source_t(20, seed=2))
        catalog.add_scan("R", rate=100.0)
        catalog.add_scan("T", rate=100.0)
        engine = single_query_engine(
            "SELECT * FROM R, T WHERE R.key = T.key",
            catalog,
            policy="naive",
            preferences=[selection("R.a", "<", 2, priority=3.0)],
        )
        result = engine.run()["q0"]
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

    def _failed_tuples(self, count, layout):
        table = make_source_r(max(count, 2), 2, seed=9)
        tuples = []
        for row in table.rows[:count]:
            tuple_ = singleton_tuple("R", row, layout=layout)
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
        layout = layout_over("R")
        eddy = Eddy(
            Simulator(), RecordingPolicy(), trace=trace, batch_size=batch_size, layout=layout
        )
        tuples = self._failed_tuples(3, layout)
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
        engine = single_query_engine(
            "SELECT * FROM R, T WHERE R.key = T.key AND R.a < 4",
            catalog,
            policy="naive",
            trace=trace,
        )
        result = engine.run()["q0"]
        stats = engine.eddy_of("q0").stats
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


class TestBulkHandOff:
    """``to_eddy_all`` of k items is indistinguishable from k ``to_eddy``s."""

    QUERY = "SELECT * FROM R, T WHERE R.key = T.key"

    def _eddy(self, policy_name):
        from repro.core.policies import make_policy
        from repro.query.layout import PlanLayout
        from repro.query.parser import parse_query

        calls = []
        policy = make_policy(policy_name)
        hook = policy.on_producer_output

        def recording(module, item, eddy):
            calls.append((module.name, getattr(item, "tuple_id", item), eddy.now))
            hook(module, item, eddy)

        policy.on_producer_output = recording
        eddy = Eddy(
            Simulator(), policy, query_id="q1", layout=PlanLayout(parse_query(self.QUERY))
        )
        eddy.preferences = [selection("R.a", "<", 1, priority=3.0)]
        source = SelectionModule(selection("R.a", "<", 99), name="sm")
        eddy.register_selection(source)
        # Off the origin: the hand-off reads the clock and the event counter.
        eddy.sim.schedule(1.5, lambda: None, "warm-up")
        eddy.sim.run()
        return eddy, source, calls

    def _items(self, layout):
        from repro.core.tuples import (
            EOTTuple, QTuple, TupleIdAllocator, install_id_allocator,
        )

        install_id_allocator(TupleIdAllocator(start=100))
        try:
            r_rows = make_source_r(4, 2, seed=3).rows
            t_rows = make_source_t(4, seed=4).rows
            routed = singleton_tuple("R", r_rows[2], layout=layout)
            routed.record_visit("sm")  # a bounce-back: no partial-series entry
            return [
                singleton_tuple("R", r_rows[0], layout=layout),
                QTuple({"R": r_rows[1], "T": t_rows[1]}, layout=layout),
                EOTTuple(table="T", alias="T", am_name="am:T_scan"),
                QTuple({"R": r_rows[3], "T": t_rows[3]}, layout=layout),
                routed,
            ]
        finally:
            install_id_allocator()

    @staticmethod
    def _observed(eddy, calls):
        return {
            "hook calls": calls,
            "ready": [getattr(item, "tuple_id", item) for item in eddy._ready],
            "partial": eddy.partial_series,
            "wake-ups": [(e.time, e.sequence, e.label) for e in eddy.sim.upcoming()],
            "state": [
                (item.query_id, item.priority, item.layout is eddy.layout)
                for item in eddy._ready
                if hasattr(item, "tuple_id")
            ],
        }

    @pytest.mark.parametrize("policy_name", ["naive", "lottery", "benefit"])
    def test_same_as_single_hand_offs(self, policy_name):
        one_by_one, source, single_calls = self._eddy(policy_name)
        for item in self._items(one_by_one.layout):
            one_by_one.to_eddy(item, source)
        bulk, source, bulk_calls = self._eddy(policy_name)
        bulk.to_eddy_all(self._items(bulk.layout), source)
        expected = self._observed(one_by_one, single_calls)
        assert self._observed(bulk, bulk_calls) == expected
        assert len(expected["hook calls"]) == 5
        assert len(expected["wake-ups"]) == 1  # armed once, at the first append
        assert list(expected["partial"].values()) == [[1.5, 1.5]]
        assert {priority for _, priority, _ in expected["state"]} == {0.0, 3.0}
        # An eddy whose routing is already armed arms nothing more.
        bulk.to_eddy_all(self._items(bulk.layout), source)
        assert len(bulk.sim.upcoming()) == 1

    def test_no_op_on_a_retired_eddy(self):
        eddy, source, calls = self._eddy("lottery")
        eddy.shutdown()
        eddy.to_eddy_all(self._items(eddy.layout), source)
        eddy.to_eddy(self._items(eddy.layout)[0], source)
        assert not calls and not eddy._ready and not eddy.sim.upcoming()
        assert eddy.partial_series == {}


class TestOutputColumns:
    """Results are kept as two columns; ``outputs`` is a view over them."""

    def test_outputs_view_agrees_with_the_columns(self):
        engine = small_engine()
        result = engine.run()["q0"]
        eddy = engine.eddy_of("q0")
        times, tuples = eddy.output_times, eddy.output_tuples
        outputs = eddy.outputs
        assert len(outputs) == len(times) == len(tuples) == 30
        assert [(r.time, r.tuple) for r in outputs] == list(zip(times, tuples))
        assert [r.tuple for r in outputs[:7]] == tuples[:7]
        assert [r.time for r in outputs[10:20:3]] == times[10:20:3]
        assert (outputs[-1].time, outputs[-1].tuple) == (times[-1], tuples[-1])
        assert eddy.result_tuples == tuples and eddy.result_tuples is not tuples
        assert list(result.output_series) == [(t, n + 1) for n, t in enumerate(times)]
        assert eddy.completion_time == times[-1]
        # A view, not the store: editing it edits nothing.
        outputs.clear()
        assert len(eddy.outputs) == 30
        assert Eddy(Simulator(), NaivePolicy(), layout=eddy.layout).completion_time is None

    def test_suppressed_emits_reach_neither_column(self):
        engine = small_engine()
        suppressed = []

        def emit_filter(tuple_):
            if len(suppressed) < 12:
                suppressed.append(tuple_)
                return False
            return True

        engine.eddy_of("q0").emit_filter = emit_filter
        result = engine.run()["q0"]
        eddy = engine.eddy_of("q0")
        assert eddy.stats["suppressed_emits"] == 12
        assert len(eddy.output_times) == len(eddy.output_tuples) == 18
        assert result.row_count == 18 and len(eddy.outputs) == 18
        assert not {id(t) for t in suppressed} & {id(t) for t in eddy.output_tuples}

    @pytest.mark.parametrize("policy", ["naive", "lottery", "benefit"])
    @pytest.mark.parametrize("batch_size", [1, 8], ids=lambda b: f"batch={b}")
    def test_series_need_no_sort(self, policy, batch_size):
        """Output and partial-result times are appended under the
        simulator's monotone clock, so the collect path zips them with a
        counter instead of sorting (``Series.count_at`` bisects them)."""
        catalog = Catalog()
        catalog.add_table(make_source_r(40, 8, seed=5))
        catalog.add_table(make_source_t(40, seed=6))
        catalog.add_scan("R", rate=200.0)
        catalog.add_scan("T", rate=50.0)
        catalog.add_index("T", ["key"], latency=0.02)
        engine = single_query_engine(
            "SELECT * FROM R, T, R AS R2 WHERE R.key = T.key AND T.key = R2.key",
            catalog, policy=policy, batch_size=batch_size,
        )
        result = engine.run()["q0"]
        eddy = engine.eddy_of("q0")
        assert result.row_count and len(eddy.partial_series) >= 2
        assert eddy.output_times == sorted(eddy.output_times)
        for span, times in eddy.partial_series.items():
            assert times == sorted(times), span
            series = result.partial_series["+".join(sorted(span))]
            assert series.points == tuple((t, n + 1) for n, t in enumerate(times))
        assert result.output_series.points == tuple(sorted(result.output_series.points))
