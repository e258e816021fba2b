"""Tests for the eddy-routable modules: selections, AMs, SteM wrapper, joins.

The modules are exercised against a minimal fake runtime so their behaviour
(costs, bounce-backs, EOTs, dedup) can be checked in isolation from the eddy.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.modules.access import IndexAMModule, ScanAMModule
from repro.core.modules.joinmodule import IndexJoinModule, SymmetricHashJoinModule
from repro.core.modules.selection import SelectionModule
from repro.core.modules.stem_module import SteMModule
from repro.core.stem import SteM
from repro.core.tuples import EOTTuple, QTuple
from repro.query.parser import parse_query
from repro.query.predicates import selection
from repro.sim.simulator import Simulator
from repro.storage.catalog import IndexSpec, ScanSpec
from repro.storage.datagen import make_source_s, make_source_t
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.helpers import FakeRuntime, layout_over, singleton_tuple

R_SCHEMA = Schema.of("key:int", "a:int")
LAYOUT = layout_over("R", "S", "T")


def r_tuple(key=1, a=10):
    return singleton_tuple("R", Row("R", R_SCHEMA, (key, a)), layout=LAYOUT)


class TestRuntimeSurface:
    def test_the_eddy_and_the_fake_provide_every_member(self):
        # Modules call their runtime without probing for members, so the
        # protocol must be the whole surface and both runtimes must have it.
        from repro.core.eddy import Eddy
        from repro.core.modules.base import EddyRuntime
        from repro.core.policies import NaivePolicy

        surface = {
            name for name in vars(EddyRuntime)
            if not name.startswith("_")
        }
        assert {"layout", "live", "cancel", "quarantine_tuple", "note_absorbed"} <= surface
        eddy = Eddy(Simulator(), NaivePolicy(), layout=LAYOUT)
        for runtime in (eddy, FakeRuntime(LAYOUT)):
            missing = [name for name in surface if not hasattr(runtime, name)]
            assert not missing, (type(runtime).__name__, missing)
            assert runtime.layout is LAYOUT and runtime.live


class TestSelectionModule:
    def test_pass_and_drop(self):
        module = SelectionModule(selection("R.a", "<", 50))
        passing = r_tuple(a=10)
        assert module.process(passing) == [passing]
        assert passing.is_done(module.predicate)
        failing = r_tuple(a=90)
        # The failed tuple bounces back to the eddy, which drops it from the
        # dataflow with trace + policy accounting.
        assert module.process(failing) == [failing]
        assert failing.failed
        assert module.stats["passed"] == 1 and module.stats["dropped"] == 1

    def test_already_done_passes_through(self):
        module = SelectionModule(selection("R.a", "<", 50))
        tuple_ = r_tuple(a=90)
        tuple_.mark_done([module.predicate])
        assert module.process(tuple_) == [tuple_]
        assert not tuple_.failed

    def test_priority_propagation(self):
        module = SelectionModule(selection("R.a", "<", 50, priority=4.0))
        tuple_ = r_tuple(a=10)
        module.process(tuple_)
        assert tuple_.priority == 4.0

    def test_eot_passes_through(self):
        module = SelectionModule(selection("R.a", "<", 50))
        eot = EOTTuple(table="R", alias="R", am_name="scan")
        assert module.process(eot) == [eot]


class TestScanAM:
    def test_delivers_all_rows_then_eot(self):
        runtime = FakeRuntime(LAYOUT)
        table = make_source_t(20, seed=1)
        spec = ScanSpec(name="T_scan", table="T", rate=10.0)
        module = ScanAMModule(spec, table, "T")
        module.attach(runtime)
        module.start()
        runtime.sim.run()
        rows = [item for item in runtime.delivered if isinstance(item, QTuple)]
        eots = [item for item in runtime.delivered if isinstance(item, EOTTuple)]
        assert len(rows) == 20
        assert len(eots) == 1 and eots[0].is_scan_eot
        assert module.finished
        assert module.delivered == module.total == 20
        # Deliveries are paced at the scan rate: 20 rows at 10 rows/s = 2 s.
        assert runtime.sim.now == pytest.approx(2.0, abs=0.1)

    def test_stall_shifts_deliveries(self):
        runtime = FakeRuntime(LAYOUT)
        table = make_source_t(10, seed=1)
        spec = ScanSpec(name="T_scan", table="T", rate=10.0, stall_at=0.5, stall_duration=5.0)
        module = ScanAMModule(spec, table, "T")
        module.attach(runtime)
        module.start()
        runtime.sim.run(until=1.0)
        early = [item for item in runtime.delivered if isinstance(item, QTuple)]
        assert len(early) == 4  # rows at 0.1..0.4s; the rest shifted past 5.5s
        runtime.sim.run()
        assert len([i for i in runtime.delivered if isinstance(i, QTuple)]) == 10

    def test_probe_bounces_back(self):
        runtime = FakeRuntime(LAYOUT)
        module = ScanAMModule(ScanSpec(name="s", table="T"), make_source_t(5), "T")
        module.attach(runtime)
        probe = r_tuple()
        assert module.process(probe) == [probe]


class TestIndexAM:
    def make_module(self, runtime, latency=0.5, concurrency=1):
        table = make_source_s(50)
        spec = IndexSpec(name="S_idx", table="S", columns=("x",), latency=latency,
                         concurrency=concurrency)
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        module = IndexAMModule(spec, table, "S", query.predicates)
        module.attach(runtime)
        return module

    def test_probe_returns_matches_and_eot(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime)
        probe = r_tuple(a=7)
        bounced = module.process(probe)
        assert bounced == [probe]
        assert probe.is_resolved("S")
        runtime.sim.run()
        rows = [i for i in runtime.delivered if isinstance(i, QTuple)]
        eots = [i for i in runtime.delivered if isinstance(i, EOTTuple)]
        assert len(rows) == 1 and rows[0].value("S", "x") == 7
        assert len(eots) == 1 and eots[0].bound_values == (7,)
        assert runtime.sim.now == pytest.approx(0.5)

    def test_duplicate_keys_deduplicated(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime)
        module.process(r_tuple(key=1, a=7))
        module.process(r_tuple(key=2, a=7))
        module.process(r_tuple(key=3, a=8))
        runtime.sim.run()
        assert module.stats["lookups"] == 2
        assert module.stats["dedup_hits"] == 1
        assert len(module.lookup_series) == 2

    def test_sequential_lookups_queue_behind_each_other(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime, latency=1.0, concurrency=1)
        module.process(r_tuple(key=1, a=1))
        module.process(r_tuple(key=2, a=2))
        assert module.outstanding_lookups == 2
        assert module.expected_lookup_delay() == pytest.approx(3.0)
        runtime.sim.run()
        assert runtime.sim.now == pytest.approx(2.0)

    def test_concurrency_overlaps_lookups(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime, latency=1.0, concurrency=2)
        module.process(r_tuple(key=1, a=1))
        module.process(r_tuple(key=2, a=2))
        runtime.sim.run()
        assert runtime.sim.now == pytest.approx(1.0)

    def test_unbindable_probe_is_bounced_unchanged(self):
        runtime = FakeRuntime(LAYOUT)
        table = make_source_s(10)
        spec = IndexSpec(name="S_idx_y", table="S", columns=("y",), latency=0.1)
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")  # only binds x
        module = IndexAMModule(spec, table, "S", query.predicates)
        module.attach(runtime)
        probe = r_tuple(a=5)
        assert module.process(probe) == [probe]
        assert module.stats["unbindable"] == 1
        assert module.stats["lookups"] == 0

    def test_prioritised_probe_jumps_the_queue(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime, latency=1.0)
        module.process(r_tuple(key=1, a=1))
        module.process(r_tuple(key=2, a=2))  # queued behind key 1
        urgent = r_tuple(key=3, a=3)
        urgent.priority = 5.0
        module.process(urgent)
        runtime.sim.run()
        # The prioritised key (3) must have been looked up before key 2.
        lookup_order = [i.bound_values[0] for i in runtime.delivered
                        if isinstance(i, EOTTuple)]
        assert lookup_order.index(3) < lookup_order.index(2)

    def test_backlog_is_fifo_except_for_prioritised_keys(self):
        """One lookup at a time and a backlog: plain keys are issued in
        arrival order, each prioritised key goes to the head of what is
        still queued (so the latest urgent key is issued first), and
        ``stop()`` forgets whatever was not issued yet."""
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime, latency=1.0, concurrency=1)
        module.process(r_tuple(key=0, a=10))  # issued at once; the rest queue
        for a, priority in [(11, 0), (12, 0), (13, 5.0), (14, 0), (15, 2.0)]:
            probe = r_tuple(key=a, a=a)
            probe.priority = priority
            module.process(probe)
        assert module.outstanding_lookups == 6
        assert list(module._lookup_queue) == [(15,), (13,), (11,), (12,), (14,)]
        runtime.sim.run(until=3.5)
        issued = [i.bound_values[0] for i in runtime.delivered
                  if isinstance(i, EOTTuple)]
        assert issued == [10, 15, 13]
        assert module.outstanding_lookups == 3  # key 11 in flight, two queued
        module.stop()
        assert module.outstanding_lookups == 1
        runtime.sim.run()
        issued = [i.bound_values[0] for i in runtime.delivered
                  if isinstance(i, EOTTuple)]
        assert issued == [10, 15, 13, 11]


class TestSteMModule:
    def make_module(self, runtime):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        module = SteMModule(stem, "S", query.predicates)
        module.attach(runtime)
        return module

    def test_build_then_bounce(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime)
        s_tuple = singleton_tuple("S", make_source_s(5).rows[3], layout=LAYOUT)
        outputs = module.process(s_tuple)
        assert outputs == [s_tuple]
        assert "S" in s_tuple.built
        assert module.size == 1

    def test_duplicate_build_is_dropped(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime)
        row = make_source_s(5).rows[2]
        module.process(singleton_tuple("S", row, layout=LAYOUT))
        duplicate = singleton_tuple("S", row, layout=LAYOUT)
        outputs = module.process(duplicate)
        assert outputs == []
        assert module.stats["duplicates"] == 1
        assert runtime.absorbed == [duplicate]  # its departure is accounted

    def test_probe_produces_concatenations_and_resolution(self):
        runtime = FakeRuntime(LAYOUT, scan_aliases={"S"})
        module = self.make_module(runtime)
        module.process(singleton_tuple("S", make_source_s(10).rows[4], layout=LAYOUT))  # x = 4
        probe = r_tuple(a=4)
        probe.mark_built("R", 100.0)
        outputs = module.process(probe)
        results = [t for t in outputs if t is not probe]
        assert len(results) == 1 and results[0].aliases == {"R", "S"}
        assert probe in outputs  # the probe is bounced back for further routing
        assert probe.is_resolved("S")  # S has a scan AM in this runtime
        assert probe.stop_stem_probes

    def test_probe_without_scan_am_sets_probe_completion(self):
        runtime = FakeRuntime(LAYOUT, scan_aliases=set())
        module = self.make_module(runtime)
        probe = r_tuple(a=4)
        probe.mark_built("R", 100.0)
        module.process(probe)
        assert probe.probe_completion_alias == "S"
        assert not probe.is_resolved("S")

    def test_eot_build(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime)
        assert module.process(EOTTuple(table="S", alias="S", am_name="scan")) == []
        assert module.scan_complete


class TestCoverageOverASharedSteM:
    """Two queries' modules over one SteM on S, which only an index reaches
    (no scan on S): a probe with timestamp-suppressed matches is covered
    exactly when the probing query carried every row the SteM holds."""

    S_SCHEMA = Schema.of("x:int", "y:int")

    def two_modules(self):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        clock = itertools.count(1)  # one build-timestamp order, as in an engine
        modules = []
        for _ in range(2):
            runtime = FakeRuntime(LAYOUT)
            runtime._timestamps = clock
            module = SteMModule(stem, "S", query.predicates)
            module.attach(runtime)
            modules.append(module)
        return stem, clock, modules

    def s_tuple(self, x, y):
        return singleton_tuple("S", Row("S", self.S_SCHEMA, (x, y)), layout=LAYOUT)

    def lookup_eot(self, x):
        return EOTTuple(
            table="S", alias="S", am_name="am:S_idx_x",
            bound_columns=("x",), bound_values=(x,),
        )

    def test_probe_is_exhausted_when_its_query_carried_every_row(self):
        stem, clock, (first, second) = self.two_modules()
        probe = r_tuple(a=4)
        probe.mark_built("R", float(next(clock)))
        # The other query inserts a match first; this query carries it too
        # (adopting the shared timestamp) and builds a second one itself.
        assert second.process(self.s_tuple(4, 4)) != []
        adopted = self.s_tuple(4, 4)
        assert first.process(adopted) == [adopted]
        assert first.process(self.s_tuple(4, 5)) != []
        first.process(self.lookup_eot(4))
        assert len(stem) == 2
        outputs = first.process(probe)
        # Both matches were built after the probe: suppressed, yet each will
        # probe R from the other side within this query's dataflow.
        assert outputs == [probe]
        assert "S" in probe.exhausted and probe.is_resolved("S")
        assert probe.probe_completion_alias is None

    def test_probe_takes_the_am_path_when_the_other_query_built_a_match(self):
        stem, clock, (first, second) = self.two_modules()
        probe = r_tuple(a=4)
        probe.mark_built("R", float(next(clock)))
        assert first.process(self.s_tuple(4, 5)) != []
        # A suppressed match this query never carried: it reaches this query
        # only through an index lookup of its own.
        assert second.process(self.s_tuple(4, 4)) != []
        first.process(self.lookup_eot(4))
        outputs = first.process(probe)
        assert outputs == [probe]
        assert "S" not in probe.exhausted and not probe.is_resolved("S")
        assert probe.probe_completion_alias == "S"


class TestJoinModules:
    def test_shj_module_joins_both_sides(self):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        module = SymmetricHashJoinModule(
            "join", query.predicates, ["R"], ["T"]
        )
        t_table = make_source_t(10)
        r_t = r_tuple(key=t_table.rows[0]["key"], a=1)
        assert module.process(r_t) == []
        t_t = singleton_tuple("T", t_table.rows[0], layout=LAYOUT)
        results = module.process(t_t)
        assert len(results) == 1
        assert results[0].aliases == {"R", "T"}
        assert results[0].is_done(query.predicates[0])
        # Both sides stay stored: a later R tuple joins the stored T tuple.
        again = module.process(r_tuple(key=t_table.rows[0]["key"], a=2))
        assert [result.aliases for result in again] == [{"R", "T"}]

    def test_shj_module_rejects_unknown_shape(self):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        module = SymmetricHashJoinModule("join", query.predicates, ["R"], ["T"])
        stranger = singleton_tuple("S", make_source_s(3).rows[0], layout=LAYOUT)
        outputs = module.process(stranger)
        assert outputs == [stranger]
        assert module.stats["unroutable"] == 1

    def test_index_join_module_cache_and_blocking_cost(self):
        runtime = FakeRuntime(LAYOUT)
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        module = IndexJoinModule(
            "ij", query.predicates, ["R"], "S", make_source_s(20), ["x"],
            lookup_latency=2.0, cache_hit_cost=0.001,
        )
        module.attach(runtime)
        first = r_tuple(key=1, a=5)
        assert module.service_time(first) == 2.0  # cold: a remote lookup
        results = module.process(first)
        assert len(results) == 1
        second = r_tuple(key=2, a=5)
        assert module.service_time(second) == 0.001  # warm: cached
        module.process(second)
        assert module.stats["lookups"] == 1
        assert module.stats["cache_hits"] == 1
