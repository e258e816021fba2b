"""Exception safety of the eddy modules.

Module stats commit only after a service succeeds, and a raising user
predicate (or unhashable poison value) is quarantined through the runtime —
never silently counted, never allowed to wedge the run.  Wiring errors
(:class:`~repro.errors.ExecutionError`) are engine bugs and must still
propagate.
"""

from __future__ import annotations

import pytest

from repro.core.modules.selection import SelectionModule
from repro.core.modules.stem_module import SteMModule
from repro.core.stem import SteM
from repro.errors import ExecutionError
from repro.query.parser import parse_query
from repro.query.predicates import Predicate
from repro.storage.datagen import make_source_s
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.helpers import FakeRuntime, layout_over, singleton_tuple

R_SCHEMA = Schema.of("key:int", "a:int")
LAYOUT = layout_over("R", "S")


class Bomb(Predicate):
    """Raises on evaluation — a poisonous user predicate."""

    def aliases(self):
        return frozenset({"R", "S"})

    def evaluate(self, components):
        raise ValueError("poison")

    def __str__(self):
        return "bomb(R, S)"


def r_tuple(key=1, a=10, layout=LAYOUT):
    return singleton_tuple("R", Row("R", R_SCHEMA, (key, a)), layout=layout)


class TestSelectionExceptionSafety:
    def test_raising_predicate_quarantined(self):
        runtime = FakeRuntime(LAYOUT)
        module = SelectionModule(Bomb())
        module.attach(runtime)
        item = r_tuple()
        assert module.process(item) == []
        ((trapped, module_name, error),) = runtime.trapped
        assert trapped is item
        assert module_name == module.name
        assert isinstance(error, ValueError)
        # Quarantines are their own stat — neither a pass nor a drop.
        assert module.stats["passed"] == 0 and module.stats["dropped"] == 0
        assert module.stats["quarantined"] == 1

    def test_quarantine_scores_as_drop(self):
        # The quarantine-scoring bugfix: the early return used to skip the
        # stats/EMA accounting entirely, so a predicate raising on every
        # row kept recent_selectivity == 0.5 (the no-data prior) and routing
        # policies treated poison as average.
        runtime = FakeRuntime(LAYOUT)
        module = SelectionModule(Bomb())
        module.attach(runtime)
        for _ in range(10):
            assert module.process(r_tuple()) == []
        assert module.stats["quarantined"] == 10
        assert module.stats["passed"] == 0
        assert len(runtime.trapped) == 10
        # All outcomes were quarantines, so the predicate looks maximally
        # unselective — not frozen at the prior.
        assert module.recent_selectivity == 0.0

    def test_quarantine_mixes_into_selectivity_with_real_outcomes(self):
        runtime = FakeRuntime(LAYOUT)

        class SometimesBomb(Predicate):
            def aliases(self):
                return frozenset({"R"})

            def evaluate(self, components):
                a = components["R"]["a"]
                if a < 0:
                    raise ValueError("poison")
                return a < 50

            def __str__(self):
                return "sometimes-bomb(R)"

        module = SelectionModule(SometimesBomb())
        module.attach(runtime)
        module.process(r_tuple(a=10))   # pass
        module.process(r_tuple(a=90))   # drop
        module.process(r_tuple(a=-1))   # quarantine
        module.process(r_tuple(a=-2))   # quarantine
        assert module.stats == {
            **module.stats,
            "passed": 1, "dropped": 1, "quarantined": 2,
        }
        # The EMA seeded at the first outcome (1.0) then decayed through
        # three 0.0 outcomes — the two quarantines counted, so the value
        # sits below what pass+drop alone (two outcomes) would leave.
        expected = 1.0
        for _ in range(3):
            expected += SelectionModule.RECENT_ALPHA * (0.0 - expected)
        assert module.recent_selectivity == pytest.approx(expected)


class TestSteMModuleExceptionSafety:
    def make_module(self, runtime, predicates=None):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        module = SteMModule(
            stem, query.predicates if predicates is None else predicates
        )
        module.attach(runtime)
        return module

    def test_unhashable_build_value_quarantined_stats_untouched(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime)
        schema = Schema.of("x:int", "y:int")
        poison = singleton_tuple("S", Row("S", schema, ([1, 2], 0)), layout=LAYOUT)
        assert module.process(poison) == []
        assert len(runtime.trapped) == 1
        assert module.stats["builds"] == 0
        assert module.size == 0

    def test_raising_probe_predicate_quarantined_stats_untouched(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime, predicates=(Bomb(),))
        module.process(singleton_tuple("S", make_source_s(10).rows[4], layout=LAYOUT))
        assert module.stats["builds"] == 1
        # A layout of its own: the plan compiled for Bomb is cached on it.
        probe = r_tuple(a=4, layout=layout_over("R", "S"))
        probe.mark_built("R", 100.0)
        assert module.process(probe) == []
        assert len(runtime.trapped) == 1
        assert module.stats["probes"] == 0
        assert module.stats["results"] == 0
        # The SteM's own counters committed nothing for the failed probe.
        assert module.stem.stats["probes"] == 0

    def test_execution_error_is_never_trapped(self):
        runtime = FakeRuntime(LAYOUT)
        module = self.make_module(runtime)

        def broken_build(row, timestamp):
            raise ExecutionError("wiring bug")

        module.stem.build = broken_build
        with pytest.raises(ExecutionError, match="wiring bug"):
            module.process(singleton_tuple("S", make_source_s(5).rows[0], layout=LAYOUT))
        assert runtime.trapped == []
