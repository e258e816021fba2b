"""Equivalence suite: compiled ProbePlans vs the interpreted oracle.

The compiled probe path must be a pure optimisation: for every probe
situation, :meth:`SteM.probe_with_plan` has to produce the same results in
the same order, the same coverage verdict, and the same
suppressed/examined accounting as the interpreted reference
(``tests/reference/interpreted_probe.py``) — including NULL (None)
semantics, self-joins, and the TimeStamp constraint.
The property tests here generate random data, timestamps and predicate
subsets and assert exactly that; ``tests/engine/test_probe_path_identity.py``
runs whole engines on both paths and asserts byte-identical results *and
traces*.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.modules.stem_module import SteMModule
from repro.core.stem import SteM
from repro.core.tuples import QTuple
from repro.query.predicates import Comparison, InList, TruePredicate, selection
from repro.query.probeplan import ProbePlan
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.reference.interpreted_probe import interpreted_probe
from tests.helpers import equi_join, layout_over, singleton_tuple

R_SCHEMA = Schema.of("key:int", "a:int", "b:int")
S_SCHEMA = Schema.of("x:int", "y:int")
LAYOUT = layout_over("R", "S", "T", "r1", "r2")


def r_row(key, a, b=0):
    return Row("R", R_SCHEMA, (key, a, b))


def s_row(x, y):
    return Row("S", S_SCHEMA, (x, y))


def make_stem(join_columns=("x",)) -> SteM:
    return SteM("S", aliases=("S",), join_columns=join_columns)


def outcome_facts(outcome):
    return (
        [(t.identity(), t.done_mask, dict(t.timestamps)) for t in outcome.results],
        outcome.all_matches_known,
        outcome.candidates_examined,
        outcome.suppressed_by_timestamp,
    )


def both_paths(rows_with_ts, probe_maker, predicates, target="S", eots=()):
    """Run interpreted and compiled probes on identically-built SteMs."""
    outcomes = []
    for compiled in (False, True):
        stem = make_stem()
        for row, ts in rows_with_ts:
            stem.build(row, ts)
        for eot in eots:
            stem.build_eot(eot)
        probe = probe_maker()
        if compiled:
            plan = ProbePlan.compile(
                predicates, target, probe.components, target_schema=stem.row_schema
            )
            outcomes.append(stem.probe_with_plan(probe, plan))
        else:
            outcomes.append(interpreted_probe(stem, probe, target, predicates))
    return outcomes


def assert_timestamp_only_suppresses(rows_with_ts, probe_maker, predicates, guarded):
    """The interpreted reference without TimeStamp (the engine's probe has
    no switch) finds what ``guarded`` found plus exactly the matches it
    suppressed: those built no earlier than the probe."""
    stem = make_stem()
    for row, ts in rows_with_ts:
        stem.build(row, ts)
    probe = probe_maker()
    unguarded = interpreted_probe(stem, probe, "S", predicates, enforce_timestamp=False)
    facts, known, examined, suppressed = outcome_facts(unguarded)
    assert suppressed == 0
    kept = [fact for fact in facts if probe.timestamp > fact[2]["S"]]
    assert outcome_facts(guarded) == (kept, known, examined, len(facts) - len(kept))


# -- value / predicate generators ------------------------------------------------

values = st.one_of(st.integers(min_value=-3, max_value=5), st.none())
timestamps = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def predicate_pool():
    return [
        equi_join("R.a", "S.x"),
        equi_join("R.b", "S.y"),
        Comparison("R.b", "<", "S.y"),
        Comparison("S.y", ">=", "R.a"),
        selection("S.y", "<", 4),
        selection("S.x", "!=", 2),
        Comparison("S.x", "=", 1),          # constant equality binding
        InList("S.y", [0, 1, 2, None]),
        TruePredicate(),
    ]


@pytest.mark.slow
class TestPropertyEquivalence:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_probe_situations_are_path_identical(self, data):
        stored = data.draw(
            st.lists(st.tuples(values, values), min_size=0, max_size=12),
            label="stored rows",
        )
        rows_with_ts = [
            (s_row(x, y), float(position + 1))
            for position, (x, y) in enumerate(stored)
        ]
        pool = predicate_pool()
        chosen = data.draw(
            st.lists(
                st.sampled_from(range(len(pool))), min_size=0, max_size=5, unique=True
            ),
            label="predicates",
        )
        predicates = [pool[index] for index in sorted(chosen)]
        key = data.draw(values, label="probe key")
        a = data.draw(values, label="probe a")
        b = data.draw(values, label="probe b")
        probe_ts = data.draw(timestamps, label="probe timestamp")
        enforce = data.draw(st.booleans(), label="enforce timestamp")

        def probe_maker():
            probe = singleton_tuple("R", r_row(key, a, b), layout=LAYOUT)
            probe.mark_built("R", probe_ts)
            return probe

        interpreted, compiled = both_paths(rows_with_ts, probe_maker, predicates)
        assert outcome_facts(compiled) == outcome_facts(interpreted)
        if not enforce:
            assert_timestamp_only_suppresses(rows_with_ts, probe_maker, predicates, compiled)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_unbuilt_probes_and_composite_probes(self, data):
        """Un-built probes carry an infinite timestamp and receive all
        matches; composite probes bind through any spanned alias."""
        stored = data.draw(st.lists(st.tuples(values, values), max_size=8))
        rows_with_ts = [
            (s_row(x, y), float(position + 1))
            for position, (x, y) in enumerate(stored)
        ]
        predicates = [equi_join("R.a", "S.x"), Comparison("T.c", "<=", "S.y")]
        t_schema = Schema.of("c:int")
        t_value = data.draw(values)
        a = data.draw(values)

        def probe_maker():
            probe = QTuple(
                {"R": r_row(0, a), "T": Row("T", t_schema, (t_value,))},
                timestamps={"R": 2.0, "T": 3.0},
                layout=LAYOUT,
            )
            return probe

        interpreted, compiled = both_paths(rows_with_ts, probe_maker, predicates)
        assert outcome_facts(compiled) == outcome_facts(interpreted)


class TestConstraintEquivalence:
    def test_timestamp_constraint_and_suppression_counts(self):
        rows = [(s_row(1, 1), 5.0), (s_row(1, 2), 15.0)]
        predicates = [equi_join("R.a", "S.x")]

        def probe_maker():
            probe = singleton_tuple("R", r_row(0, 1), layout=LAYOUT)
            probe.mark_built("R", 10.0)
            return probe

        interpreted, compiled = both_paths(rows, probe_maker, predicates)
        assert outcome_facts(compiled) == outcome_facts(interpreted)
        assert interpreted.suppressed_by_timestamp == 1
        assert_timestamp_only_suppresses(rows, probe_maker, predicates, compiled)

    def test_eot_coverage_is_path_identical(self):
        from repro.core.tuples import EOTTuple

        rows = [(s_row(1, 1), 1.0)]
        predicates = [equi_join("R.a", "S.x")]
        eot = EOTTuple(
            table="S", alias="S", am_name="am:idx:S",
            bound_columns=("x",), bound_values=(1,),
        )

        def probe_maker():
            probe = singleton_tuple("R", r_row(0, 1), layout=LAYOUT)
            probe.mark_built("R", 9.0)
            return probe

        interpreted, compiled = both_paths(
            rows, probe_maker, predicates, eots=(eot,)
        )
        assert interpreted.all_matches_known and compiled.all_matches_known
        assert outcome_facts(compiled) == outcome_facts(interpreted)


class TestSelfJoin:
    def test_self_join_probe_is_path_identical(self):
        predicates = [equi_join("r1.a", "r2.a"), Comparison("r1.key", "<", "r2.key")]
        rows = [(Row("R", R_SCHEMA, (k, k % 3, 0)), float(k + 1)) for k in range(8)]
        for compiled in (False, True):
            stem = SteM("R", aliases=("r1", "r2"), join_columns=("a",))
            for row, ts in rows:
                stem.build(row, ts)
            probe = QTuple({"r1": Row("R", R_SCHEMA, (2, 2, 0))}, layout=LAYOUT)
            probe.mark_built("r1", 20.0)
            if compiled:
                plan = ProbePlan.compile(
                    predicates, "r2", probe.components, target_schema=stem.row_schema
                )
                second = stem.probe_with_plan(probe, plan)
            else:
                first = interpreted_probe(stem, probe, "r2", predicates)
        assert outcome_facts(second) == outcome_facts(first)
        assert len(first.results) > 0


class TestPlanMechanics:
    def test_empty_stem_compiles_then_finishes_lazily(self):
        stem = make_stem()
        predicates = [equi_join("R.a", "S.x")]
        probe = singleton_tuple("R", r_row(0, 1), layout=LAYOUT)
        probe.mark_built("R", 9.0)
        plan = ProbePlan.compile(
            predicates, "S", probe.components,
            target_schema=stem.row_schema,  # None: stem never built
        )
        assert plan.cmp_checks is None
        outcome = stem.probe_with_plan(probe, plan)
        assert outcome.results == [] and outcome.candidates_examined == 0
        stem.build(s_row(1, 1), 1.0)
        outcome = stem.probe_with_plan(probe, plan)
        assert plan.cmp_checks is not None
        reference = singleton_tuple("R", r_row(0, 1), layout=LAYOUT)
        reference.mark_built("R", 9.0)
        expected = interpreted_probe(stem, reference, "S", predicates)
        assert [t.identity() for t in outcome.results] == [
            t.identity() for t in expected.results
        ]

    def test_module_plan_cache_is_per_probe_situation(self):
        stem = make_stem()
        module = SteMModule(stem, "S", [equi_join("R.a", "S.x")])
        layout = layout_over("R", "S")
        probe = singleton_tuple("R", r_row(0, 1), layout=layout)
        probe.mark_built("R", 1.0)
        plan = module.probe_plan_for(probe)
        assert module.probe_plan_for(probe) is plan
        other = singleton_tuple("R", r_row(1, 2), layout=layout)
        other.mark_built("R", 2.0)
        assert module.probe_plan_for(other) is plan  # same situation, same plan
        done = singleton_tuple("R", r_row(1, 2), layout=layout)
        done.mark_built("R", 3.0)
        done.mark_done([equi_join("R.a", "S.x")])  # different done mask
        assert module.probe_plan_for(done) is not plan
        # The plans live on the tuples' layout, keyed by module and masks.
        assert layout.probe_plans == {
            (module.name, probe.spanned_mask, probe.done_mask): plan,
            (module.name, done.spanned_mask, done.done_mask): module.probe_plan_for(done),
        }

    def test_ensure_join_columns_bumps_epoch_and_reresolves_indexes(self):
        stem = SteM("S", aliases=("S",), join_columns=())
        for x in range(6):
            stem.build(s_row(x % 2, x), float(x + 1))
        probe = singleton_tuple("R", r_row(0, 1), layout=LAYOUT)
        probe.mark_built("R", 50.0)
        predicates = [equi_join("R.a", "S.x")]
        plan = ProbePlan.compile(predicates, "S", probe.components,
                                 target_schema=stem.row_schema)
        # No index on x yet: the probe scans all six rows.
        assert stem.probe_with_plan(probe, plan).candidates_examined == 6
        epoch = stem.index_epoch
        stem.ensure_join_columns(["x"])
        assert stem.index_epoch == epoch + 1
        # The plan re-resolves against the new index: only the x=1 bucket.
        fresh = singleton_tuple("R", r_row(0, 1), layout=LAYOUT)
        fresh.mark_built("R", 50.0)
        assert stem.probe_with_plan(fresh, plan).candidates_examined == 3

    def test_most_selective_index_wins(self):
        stem = SteM("S", aliases=("S",), join_columns=("x", "y"))
        # x=1 bucket has 5 rows; (y=7) bucket has 1 row.
        for position in range(5):
            stem.build(s_row(1, position), float(position + 1))
        stem.build(s_row(2, 7), 6.0)
        probe = singleton_tuple("R", r_row(0, 1, 7), layout=LAYOUT)
        probe.mark_built("R", 50.0)
        predicates = [equi_join("R.a", "S.x"), equi_join("R.b", "S.y")]
        plan = ProbePlan.compile(predicates, "S", probe.components,
                                 target_schema=stem.row_schema)
        outcome = stem.probe_with_plan(probe, plan)
        assert outcome.candidates_examined == 1  # the y bucket, not the x bucket
        # The interpreted oracle picks the same bucket.
        fresh = singleton_tuple("R", r_row(0, 1, 7), layout=LAYOUT)
        fresh.mark_built("R", 50.0)
        assert interpreted_probe(stem, fresh, "S", predicates).candidates_examined == 1

    def test_probe_batch_matches_single_probes(self):
        stem = make_stem()
        for x in range(4):
            stem.build(s_row(x % 2, x), float(x + 1))
        predicates = [equi_join("R.a", "S.x")]

        def make_probes():
            probes = []
            for key in range(3):
                probe = singleton_tuple("R", r_row(key, key % 2), layout=LAYOUT)
                probe.mark_built("R", 40.0 + key)
                probes.append(probe)
            return probes

        probes = make_probes()
        plan = ProbePlan.compile(predicates, "S", probes[0].components,
                                 target_schema=stem.row_schema)
        batched = stem.probe_batch(probes, plan)
        singles = [
            interpreted_probe(stem, probe, "S", predicates) for probe in make_probes()
        ]
        assert [outcome_facts(o) for o in batched] == [
            outcome_facts(o) for o in singles
        ]

    def test_build_batch_matches_single_builds(self):
        first, second = make_stem(), make_stem()
        rows = [s_row(x % 2, x) for x in range(5)] + [s_row(0, 0)]
        stamps = [float(i + 1) for i in range(len(rows))]
        batch_outcomes = first.build_batch(rows, stamps)
        single_outcomes = [second.build(row, ts) for row, ts in zip(rows, stamps)]
        assert batch_outcomes == single_outcomes
        assert list(first) == list(second)
        assert max(map(first.timestamp_of, first)) == max(map(second.timestamp_of, second))
