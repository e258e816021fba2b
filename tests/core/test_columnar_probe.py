"""Equivalence suite: the columnar probe plane vs the row plane.

The columnar data plane must be a pure optimisation: for every probe
situation, a SteM with the columnar mirror enabled has to produce the same
results in the same order, the same coverage verdict, and the same
suppressed/examined accounting as the row-plane oracle — including NULL
(None) semantics, mixed-type columns, IN lists with hostile members,
self-joins, eviction, and the TimeStamp constraint.  Both kernel backends
(the stdlib "python" baseline and "numpy" when importable) are exercised
against the row plane on identical builds.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stem import SteM, make_eviction_policy
from repro.core.tuples import EOTTuple, QTuple, singleton_tuple
from repro.query.predicates import (
    Comparison,
    Conjunction,
    InList,
    TruePredicate,
    equi_join,
    selection,
)
import repro.query.probeplan as probeplan_module
from repro.query.probeplan import ProbePlan
from repro.storage.columns import FLOAT_EXACT_INT, numpy_available
from repro.storage.row import Row
from repro.storage.schema import Schema

R_SCHEMA = Schema.of("key:int", "a:int", "b:int")
S_SCHEMA = Schema.of("x:int", "y:int")

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@contextmanager
def _backend(name: str, cutoff: int = 0):
    """Force one columnar kernel backend for the enclosed block, and pin
    the small-batch cutoff to 0 so these deliberately tiny fixtures build
    the mirror and run the vector kernels instead of the row loop."""
    previous = os.environ.get("REPRO_COLUMNAR_BACKEND")
    os.environ["REPRO_COLUMNAR_BACKEND"] = name
    saved_cutoff = probeplan_module.KERNEL_MIN_CANDIDATES
    probeplan_module.KERNEL_MIN_CANDIDATES = cutoff
    try:
        yield
    finally:
        probeplan_module.KERNEL_MIN_CANDIDATES = saved_cutoff
        if previous is None:
            os.environ.pop("REPRO_COLUMNAR_BACKEND", None)
        else:
            os.environ["REPRO_COLUMNAR_BACKEND"] = previous


def r_row(key, a, b=0):
    return Row("R", R_SCHEMA, (key, a, b))


def s_row(x, y):
    return Row("S", S_SCHEMA, (x, y))


def outcome_facts(outcome):
    return (
        [(t.identity(), t.done_mask, dict(t.timestamps)) for t in outcome.results],
        outcome.all_matches_known,
        outcome.candidates_examined,
        outcome.suppressed_by_timestamp,
    )


def both_planes(backend, rows_with_ts, probe_maker, predicates, target="S",
                enforce_timestamp=True, update_last_match=False, eots=(),
                evict=()):
    """Run the row-plane and columnar probes on identically-built SteMs."""
    outcomes = []
    for columnar in (False, True):
        with _backend(backend):
            stem = SteM("S", aliases=("S",), join_columns=("x",),
                        columnar=columnar)
            for row, ts in rows_with_ts:
                stem.build(row, ts)
            for row in evict:
                stem.evict(row)
            for eot in eots:
                stem.build_eot(eot)
            probe = probe_maker()
            plan = ProbePlan.compile(
                predicates, target, probe.components,
                target_schema=stem.row_schema,
            )
            outcomes.append(
                stem.probe_with_plan(
                    probe, plan,
                    enforce_timestamp=enforce_timestamp,
                    update_last_match=update_last_match,
                )
            )
    return outcomes


# -- value / predicate generators ------------------------------------------------

values = st.one_of(st.integers(min_value=-3, max_value=5), st.none())
#: Values chosen to sit on every kernel-eligibility boundary: int64 range,
#: exact-float64 range, NaN/inf, strings, floats equal to ints.
hostile_values = st.one_of(
    st.integers(min_value=-3, max_value=5),
    st.sampled_from([
        2**53 - 1, 2**53, 2**53 + 1, -(2**53 + 1),
        2**62, 2**62 + 1, 2**63, -(2**63) - 1,
    ]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from(["a", "b", ""]),
    st.sampled_from([0.0, -0.0, 2.0, 2.5, float(2**53)]),
    st.booleans(),
    st.none(),
)
timestamps = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def predicate_pool():
    return [
        equi_join("R.a", "S.x"),
        equi_join("R.b", "S.y"),
        Comparison("R.b", "<", "S.y"),
        Comparison("S.y", ">=", "R.a"),
        Comparison("S.x", "<", "S.y"),         # both sides stored columns
        selection("S.y", "<", 4),
        selection("S.x", "!=", 2),
        Comparison("S.x", "=", 1),
        InList("S.y", [0, 1, 2, None]),
        InList("S.x", [2**53 + 1, 3.0, 1, "a"]),  # hostile member mix
        TruePredicate(),
        Conjunction([selection("S.y", ">", -3), selection("S.x", "<=", 5)]),
    ]


@pytest.mark.slow
class TestPropertyEquivalence:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_probe_situations_are_plane_identical(self, backend, data):
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
                st.sampled_from(range(len(pool))), min_size=0, max_size=5,
                unique=True,
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
            probe = singleton_tuple("R", r_row(key, a, b))
            probe.mark_built("R", probe_ts)
            return probe

        row_plane, columnar = both_planes(
            backend, rows_with_ts, probe_maker, predicates,
            enforce_timestamp=enforce,
        )
        assert outcome_facts(columnar) == outcome_facts(row_plane)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_type_columns_are_plane_identical(self, backend, data):
        """Columns holding NULLs, huge ints, NaN, strings and floats must
        demote to the per-element baseline without changing any outcome."""
        stored = data.draw(
            st.lists(st.tuples(hostile_values, hostile_values),
                     min_size=0, max_size=10),
            label="stored rows",
        )
        rows_with_ts = [
            (s_row(x, y), float(position + 1))
            for position, (x, y) in enumerate(stored)
        ]
        pool = predicate_pool()
        chosen = data.draw(
            st.lists(st.sampled_from(range(len(pool))),
                     min_size=1, max_size=4, unique=True),
            label="predicates",
        )
        predicates = [pool[index] for index in sorted(chosen)]
        a = data.draw(hostile_values, label="probe a")
        b = data.draw(hostile_values, label="probe b")

        def probe_maker():
            probe = singleton_tuple("R", r_row(0, a, b))
            probe.mark_built("R", 25.0)
            return probe

        row_plane, columnar = both_planes(
            backend, rows_with_ts, probe_maker, predicates,
        )
        assert outcome_facts(columnar) == outcome_facts(row_plane)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_eviction_keeps_planes_identical(self, backend, data):
        stored = data.draw(
            st.lists(st.tuples(values, values), min_size=1, max_size=10,
                     unique=True),
            label="stored rows",
        )
        rows_with_ts = [
            (s_row(x, y), float(position + 1))
            for position, (x, y) in enumerate(stored)
        ]
        victim_indexes = data.draw(
            st.lists(st.sampled_from(range(len(stored))), unique=True,
                     max_size=len(stored)),
            label="evictions",
        )
        evict = [rows_with_ts[index][0] for index in victim_indexes]
        predicates = [equi_join("R.a", "S.x"), selection("S.y", ">=", 0)]
        a = data.draw(values, label="probe a")

        def probe_maker():
            probe = singleton_tuple("R", r_row(0, a))
            probe.mark_built("R", 30.0)
            return probe

        row_plane, columnar = both_planes(
            backend, rows_with_ts, probe_maker, predicates, evict=evict,
        )
        assert outcome_facts(columnar) == outcome_facts(row_plane)


class TestDeterministicEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_in_list_members_just_past_exact_float_range(self, backend):
        """An int member just past 2**53 must not round onto a stored float.

        float64(2**53 + 1) == float64(2**53), so a naive promotion of the
        member list would make the kernel match the stored value 2.0**53
        that the row plane's exact int comparison rejects.
        """
        rows = [
            (s_row(float(FLOAT_EXACT_INT), 0.0), 1.0),
            (s_row(3.0, 1.0), 2.0),
        ]
        predicates = [InList("S.x", [FLOAT_EXACT_INT + 1, 3.0])]

        def probe_maker():
            probe = singleton_tuple("R", r_row(0, 0))
            probe.mark_built("R", 10.0)
            return probe

        row_plane, columnar = both_planes(backend, rows, probe_maker, predicates)
        assert outcome_facts(columnar) == outcome_facts(row_plane)
        assert len(row_plane.results) == 1  # only the 3.0 row matches

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_and_none_comparisons_match_row_plane(self, backend):
        rows = [
            (s_row(float("nan"), 1), 1.0),
            (s_row(None, 2), 2.0),
            (s_row(1, 3), 3.0),
        ]
        predicates = [
            Comparison("S.x", "<", 5),
            selection("S.y", ">", 0),
        ]

        def probe_maker():
            probe = singleton_tuple("R", r_row(0, 0))
            probe.mark_built("R", 10.0)
            return probe

        row_plane, columnar = both_planes(backend, rows, probe_maker, predicates)
        assert outcome_facts(columnar) == outcome_facts(row_plane)
        # NaN < 5 and None < 5 are both false; only the int row survives.
        assert len(row_plane.results) == 1
        assert row_plane.candidates_examined == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_probe_bound_matches_row_plane(self, backend):
        rows = [(s_row(i, i), float(i + 1)) for i in range(4)]
        predicates = [Comparison("S.x", "<", "R.a")]

        def probe_maker():
            probe = singleton_tuple("R", r_row(0, float("nan")))
            probe.mark_built("R", 10.0)
            return probe

        row_plane, columnar = both_planes(backend, rows, probe_maker, predicates)
        assert outcome_facts(columnar) == outcome_facts(row_plane)
        assert row_plane.results == []  # x < NaN is false everywhere

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_self_join_probe_is_plane_identical(self, backend):
        predicates = [equi_join("r1.a", "r2.a"), Comparison("r1.key", "<", "r2.key")]
        rows = [(Row("R", R_SCHEMA, (k, k % 3, 0)), float(k + 1)) for k in range(8)]
        outcomes = []
        for columnar in (False, True):
            with _backend(backend):
                stem = SteM("R", aliases=("r1", "r2"), join_columns=("a",),
                            columnar=columnar)
                for row, ts in rows:
                    stem.build(row, ts)
                probe = QTuple({"r1": Row("R", R_SCHEMA, (2, 2, 0))})
                probe.mark_built("r1", 20.0)
                plan = ProbePlan.compile(
                    predicates, "r2", probe.components,
                    target_schema=stem.row_schema,
                )
                outcomes.append(stem.probe_with_plan(probe, plan))
        assert outcome_facts(outcomes[1]) == outcome_facts(outcomes[0])
        assert len(outcomes[0].results) > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timestamp_suppression_counts_are_plane_identical(self, backend):
        rows = [(s_row(1, i), float(10 * (i + 1))) for i in range(5)]
        predicates = [equi_join("R.a", "S.x")]

        for probe_ts in (5.0, 25.0, 60.0):
            def probe_maker():
                probe = singleton_tuple("R", r_row(0, 1))
                probe.mark_built("R", probe_ts)
                return probe

            row_plane, columnar = both_planes(
                backend, rows, probe_maker, predicates,
            )
            assert outcome_facts(columnar) == outcome_facts(row_plane)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reference_window_eviction_disables_the_mirror(self, backend):
        """Reference-window (LRU) eviction reorders the row store; the SteM
        must drop the columnar mirror and stay on the row plane."""
        with _backend(backend):
            stem = SteM("S", aliases=("S",), join_columns=("x",), columnar=True)
            stem.build(s_row(1, 1), 1.0)
            assert stem._col is None  # built by a probe, not by a build
            warm = singleton_tuple("R", r_row(0, 1))
            warm.mark_built("R", 20.0)
            stem.probe_with_plan(warm, ProbePlan.compile(
                [equi_join("R.a", "S.x")], "S", warm.components,
                target_schema=stem.row_schema,
            ))
            assert stem._col is not None
            stem.set_eviction(make_eviction_policy("reference-window", max_size=4))
            assert stem._col is None and not stem.columnar
            for i in range(2, 8):
                stem.build(s_row(i % 3, i), float(i))
            probe = singleton_tuple("R", r_row(0, 1))
            probe.mark_built("R", 20.0)
            plan = ProbePlan.compile(
                [equi_join("R.a", "S.x")], "S", probe.components,
                target_schema=stem.row_schema,
            )
            outcome = stem.probe_with_plan(probe, plan)
            reference = singleton_tuple("R", r_row(0, 1))
            reference.mark_built("R", 20.0)
            expected = stem.probe(reference, "S", [equi_join("R.a", "S.x")])
            assert [t.identity() for t in outcome.results] == [
                t.identity() for t in expected.results
            ]
            assert outcome.candidates_examined == expected.candidates_examined
            assert outcome.suppressed_by_timestamp == expected.suppressed_by_timestamp

    def test_off_backend_never_builds_a_mirror(self):
        with _backend("off"):
            stem = SteM("S", aliases=("S",), join_columns=("x",))
            stem.build(s_row(1, 1), 1.0)
            assert not stem.columnar and stem._col is None

    @pytest.mark.skipif(not numpy_available(), reason="needs the numpy backend")
    def test_small_batch_cutoff_is_plane_identical(self):
        """Below ``KERNEL_MIN_CANDIDATES`` the numpy backend drops to the
        per-element baseline; the outcome must match the forced-kernel
        path (cutoff 0) and the row plane on the same tiny bucket."""
        rows = [(s_row(i % 2, i), float(i + 1)) for i in range(6)]
        predicates = [equi_join("R.a", "S.x"), Comparison("R.b", "<", "S.y")]

        def probe_maker():
            probe = singleton_tuple("R", r_row(0, 1, 2))
            probe.mark_built("R", 20.0)
            return probe

        # _backend pins the cutoff to 0 (kernels forced onto the bucket).
        row_plane, forced = both_planes("numpy", rows, probe_maker, predicates)
        assert probeplan_module.KERNEL_MIN_CANDIDATES > 6  # default restored
        with _backend("numpy"):
            probeplan_module.KERNEL_MIN_CANDIDATES = 32
            stem = SteM("S", aliases=("S",), join_columns=("x",), columnar=True)
            for row, ts in rows:
                stem.build(row, ts)
            probe = probe_maker()
            plan = ProbePlan.compile(
                predicates, "S", probe.components, target_schema=stem.row_schema,
            )
            fallback = stem.probe_with_plan(probe, plan)
        assert outcome_facts(fallback) == outcome_facts(forced)
        assert outcome_facts(fallback) == outcome_facts(row_plane)
        assert len(fallback.results) > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infinity_bounds_match_row_plane(self, backend):
        rows = [(s_row(i, i), float(i + 1)) for i in range(4)]
        predicates = [selection("S.x", "<", math.inf),
                      selection("S.y", ">", -math.inf)]

        def probe_maker():
            probe = singleton_tuple("R", r_row(0, 0))
            probe.mark_built("R", 10.0)
            return probe

        row_plane, columnar = both_planes(backend, rows, probe_maker, predicates)
        assert outcome_facts(columnar) == outcome_facts(row_plane)
        assert len(row_plane.results) == 4


# -- the mirror on demand -----------------------------------------------------------

DEFAULT_CUTOFF = probeplan_module.KERNEL_MIN_CANDIDATES

#: Probe situations: keyed, keyed + residual, full scan (no equality
#: binding: every stored row is a candidate), two bindings (the smaller
#: bucket wins; ``y`` is indexed only while ``ensure_join_columns`` holds).
PROBE_PREDICATES = [
    [equi_join("R.a", "S.x")],
    [equi_join("R.a", "S.x"), Comparison("R.b", "<", "S.y")],
    [Comparison("R.b", "<", "S.y")],
    [equi_join("R.a", "S.x"), equi_join("R.b", "S.y")],
]

_probe_operations = st.tuples(
    st.just("probe"),
    st.integers(0, len(PROBE_PREDICATES) - 1),  # situation
    st.integers(0, 3),    # which long-lived probe tuple
    st.integers(-1, 2),   # R.a
    st.integers(0, 120),  # R.b
    st.booleans(),        # update_last_match
)
_build_operations = st.tuples(
    st.just("build"), st.integers(0, 2), st.integers(0, 120)
)
stem_operations = st.lists(
    st.one_of(
        _probe_operations,
        _probe_operations,
        _probe_operations,
        _build_operations,
        _build_operations,
        st.tuples(st.just("evict"), st.integers(0, 200)),
        st.tuples(st.just("ensure"), st.just("y")),
        st.tuples(st.just("drop"), st.just("y")),
        st.tuples(st.just("scan_eot")),
    ),
    min_size=4,
    max_size=40,
)
#: Rows built (into two buckets) before the drawn operations start: none,
#: and either side of the default threshold per bucket and per full scan.
prefills = st.sampled_from([0, 1, 30, 33, 60, 62, 63, 64, 66, 90])


def assert_mirror_is_the_row_store(stem):
    """ROADMAP 5(b)'s structural invariant: live slots in ``_rows`` order,
    ``store.ts`` ≡ the recorded timestamps, every posting list ≡ its
    secondary-index bucket, in bucket order."""
    store = stem._col
    live = list(store.live_slots())
    assert [store.rows[slot] for slot in live] == list(stem._rows)
    assert [store.ts[slot] for slot in live] == list(stem._rows.values())
    assert len(store) == len(stem._rows)
    assert set(store.postings) == set(stem._indexes)
    for column, index in stem._indexes.items():
        postings = store.postings[column]
        assert sum(len(slots) for slots in postings.values()) == len(index)
        for value, slots in postings.items():
            assert [store.rows[slot] for slot in slots] == list(
                index.lookup_readonly((value,))
            )


class MirrorTwins:
    """One operation sequence applied to a columnar-enabled SteM and to its
    ``columnar=False`` twin, comparing everything a probe can observe."""

    def __init__(self, make_stem):
        self.twins = [make_stem(False), make_stem(True)]
        #: Long-lived probe tuples per twin: repeated probes carry their
        #: LastMatchTimeStamp floor from one probe to the next.
        self.probes = [{}, {}]
        self.clock = 0.0

    def apply(self, operation):
        """Apply one operation to both twins; a probe returns the number of
        candidates examined (equal on both, like everything else)."""
        kind = operation[0]
        if kind == "probe":
            return self.probe(*operation[1:])
        if kind == "build":
            self.clock += 1.0
            for stem in self.twins:
                stem.build(s_row(operation[1], operation[2]), self.clock)
        elif kind == "evict":
            rows = [row for row, _ in self.twins[0].state_entries()]
            if rows:
                for stem in self.twins:
                    assert stem.evict(rows[operation[1] % len(rows)])
        elif kind == "ensure":
            for stem in self.twins:
                stem.ensure_join_columns([operation[1]])
        elif kind == "drop":
            for stem in self.twins:
                stem.drop_join_column(operation[1])
        elif kind == "scan_eot":
            for stem in self.twins:
                stem.build_eot(EOTTuple(table="S", alias="S", am_name="scan"))
        return None

    def probe(self, situation, which, a, b, update_last_match=False):
        self.clock += 1.0
        facts = []
        for stem, probes in zip(self.twins, self.probes):
            probe = probes.get((which, a, b))
            if probe is None:
                # Stamped once: rows built later are suppressed by the
                # TimeStamp constraint when this tuple probes again.
                probe = probes[(which, a, b)] = singleton_tuple("R", r_row(which, a, b))
                probe.mark_built("R", self.clock)
            plan = ProbePlan.compile(
                PROBE_PREDICATES[situation], "S", probe.components,
                target_schema=stem.row_schema,
            )
            outcome = stem.probe_with_plan(
                probe, plan, update_last_match=update_last_match
            )
            facts.append((outcome_facts(outcome), dict(probe.last_match_ts)))
        assert facts[1] == facts[0]
        return outcome.candidates_examined


def plain_twins():
    return MirrorTwins(
        lambda columnar: SteM(
            "S", aliases=("S",), join_columns=("x",), columnar=columnar
        )
    )


@pytest.mark.parametrize("cutoff", [DEFAULT_CUTOFF, 0])
@pytest.mark.parametrize("backend", BACKENDS)
class TestMirrorOnDemand:
    @given(prefill=prefills, operations=stem_operations)
    @settings(max_examples=60, deadline=None)
    def test_sequences_crossing_the_threshold_match_the_row_plane(
        self, backend, cutoff, prefill, operations
    ):
        """Build / evict / probe / index changes in any order, the mirror
        appearing wherever the first kernel-sized probe falls: every probe
        equals the ``columnar=False`` twin's, the mirror exists exactly when
        such a probe has happened, and once it exists it is the row store."""
        with _backend(backend, cutoff):
            twins = plain_twins()
            plain, stem = twins.twins
            kernel_sized = small = 0
            for position in range(prefill):
                twins.apply(("build", position % 2, position))
            # After the drawn prefix, whatever state it left: one bucket
            # grows past the default threshold between two rounds of probes,
            # then half of everything is evicted and probed again.
            every_probe = [
                ("probe", situation, 3, a, 60, True)
                for situation in range(len(PROBE_PREDICATES))
                for a in (0, 1)
            ]
            epilogue = (
                every_probe
                + [("build", 0, 200 + position) for position in range(DEFAULT_CUTOFF)]
                + every_probe
                + [("evict", 2 * position) for position in range(DEFAULT_CUTOFF)]
                + every_probe
            )
            for operation in operations + epilogue:
                examined = twins.apply(operation)
                if examined is not None:
                    # The row loop examines every candidate it is given, so
                    # the count is the size of the bucket the rule looks at.
                    if examined >= cutoff and stem.row_schema is not None:
                        kernel_sized += 1
                    else:
                        small += 1
                assert (stem._col is not None) == (kernel_sized > 0)
                if stem._col is not None:
                    assert_mirror_is_the_row_store(stem)
            assert stem.stats["columnar_probes"] == kernel_sized
            assert stem.stats["row_probes"] == small
            assert stem.stats["mirror_builds"] == min(kernel_sized, 1)
            assert plain.stats["row_probes"] == kernel_sized + small
            assert plain._col is None and plain.stats["mirror_builds"] == 0
            shared = ("builds", "duplicates", "probes", "matches", "evictions")
            assert [stem.stats[name] for name in shared] == [
                plain.stats[name] for name in shared
            ]

    @pytest.mark.parametrize(
        "bound",
        [
            {"eviction": "count", "max_size": 40},
            {"eviction": make_eviction_policy("time-window", window=45)},
        ],
        ids=["count", "time-window"],
    )
    @given(prefill=prefills, operations=stem_operations)
    @settings(max_examples=25, deadline=None)
    def test_bounded_sequences_match_the_row_plane(
        self, backend, cutoff, bound, prefill, operations
    ):
        """The window's own evictions, interleaved with explicit ones, keep
        the mirror equal to the row store and every probe equal to the
        ``columnar=False`` twin's."""
        with _backend(backend, cutoff):
            twins = MirrorTwins(
                lambda columnar: SteM(
                    "S", aliases=("S",), join_columns=("x",), columnar=columnar,
                    **bound,
                )
            )
            plain, stem = twins.twins
            for position in range(prefill):
                twins.apply(("build", position % 3, position))
            for operation in operations:
                twins.apply(operation)
                assert list(stem._rows.items()) == list(plain._rows.items())
                if stem._col is not None:
                    assert_mirror_is_the_row_store(stem)
            shared = ("builds", "duplicates", "probes", "matches", "evictions")
            assert [stem.stats[name] for name in shared] == [
                plain.stats[name] for name in shared
            ]
            if prefill >= 60:
                assert stem.stats["evictions"] > 0

    def test_an_empty_stem_never_builds_a_mirror(self, backend, cutoff):
        """Nothing was ever built, so there is no schema to mirror — also
        when the threshold is 0 and an empty bucket is "kernel-sized"."""
        with _backend(backend, cutoff):
            twins = plain_twins()
            for situation in range(len(PROBE_PREDICATES)):
                assert twins.probe(situation, 0, 1, 1, update_last_match=True) == 0
            stem = twins.twins[1]
            assert stem._col is None and stem.stats["row_probes"] == 4
            # Emptied again is not the same as never built into.
            twins.apply(("build", 1, 1))
            twins.apply(("evict", 0))
            assert twins.probe(0, 0, 1, 1) == 0
            assert (stem._col is not None) == (cutoff == 0)

    def test_small_probes_alone_leave_no_mirror(self, backend, cutoff):
        with _backend(backend, cutoff):
            twins = plain_twins()
            for position in range(3 * (DEFAULT_CUTOFF - 1)):
                twins.apply(("build", position % 3, position))
            for a in (0, 1, 2, 7):
                examined = twins.probe(1, 0, a, 5)
                assert examined in (0, DEFAULT_CUTOFF - 1)
            stem = twins.twins[1]
            if cutoff:
                assert stem._col is None and stem.stats["row_probes"] == 4
                # One more row in a bucket: its next probe builds the mirror,
                # a probe of another bucket still runs the row loop.
                twins.apply(("build", 0, 1000))
                assert twins.probe(1, 0, 0, 5) == DEFAULT_CUTOFF
                assert stem.stats["mirror_builds"] == stem.stats["columnar_probes"] == 1
                twins.probe(1, 0, 1, 5)
                assert stem.stats["row_probes"] == 5
            else:
                assert stem.stats["columnar_probes"] == 4
            assert_mirror_is_the_row_store(stem)

    @pytest.mark.parametrize("installed", ["before", "after"])
    def test_reference_window_policy_keeps_the_row_plane(
        self, backend, cutoff, installed
    ):
        """LRU eviction reorders the row store: installed before the first
        kernel-sized probe no mirror is ever built, installed after one the
        mirror is dropped — loudly — and never comes back."""
        with _backend(backend, cutoff):
            twins = plain_twins()
            plain, stem = twins.twins
            for position in range(80):
                twins.apply(("build", position % 2, position))

            def install():
                for twin in twins.twins:
                    twin.set_eviction(
                        make_eviction_policy("reference-window", max_size=70)
                    )

            if installed == "before":
                install()
            assert twins.probe(1, 0, 1, 30) == 40
            assert (stem._col is not None) == (installed == "after")
            if installed == "after":
                install()
            assert stem._col is None and not stem.columnar
            assert "reorders" in stem.stats["columnar_disabled_reason"]
            assert "columnar_disabled_reason" not in plain.stats
            for position in range(80, 100):  # evicts the least recently matched
                twins.apply(("build", position % 2, position))
            assert twins.probe(1, 1, 1, 30, update_last_match=True) >= DEFAULT_CUTOFF
            assert twins.probe(2, 1, 0, 30) == 70  # full scan
            assert stem._col is None
            assert stem.stats["mirror_builds"] == (installed == "after")
            assert list(stem._rows) == list(plain._rows)
