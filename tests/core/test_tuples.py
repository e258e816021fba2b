"""Tests for dataflow tuples (QTuple), TupleState, and EOT tuples."""

import gc
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.core.eddy import OutputRecord
from repro.core.modules.access import IndexAMModule, ScanAMModule
from repro.core.tuples import (
    EOTTuple,
    MatchRun,
    QTuple,
    Result,
    TupleIdAllocator,
    UNBUILT,
    install_id_allocator,
    singleton_maker,
)
from repro.query.layout import PlanLayout, bit_positions, done_mask_of
from repro.query.parser import parse_query
from repro.query.predicates import selection
from repro.storage.catalog import IndexSpec, ScanSpec
from repro.storage.datagen import make_source_s, make_source_t
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.conftest import single_query_engine
from tests.helpers import QTUPLE_SLOTS, FakeRuntime, equi_join, layout_over, singleton_tuple

R_SCHEMA = Schema.of("key:int", "a:int")
S_SCHEMA = Schema.of("x:int", "y:int")
T_SCHEMA = Schema.of("key:int")

THREE_WAY = parse_query(
    "SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key AND S.y < 10"
)
LAYOUT = PlanLayout(THREE_WAY)
#: The same aliases on other bits: what a tuple is made of must not depend
#: on which bit its alias holds.
REVERSED = layout_over("T", "S", "R")


def r_row(key=1, a=10):
    return Row("R", R_SCHEMA, (key, a))


def s_row(x=10, y=10):
    return Row("S", S_SCHEMA, (x, y))


class TestQTupleBasics:
    def test_singleton_properties(self):
        tuple_ = singleton_tuple("R", r_row(), source="am:R_scan", layout=LAYOUT)
        assert tuple_.is_singleton
        assert tuple_.single_alias == "R"
        assert tuple_.aliases == {"R"}
        assert tuple_.source == "am:R_scan"
        assert tuple_.timestamp == UNBUILT
        assert math.isinf(tuple_.timestamp)

    def test_empty_components_rejected(self):
        with pytest.raises(ExecutionError):
            QTuple({}, layout=LAYOUT)

    def test_timestamps_for_an_alias_not_spanned_are_rejected(self):
        """The checkpoint codec writes one timestamp per component, so such
        an entry would not survive a checkpoint: the restored tuple's
        ``timestamps`` would differ from the checkpointed one's."""
        with pytest.raises(ExecutionError, match="does not span"):
            QTuple({"R": r_row()}, timestamps={"R": 1.0, "S": 2.0}, layout=LAYOUT)
        with pytest.raises(ExecutionError):
            singleton_tuple("R", r_row(), layout=LAYOUT).mark_built("S", 1.0)

    def test_single_alias_requires_singleton(self):
        tuple_ = QTuple({"R": r_row(), "S": s_row()}, layout=LAYOUT)
        with pytest.raises(ExecutionError):
            _ = tuple_.single_alias

    def test_value_access_and_spans(self):
        tuple_ = QTuple({"R": r_row(a=7), "S": s_row(x=7)}, layout=LAYOUT)
        assert tuple_.value("R", "a") == 7
        assert tuple_.spans(["R"])
        assert tuple_.spans(["R", "S"])
        assert not tuple_.spans(["R", "T"])

    def test_tuple_ids_unique(self):
        ids = {singleton_tuple("R", r_row(key=i), layout=LAYOUT).tuple_id for i in range(10)}
        assert len(ids) == 10

    def test_identity_is_order_insensitive(self):
        first = QTuple({"R": r_row(), "S": s_row()}, layout=LAYOUT)
        second = QTuple({"S": s_row(), "R": r_row()}, layout=LAYOUT)
        assert first.identity() == second.identity()


class TestTupleState:
    def test_done_bits(self):
        predicate = selection("R.a", "<", 100)
        tuple_ = singleton_tuple("R", r_row(), layout=LAYOUT)
        assert not tuple_.is_done(predicate)
        tuple_.mark_done([predicate])
        assert tuple_.is_done(predicate)
        # marking by id also works
        other = equi_join("R.a", "S.x")
        tuple_.mark_done([other.predicate_id])
        assert tuple_.is_done(other)

    def test_visits(self):
        tuple_ = singleton_tuple("R", r_row(), layout=LAYOUT)
        assert not tuple_.visited("stem:S")
        tuple_.record_visit("stem:S")
        assert tuple_.visited("stem:S")
        # The token is the only record; ``visits`` decodes it.
        tuple_.record_visit("am:T_idx")
        assert tuple_.visits == {"stem:S", "am:T_idx"}
        assert not tuple_.visited("never-routed-to")

    def test_visit_bits_live_on_the_layout(self):
        # A module's bit is the layout's, assigned on first use: a second
        # visit sets nothing new, and the same routing over two layouts of
        # one query gives equal tokens whatever else the process routed.
        first = singleton_tuple("R", r_row(), layout=layout_over("R", "S", "T"))
        first.record_visit("stem:S")
        token = first.visits_token
        first.record_visit("stem:S")
        assert first.visits_token == token == first.layout.module_bits["stem:S"]
        other = singleton_tuple("R", r_row(), layout=layout_over("R", "S", "T"))
        other.record_visit("am:elsewhere")
        second = singleton_tuple("R", r_row(), layout=layout_over("R", "S", "T"))
        second.record_visit("stem:S")
        assert second.visits_token == token

    def test_mark_built_updates_timestamp(self):
        tuple_ = singleton_tuple("R", r_row(), layout=LAYOUT)
        tuple_.mark_built("R", 17.0)
        assert tuple_.timestamp == 17.0
        assert "R" in tuple_.built

    def test_resolution_tracking(self):
        tuple_ = singleton_tuple("R", r_row(), layout=LAYOUT)
        assert not tuple_.is_resolved("S")
        tuple_.mark_resolved("S")
        assert tuple_.is_resolved("S")


class TestExtension:
    def test_extended_builds_composite(self):
        base = singleton_tuple("R", r_row(a=5), layout=LAYOUT)
        base.mark_built("R", 3.0)
        predicate = equi_join("R.a", "S.x")
        extended = base.extended("S", s_row(x=5), 7.0, extra_done=1 << predicate.predicate_id)
        assert extended.aliases == {"R", "S"}
        assert extended.timestamp == 7.0
        assert extended.timestamps["R"] == 3.0
        assert extended.is_done(predicate)
        assert "S" in extended.built
        # the original tuple is untouched
        assert base.aliases == {"R"}
        assert not base.is_done(predicate)

    def test_extended_rejects_existing_alias(self):
        base = singleton_tuple("R", r_row(), layout=LAYOUT)
        with pytest.raises(ExecutionError):
            base.extended("R", r_row(), 1.0)

    def test_extension_resets_visits_but_keeps_priority(self):
        base = singleton_tuple("R", r_row(), layout=LAYOUT)
        base.priority = 2.5
        base.record_visit("stem:S")
        extended = base.extended("S", s_row(), 1.0)
        assert extended.priority == 2.5
        assert not extended.visited("stem:S") and extended.visits_token == 0


class TestExtensionMatchesConstructor:
    """The extension template (a ``MatchRun``; ``extended`` is its
    one-match spelling) sets every slot itself instead of going through
    ``__init__``; this holds every sibling, slot for slot, to what the
    constructor plus the documented inheritance rules give — the
    precomputed routing signature included.  A slot added to ``QTuple`` and
    forgotten in the template fails here (``getattr`` on an unset slot)."""

    @settings(max_examples=120, deadline=None)
    @given(
        composite_parent=st.booleans(),
        layout=st.sampled_from([LAYOUT, REVERSED]),
        priority=st.sampled_from([0.0, 0.5, 3.0]),
        done=st.sets(st.integers(0, 9)),
        extra_done=st.sets(st.integers(0, 9)),
        built=st.booleans(),
        resolved=st.booleans(),
        exhausted=st.booleans(),
        query_id=st.sampled_from(["", "q7"]),
        visits=st.integers(0, 3),
        created_at=st.none() | st.floats(0.0, 50.0),
        matches=st.lists(st.floats(0.0, 9.0), min_size=1, max_size=4),
        mutation=st.sampled_from(["record_visit", "mark_resolved", "priority"]),
    )
    def test_every_slot_of_every_sibling(
        self, composite_parent, layout, priority, done, extra_done,
        built, resolved, exhausted, query_id, visits, created_at, matches, mutation,
    ):
        components = {"R": r_row()}
        if composite_parent:
            components["S"] = s_row()
        parent = QTuple(
            components,
            timestamps={"R": 2.0},
            done=done,
            source="am:R_scan",
            priority=priority,
            created_at=1.5,
            query_id=query_id,
            layout=layout,
        )
        # Everything a parent can carry that its extensions must NOT inherit.
        if built:
            parent.mark_built("R", 4.0)
        if resolved:
            parent.mark_resolved("T")
        if exhausted:
            parent.mark_exhausted("T")
        for _ in range(visits):
            parent.record_visit("stem:T")
        parent.stop_stem_probes = True
        parent.probe_completion_alias = "T"
        parent.failed = True
        parent.routing_signature()

        rows = [Row("T", T_SCHEMA, (key,)) for key in range(len(matches))]
        extra_mask = done_mask_of(extra_done)
        install_id_allocator(TupleIdAllocator(start=50))
        try:
            siblings = MatchRun(parent, "T", rows, matches, extra_mask, created_at).tuples()
            single = parent.extended("T", rows[0], matches[0], extra_mask, created_at)
            ids = [sibling.tuple_id for sibling in siblings] + [single.tuple_id]
            assert ids == list(range(50, 50 + len(ids)))  # match order
            references = [
                QTuple(
                    {**parent.components, "T": row},
                    timestamps={**parent.timestamps, "T": ts},
                    done=bit_positions(parent.done_mask | extra_mask),
                    source=parent.source,
                    priority=parent.priority,
                    created_at=1.5 if created_at is None else created_at,
                    query_id=parent.query_id,
                    layout=parent.layout,
                )
                for row, ts in zip(rows, matches)
            ]
        finally:
            install_id_allocator()  # leave a fresh default for other tests
        for result, reference in zip(siblings + [single], references + references[:1]):
            # Inherited beyond the constructor's arguments: the built bits,
            # plus the new component's (a SteM only returns rows it holds).
            reference.built_mask = parent.built_mask | parent.layout.bit_of("T")
            # The template's precomputed signature is what a tuple in that
            # state builds for itself, field for field.
            assert result._signature == reference.routing_signature()
            for slot in QTUPLE_SLOTS:
                if slot != "tuple_id":
                    assert getattr(result, slot) == getattr(reference, slot), slot
            assert result.layout is parent.layout
            assert not result.visits and not result.visited("stem:T")
            assert list(result.components) == list(reference.components)
        # One signature object per template, shared by the siblings until a
        # mutation clears it — on the mutated sibling alone.
        shared = siblings[0]._signature
        assert all(sibling.routing_signature() is shared for sibling in siblings)
        mutated = siblings[0]
        if mutation == "priority":
            mutated.priority = 7.0
        else:
            getattr(mutated, mutation)("stem:S" if mutation == "record_visit" else "S")
        assert mutated._signature is None
        fresh = mutated.routing_signature()
        assert fresh is not shared
        # (a priority change within the "prioritised" class keeps the value)
        assert fresh != shared or (mutation == "priority" and priority > 0.0)
        assert all(sibling._signature is shared for sibling in siblings[1:])
        with pytest.raises(ExecutionError):
            MatchRun(siblings[-1], "T", [], [])
        with pytest.raises(ExecutionError):
            MatchRun(parent, "R", [], [])
        with pytest.raises(ExecutionError):
            parent.extended("R", r_row(), 9.0)


def assert_slots_match_the_constructor(delivered, alias, source, layout):
    """Each delivered singleton equals, slot for slot, what the constructor
    gives for its row (``getattr`` fails on a slot the template left unset)."""
    for singleton in delivered:
        reference = QTuple({alias: singleton.component(alias)}, source=source,
                           created_at=singleton.created_at, layout=layout)
        for slot in QTUPLE_SLOTS:
            if slot != "tuple_id":
                assert getattr(singleton, slot) == getattr(reference, slot), slot
        assert singleton.layout is reference.layout
        assert singleton.routing_signature() == reference.routing_signature()


class TestSingletonTemplateMatchesConstructor:
    """Access methods build the singletons they deliver through
    ``singleton_maker``, which sets every slot itself instead of going
    through ``__init__`` and allocates the tuple id first.  A slot added to
    ``QTuple`` and forgotten in the template fails here."""

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from([LAYOUT, REVERSED]),
        source=st.sampled_from(["", "am:R_scan"]),
        created_at=st.floats(0.0, 50.0),
        keys=st.lists(st.integers(0, 9), min_size=1, max_size=4),
    )
    def test_every_slot_of_every_singleton(self, layout, source, created_at, keys):
        install_id_allocator(TupleIdAllocator(start=50))
        try:
            make = singleton_maker("R", source, layout)
            made = [make(r_row(key), created_at) for key in keys]
            single = singleton_tuple("R", r_row(), source, created_at, layout=layout)
        finally:
            install_id_allocator()  # leave a fresh default for other tests
        assert [t.tuple_id for t in made + [single]] == list(range(50, 51 + len(keys)))
        assert_slots_match_the_constructor(made + [single], "R", source,
                                           made[0].layout)

    @pytest.mark.parametrize("layout", [LAYOUT, REVERSED], ids=["from-clause", "reversed"])
    def test_scan_and_index_deliveries(self, layout):
        runtime = FakeRuntime(layout)
        scan = ScanAMModule(ScanSpec(name="T_scan", table="T", rate=10.0),
                            make_source_t(4, seed=1), "T")
        scan.attach(runtime)
        scan.start()
        runtime.sim.run()
        delivered = [item for item in runtime.delivered if isinstance(item, QTuple)]
        assert len(delivered) == 4
        assert delivered[0].layout is layout
        assert_slots_match_the_constructor(delivered, "T", scan.name, layout)
        runtime.delivered.clear()
        index = IndexAMModule(IndexSpec(name="S_idx", table="S", columns=("x",)),
                              make_source_s(20), "S", THREE_WAY.predicates)
        index.attach(runtime)
        index.process(singleton_tuple("R", r_row(a=7), layout=runtime.layout))
        runtime.sim.run()
        delivered = [item for item in runtime.delivered if isinstance(item, QTuple)]
        assert [t.value("S", "x") for t in delivered] == [7]
        assert_slots_match_the_constructor(delivered, "S", index.name, layout)


class TestTimestampsMatchTheDict:
    """Build timestamps are kept factorised, aligned with the components;
    ``timestamps`` must read exactly as a per-alias dict — built from the
    constructor's mapping (absent aliases :data:`UNBUILT`), overwritten by
    ``mark_built`` and extended by one entry per probe match."""

    @settings(max_examples=150, deadline=None)
    @given(
        composite=st.booleans(),
        given_ts=st.dictionaries(st.sampled_from(["R", "S"]), st.floats(0.0, 9.0)),
        builds=st.lists(
            st.tuples(st.sampled_from(["R", "S"]), st.floats(0.0, 9.0)), max_size=3
        ),
        stored=st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 20.0)), max_size=6),
    )
    def test_every_sibling_for_probes_and_mark_built(self, composite, given_ts, builds, stored):
        from repro.core.stem import SteM

        components = {"R": r_row(key=1)}
        if composite:
            components["S"] = s_row()
        given_ts = {alias: ts for alias, ts in given_ts.items() if alias in components}
        tuple_ = QTuple(components, timestamps=given_ts, layout=LAYOUT)
        model = {alias: UNBUILT for alias in components}
        model.update(given_ts)
        assert tuple_.timestamps == model and list(tuple_.timestamps) == list(components)
        for alias, ts in builds:
            if alias in components:
                tuple_.mark_built(alias, ts)
                model[alias] = ts
            assert tuple_.timestamps == model
            assert tuple_.timestamp == max(model.values())
        stem = SteM("T", aliases=("T",), join_columns=("key",))
        for key, ts in stored:
            stem.build(Row("T", T_SCHEMA, (key,)), ts)
        outcome = stem.probe(tuple_, "T", [equi_join("R.key", "T.key")])
        for sibling in outcome.results:
            row = sibling.components["T"]
            built = next(ts for key, ts in stored if (key,) == row.values)
            assert sibling.timestamps == {**model, "T": built}
            assert list(sibling.timestamps) == list(sibling.components)
            assert sibling.timestamp == max(*model.values(), built)
        fresh = tuple_.timestamps
        fresh["R"] = -1.0  # a copy: editing it edits nothing
        assert tuple_.timestamps == model


CHAIN_LAYOUT = PlanLayout(
    parse_query("SELECT * FROM R, S, T, U WHERE R.k = S.k AND S.k = T.k AND T.k = U.k")
)
K_SCHEMA = Schema.of("k:int", "v:int")
build_times = st.floats(0.0, 9.0) | st.just(UNBUILT)


class TestFactorisedChainsMatchTheDict:
    """A tuple keeps its components factorised: alias and head tuples
    shared with its siblings, its own last row and build timestamp.  Every
    read of a derivation chain — made by ``singleton_maker``, ``MatchRun``
    and ``extended``, with ``mark_built`` on any alias along the way — must
    equal that of the constructor given the same alias -> row dict."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), length=st.integers(1, 4))
    def test_every_read_of_a_derivation_chain(self, data, length):
        from repro.recovery.codec import decode_item, encode_item

        aliases = CHAIN_LAYOUT.alias_order[:length]
        rows = {
            alias: Row(alias, K_SCHEMA, (data.draw(st.integers(0, 3)), i))
            for i, alias in enumerate(aliases)
        }
        chain = singleton_maker(aliases[0], "am:R_scan", CHAIN_LAYOUT)(rows[aliases[0]], 1.5)
        model = {aliases[0]: UNBUILT}
        built = set()
        siblings = []  # (an earlier sibling, what its timestamps must stay)
        for alias in aliases[1:]:
            if data.draw(st.booleans()):
                target = data.draw(st.sampled_from(sorted(model)))
                model[target] = data.draw(build_times)
                chain.mark_built(target, model[target])
                built.add(target)
            timestamp = data.draw(build_times)
            if data.draw(st.booleans()):
                sibling, chain = MatchRun(
                    chain, alias, [Row(alias, K_SCHEMA, (9, 9)), rows[alias]], [0.0, timestamp]
                ).tuples()
                siblings.append((sibling, {**model, alias: 0.0}))
                for slot in ("_aliases", "_head", "_head_ts"):
                    assert getattr(chain, slot) is getattr(sibling, slot)
            else:
                chain = chain.extended(alias, rows[alias], timestamp)
            model[alias] = timestamp
            built.add(alias)
        for target, timestamp in data.draw(
            st.lists(st.tuples(st.sampled_from(aliases), build_times), max_size=2)
        ):
            chain.mark_built(target, timestamp)  # the head's timestamps when not last
            model[target] = timestamp
            built.add(target)
        reference = QTuple(rows, timestamps=model, source="am:R_scan", created_at=1.5,
                           layout=CHAIN_LAYOUT)
        reference.built_mask = CHAIN_LAYOUT.mask_of(built)

        restored = decode_item(
            json.loads(json.dumps(encode_item(chain))), CHAIN_LAYOUT, lambda table: K_SCHEMA, ()
        )
        for tuple_ in (chain, restored):
            assert list(tuple_.components.items()) == list(rows.items())
            assert list(tuple_.timestamps.items()) == list(model.items())
            assert tuple_.timestamp == reference.timestamp
            assert tuple_.identity() == reference.identity()
            assert tuple_.aliases == reference.aliases
            assert tuple_.routing_signature() == reference.routing_signature()
            for alias in aliases:
                assert tuple_.component(alias) == rows[alias]
                assert tuple_.value(alias, "k") == reference.value(alias, "k")
            subset = data.draw(st.sets(st.sampled_from(CHAIN_LAYOUT.alias_order)))
            assert tuple_.spans(subset) == reference.spans(subset) == (subset <= set(aliases))
            with pytest.raises(KeyError):
                tuple_.component("nobody")
        assert all(chain.component(alias) is row for alias, row in rows.items())
        assert encode_item(chain) == encode_item(reference)
        for sibling, timestamps in siblings:  # a later mark_built moved none of them
            assert sibling.timestamps == timestamps


class TestHotObjectsAreLean:
    def test_no_instance_dicts(self):
        tuple_ = singleton_tuple("R", r_row(), layout=LAYOUT)
        for instance in (
            r_row(),
            tuple_,
            tuple_.extended("S", s_row(), 1.0),
            Result({"R": r_row()}),
            OutputRecord(0.0, tuple_),
        ):
            assert not hasattr(instance, "__dict__"), type(instance).__name__

    @staticmethod
    def _fanout_engine(distinct):
        """A 60 x 60 row join on a ``distinct``-valued column."""
        from repro.storage.catalog import Catalog
        from repro.storage.table import Table

        catalog = Catalog()
        for name in ("A", "B"):
            rows = [(i, i % distinct) for i in range(60)]
            catalog.add_table(Table(name, Schema.of("id:int", "value:int"), rows))
            catalog.add_scan(name, rate=100.0)
        return single_query_engine(
            "SELECT * FROM A, B WHERE A.value = B.value", catalog, policy="naive"
        )

    @classmethod
    def _fanout_join(cls, distinct):
        """The fan-out join's run, and how many GC-tracked objects it left
        alive."""
        gc.collect()
        records = sum(type(o) is OutputRecord for o in gc.get_objects())
        tracked = len(gc.get_objects())
        engine = cls._fanout_engine(distinct)
        result = engine.run()["q0"]
        gc.collect()
        tracked = len(gc.get_objects()) - tracked
        records = sum(type(o) is OutputRecord for o in gc.get_objects()) - records
        return engine, result, tracked, records

    def test_a_retained_result_is_one_tracked_container(self):
        """A kept result costs its ``Result`` alone: no ``OutputRecord``,
        and the alias tuple, head rows and head build timestamps are one
        object each, shared by the probe's matches."""
        small = self._fanout_join(distinct=12)
        large = self._fanout_join(distinct=3)  # same rows, 4x the results
        (_, small_result, small_tracked, _), (engine, result, tracked, records) = small, large
        assert result.row_count == 4 * small_result.row_count == 1200
        assert records == 0 and len(engine.eddy_of("q0").outputs) == 1200
        siblings = {}  # the template's head rows name the probe
        for t in result.tuples:
            siblings.setdefault(id(t._head), []).append(t)
        probes = sum(module.stats["probes"] for module in engine.eddy_of("q0").stems.values())
        assert len(siblings) <= probes == 120  # one per probe with matches
        for group in siblings.values():
            for slot in ("_aliases", "_head", "_head_ts"):
                assert all(getattr(t, slot) is getattr(group[0], slot) for t in group), slot
        extra_results = result.row_count - small_result.row_count
        assert tracked - small_tracked <= extra_results + 64

    def test_hot_readers_build_no_components_dict_per_result(self, monkeypatch):
        """``components`` builds a fresh dict, so the hot paths read the
        factorised slots by position: a run reads it once per probe (the
        probe loop binds its plan), once per selection visit and once per
        probe plan compiled, never once per result.  An exact count, with
        no clock."""
        from repro.core.modules.selection import SelectionModule

        reads = [0]
        components = QTuple.components

        def counted(self):
            reads[0] += 1
            return components.fget(self)

        monkeypatch.setattr(QTuple, "components", property(counted))
        engine = self._fanout_engine(distinct=3)
        result = engine.run()["q0"]
        eddy = engine.eddy_of("q0")
        probes = sum(module.stats["probes"] for module in eddy.stems.values())
        selection_visits = sum(
            module.stats["items"]
            for module in eddy.modules.values()
            if isinstance(module, SelectionModule)
        )
        plans = len(eddy.layout.probe_plans)
        assert (result.row_count, probes, plans) == (1200, 120, 2)
        assert reads[0] <= probes + selection_visits + plans

    def test_retained_bytes_per_result(self):
        """What a held run keeps per extra result: the ``Result``, its id
        and one pointer per result list and series.  199 bytes on CPython
        3.11; the bound is that plus 10%.  A kept ``QTuple`` does not fit
        (305-312 bytes on CPython 3.10 to 3.13), nor does a per-result
        ``components`` dict and timestamp tuple (526-568)."""

        def traced(distinct):
            engine = self._fanout_engine(distinct)
            gc.collect()
            tracemalloc.start()
            try:
                result = engine.run()["q0"]
                gc.collect()
                return result.row_count, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        traced(12)  # warm-up: first-use caches are not per-result costs
        (small_rows, small_bytes), (rows, held) = traced(12), traced(3)
        assert (rows, small_rows) == (1200, 300)
        assert (held - small_bytes) / (rows - small_rows) <= 218

    def test_engines_keep_results_not_dataflow_tuples(self):
        """Every engine keeps a ``Result`` per result, never the ``QTuple``
        that was routed: in ``ExecutionResult.tuples`` and, where the test
        holds the eddy, in ``Eddy.outputs``."""
        from repro.engine.api import execute
        from repro.engine.joins_engine import EddyJoinsEngine

        stems = self._fanout_engine(distinct=12)
        query, catalog = stems.eddy_of("q0").layout.query, stems.catalog
        joins = EddyJoinsEngine(query, catalog)
        kept = {
            "stems": (stems.run()["q0"].tuples, stems.eddy_of("q0").outputs),
            "eddy-joins": (joins.run().tuples, joins.eddy.outputs),
            "static": (execute(query, catalog, engine="static").tuples, []),
        }
        for engine, (tuples, outputs) in kept.items():
            assert len(tuples) == 300, engine
            held = [*tuples, *(record.tuple for record in outputs)]
            assert {type(t) for t in held} == {Result}, engine

    def test_a_kept_result_is_the_emitted_tuple_s_data(self):
        """The eddy's output loop builds each ``Result`` from the entry it
        emits — here every result is a match of a run — holding the very
        objects the match's materialised QTuple would hold; the emission
        hook receives the kept ``Result`` itself."""
        engine = self._fanout_engine(distinct=12)
        eddy = engine.eddy_of("q0")
        emitted, matches = [], {}

        def recording(items, source=None, deliver=eddy.to_eddy_all):
            for item in items:
                if type(item) is MatchRun:
                    matches.update((match.tuple_id, match) for match in item.tuples())
            deliver(items, source)

        eddy.to_eddy_all = recording
        eddy.on_emit = emitted.append
        engine.run()
        assert len(emitted) == len(eddy.output_tuples) == len(matches) == 300
        for hooked, kept in zip(emitted, eddy.output_tuples):
            assert hooked is kept and type(kept) is Result
            match = matches[kept.tuple_id]
            for slot in Result.__slots__[1:]:  # all but the (equal) tuple id
                assert getattr(kept, slot) is getattr(match, slot), slot

    def test_collecting_a_result_allocates_no_per_point_tuple(self):
        """The output and partial-result series keep their times, not a
        ``(time, count)`` pair per point: collecting a run makes no
        container per result."""
        from repro.engine.instantiate import collect_stems_result

        engine = self._fanout_engine(distinct=3)
        result = engine.run()["q0"]
        eddy = engine.eddy_of("q0")
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            collected = collect_stems_result(eddy, eddy.layout.query, result.final_time)
            made = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert collected.row_count == 1200 and collected.output_series.counts is None
        assert made < collected.row_count // 4
        assert all(series.counts is None for series in collected.partial_series.values())
        assert collected.output_series == result.output_series

    def test_equal_rows_hash_equal(self):
        first = Row("R", R_SCHEMA, (1, 10), rid=0)
        second = Row("R", Schema.of("key:int", "a:int"), [1, 10], rid=7)
        assert first == second
        assert hash(first) == hash(second) == hash(first)
        assert len({first, second}) == 1
        assert hash(first) != hash(Row("S", R_SCHEMA, (1, 10)))

    def test_unhashable_value_raises_on_hash_not_on_construction(self):
        row = Row("R", R_SCHEMA, (1, [10]))
        for _ in range(2):  # a failed hash is not remembered as a hash
            with pytest.raises(TypeError):
                hash(row)


class TestEOT:
    def test_scan_eot(self):
        eot = EOTTuple(table="R", alias="R", am_name="am:R_scan")
        assert eot.is_scan_eot
        assert "scan complete" in repr(eot)

    def test_index_eot(self):
        eot = EOTTuple(
            table="S", alias="S", am_name="am:S_idx",
            bound_columns=("x",), bound_values=(15,),
        )
        assert not eot.is_scan_eot
        assert "x=15" in repr(eot)


class TestRoutingSignatureMemo:
    """routing_signature() is memoized on the tuple and every state
    mutation invalidates it — a stale signature would poison both the
    batched eddy's grouping and the destination-signature cache."""

    def test_repeated_calls_return_the_same_object(self):
        tuple_ = singleton_tuple("R", r_row(), layout=LAYOUT)
        first = tuple_.routing_signature()
        assert tuple_.routing_signature() is first  # no per-call allocation

    def test_signature_elements_are_scalars(self):
        tuple_ = singleton_tuple("R", r_row(), layout=LAYOUT)
        tuple_.mark_built("R", 1.0)
        tuple_.record_visit("stem:S")
        assert all(
            isinstance(part, (int, bool, str, type(None)))
            for part in tuple_.routing_signature()
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda t: t.mark_done([selection("R.a", "<", 100)]),
            lambda t: t.record_visit("stem:S"),
            lambda t: t.mark_built("R", 1.0),
            lambda t: t.mark_resolved("S"),
            lambda t: t.mark_exhausted("S"),
            lambda t: setattr(t, "stop_stem_probes", True),
            lambda t: setattr(t, "probe_completion_alias", "S"),
            lambda t: setattr(t, "priority", 2.0),
        ],
        ids=[
            "mark_done", "record_visit", "mark_built", "mark_resolved",
            "mark_exhausted", "stop_stem_probes", "probe_completion", "priority",
        ],
    )
    def test_mutation_after_caching_yields_a_fresh_signature(self, mutate):
        tuple_ = singleton_tuple("R", r_row(), layout=LAYOUT)
        before = tuple_.routing_signature()
        mutate(tuple_)
        after = tuple_.routing_signature()
        assert after is not before
        assert after != before

    def test_noop_mark_done_keeps_the_memo(self):
        predicate = selection("R.a", "<", 100)
        tuple_ = singleton_tuple("R", r_row(), layout=LAYOUT)
        tuple_.mark_done([predicate])
        cached = tuple_.routing_signature()
        tuple_.mark_done([predicate])  # already done: no state change
        assert tuple_.routing_signature() is cached

    def test_equal_state_tuples_share_a_signature_value(self):
        first = singleton_tuple("R", r_row(key=1), layout=LAYOUT)
        second = singleton_tuple("R", r_row(key=2), layout=LAYOUT)
        for tuple_ in (first, second):
            tuple_.mark_built("R", 1.0)
            tuple_.record_visit("stem:S")
        # Values (key 1 vs 2) differ; routing state does not.
        assert first.routing_signature() == second.routing_signature()


class TestTupleIdAllocation:
    """Tuple ids come from a per-run allocator, not a process-global counter."""

    def test_install_fresh_allocator_restarts_ids(self):
        from repro.core.tuples import install_id_allocator

        install_id_allocator()
        first = singleton_tuple("R", r_row(key=1), layout=LAYOUT)
        assert first.tuple_id == 1
        assert singleton_tuple("R", r_row(key=2), layout=LAYOUT).tuple_id == 2
        install_id_allocator()
        assert singleton_tuple("R", r_row(key=3), layout=LAYOUT).tuple_id == 1

    def test_install_specific_allocator(self):
        from repro.core.tuples import TupleIdAllocator, install_id_allocator

        allocator = TupleIdAllocator(start=100)
        returned = install_id_allocator(allocator)
        assert returned is allocator
        assert singleton_tuple("R", r_row(), layout=LAYOUT).tuple_id == 100
        install_id_allocator()  # leave a fresh default for other tests

    def test_query_id_defaults_empty_and_propagates_to_extensions(self):
        base = singleton_tuple("R", r_row(), layout=LAYOUT)
        assert base.query_id == ""
        base.query_id = "q7"
        extended = base.extended("S", Row("S", S_SCHEMA, (3, 4)), 2.0)
        assert extended.query_id == "q7"
