"""The consistent cut: codec round trips and restore-then-checkpoint identity.

Two identities carry the resume-from-the-cut recovery:

* the dataflow-item codec (:func:`encode_item` / :func:`decode_item`) gives
  back a tuple equal in *every* TupleState slot — under hostile component
  values — so a restored tuple routes exactly as the lost one would have;
* ``restore_engine(cut)`` followed at once by ``take_checkpoint()`` writes
  the same cut again: tables, coverage, cursor, scan positions, lookup
  state, carried timestamps and every in-flight item, in order.  Nothing of
  the cut is lost, invented or reordered by a restore.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.tuples import EOTTuple, QTuple
from repro.engine.multi import MultiQueryEngine
from repro.errors import ExecutionError
from repro.query.layout import PlanLayout
from repro.query.parser import parse_query
from repro.recovery import CheckpointManager, recover_state, restore_engine
from repro.recovery.codec import decode_item, encode_item
from repro.recovery.snapshot import SnapshotStore
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.helpers import QTUPLE_SLOTS

from test_crash_recovery import SWEPT_WORKLOADS, _dry_run
from test_roundtrip_properties import equivalent, scalars

# -- the item codec ----------------------------------------------------------------

LAYOUT = PlanLayout(
    parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key AND R.a < 7")
)
ALIASES = LAYOUT.alias_order
MODULES = ("stem:R", "stem:S", "stem:T", "am:idx:S", "sel:1")
SCHEMA = Schema.of("c0:int", "c1:int")

timestamps = st.one_of(
    st.just(float("inf")), st.integers(1, 2**40).map(float)
)
components = st.dictionaries(
    st.sampled_from(ALIASES),
    st.tuples(st.tuples(scalars, scalars), st.integers(0, 2**40), timestamps),
    min_size=1,
)
alias_sets = st.sets(st.sampled_from(ALIASES))


@st.composite
def qtuples(draw):
    drawn = draw(components)
    item = QTuple(
        {
            alias: Row(alias.lower() + "_table", SCHEMA, values, rid=rid)
            for alias, (values, rid, _) in drawn.items()
        },
        {alias: ts for alias, (_, _, ts) in drawn.items()},
        done=draw(st.sets(st.sampled_from(sorted(LAYOUT.predicate_bits)))),
        source=draw(st.sampled_from(("", "am:scan:R", "am:idx:S"))),
        priority=draw(st.sampled_from((0.0, 2.5))),
        created_at=draw(st.floats(0, 1e6)),
        query_id=draw(st.sampled_from(("", "q7"))),
        layout=LAYOUT,
    )
    item.built_mask = LAYOUT.mask_of(draw(alias_sets))
    item.resolved_mask = LAYOUT.mask_of(draw(alias_sets))
    item.exhausted_mask = LAYOUT.mask_of(draw(alias_sets))
    for module in draw(st.lists(st.sampled_from(MODULES), max_size=4)):
        item.record_visit(module)
    item.stop_stem_probes = draw(st.booleans())
    item.probe_completion_alias = draw(st.sampled_from((None, *ALIASES)))
    item.failed = draw(st.booleans())
    return item


def differing_slots(a: QTuple, b: QTuple) -> list[str]:
    """Names of the TupleState slots in which two tuples differ."""
    # The row slots are compared below, through ``components``: ``Row``
    # equality is value equality, under which a NaN value differs from itself.
    differing = [
        slot
        for slot in QTUPLE_SLOTS
        if slot not in ("tuple_id", "_head", "_row", "_signature")
        and not equivalent(_plain(getattr(a, slot)), _plain(getattr(b, slot)))
    ]
    if list(a.components) != list(b.components) or any(
        row.table != b.components[alias].table
        or row.rid != b.components[alias].rid
        or not equivalent(row.values, b.components[alias].values)
        for alias, row in a.components.items()
    ):
        differing.append("components")
    if a.routing_signature() != b.routing_signature():
        differing.append("routing_signature()")
    return differing


def _plain(value):
    """Mappings as sorted item tuples, so ``equivalent`` can compare them."""
    return tuple(sorted(value.items())) if hasattr(value, "items") else value


def through_json(item, modules=MODULES):
    wire = json.loads(json.dumps(encode_item(item)))
    return decode_item(wire, LAYOUT, lambda table: SCHEMA, modules)


class TestItemCodec:
    @given(item=qtuples())
    @settings(max_examples=80, deadline=None)
    def test_every_slot_survives(self, item):
        restored = through_json(item)
        assert differing_slots(item, restored) == []
        assert restored.layout is LAYOUT
        assert restored.tuple_id != item.tuple_id  # a fresh id, on purpose

    @given(
        columns=st.lists(st.text(max_size=5), max_size=3),
        values=st.lists(scalars, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_eot_round_trip(self, columns, values):
        eot = EOTTuple("T", "t", "am:idx:t", tuple(columns), tuple(values))
        restored = through_json(eot)
        assert (restored.table, restored.alias, restored.am_name) == ("T", "t", "am:idx:t")
        assert restored.bound_columns == tuple(columns)
        assert equivalent(restored.bound_values, tuple(values))

    @pytest.mark.parametrize(
        "field, blank, slot",
        [
            ("visits", {}, "visits_token"),
            ("resolved", [], "resolved_mask"),
            ("pc", None, "_probe_completion_alias"),
        ],
    )
    def test_the_comparison_sees_a_dropped_field(self, field, blank, slot):
        # Mutation check of the property above: a codec that dropped one of
        # these would be caught by it, slot by name.
        item = QTuple({"R": Row("r_table", SCHEMA, (1, 2), rid=0)}, layout=LAYOUT)
        item.record_visit("stem:S")
        item.resolved_mask = LAYOUT.mask_of(["S"])
        item.probe_completion_alias = "T"
        wire = dict(encode_item(item), **{field: blank})
        restored = decode_item(wire, LAYOUT, lambda table: SCHEMA, MODULES)
        assert slot in differing_slots(item, restored)

    def test_visits_survive_a_layout_that_numbers_modules_otherwise(self):
        # A restored query gets a fresh layout, whose visit bits follow the
        # order its own tuples first reach each module: the names carry the
        # visits across, and the sorted list re-encodes to the same wire.
        original, fresh = PlanLayout(LAYOUT.query), PlanLayout(LAYOUT.query)
        item = QTuple({"R": Row("r_table", SCHEMA, (1, 2), rid=0)}, layout=original)
        item.record_visit("stem:T")
        item.record_visit("stem:R")
        QTuple({"R": Row("r_table", SCHEMA, (3, 4), rid=1)}, layout=fresh).record_visit("stem:S")
        wire = json.loads(json.dumps(encode_item(item)))
        assert wire["visits"] == ["stem:R", "stem:T"]
        restored = decode_item(wire, fresh, lambda table: SCHEMA, MODULES)
        assert restored.visits == item.visits
        assert restored.visits_token != item.visits_token
        assert json.loads(json.dumps(encode_item(restored))) == wire

    def test_a_visit_count_dict_still_decodes(self):
        # Older cuts wrote visits as ``{module: count}``; its keys are the
        # names, so it decodes to the same visits.
        item = QTuple({"R": Row("r_table", SCHEMA, (1, 2), rid=0)}, layout=LAYOUT)
        wire = dict(encode_item(item), visits={"stem:S": 1, "am:idx:S": 1})
        restored = decode_item(wire, LAYOUT, lambda table: SCHEMA, MODULES)
        assert restored.visits == {"stem:S", "am:idx:S"}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("built", ["nobody"]),
            ("pc", "nobody"),
            ("done", [99]),
            ("visits", {"stem:nobody": 1}),
        ],
    )
    def test_a_piece_that_cannot_be_placed_raises(self, field, value):
        item = QTuple({"R": Row("r_table", SCHEMA, (1, 2), rid=0)}, layout=LAYOUT)
        wire = dict(encode_item(item), **{field: value})
        with pytest.raises(ExecutionError, match="does not have"):
            decode_item(wire, LAYOUT, lambda table: SCHEMA, MODULES)


# -- restore, then checkpoint: the same cut ----------------------------------------

#: The snapshot sections a restore must give back unchanged.
CUT_SECTIONS = ("time", "next_timestamp", "tables", "queries")


def cut_at(tmp_path, name: str, boundary: int):
    """Stop workload ``name`` after ``boundary`` events and checkpoint it."""
    admissions, catalog, churn_events, options = SWEPT_WORKLOADS[name]()
    engine = MultiQueryEngine(list(admissions), catalog, continuous=True, **options)
    engine.schedule_churn(list(churn_events))
    directory = str(tmp_path / "first")
    manager = CheckpointManager.attach(engine, directory)

    class Stop(Exception):
        pass

    def stop(event) -> None:
        if engine.simulator.executed_events >= boundary:
            raise Stop

    engine.simulator.after_event_hook = stop
    try:
        engine.run()
    except Stop:
        pass
    manager.take_checkpoint()
    manager.simulate_crash()
    return directory, catalog, churn_events, options


def recheckpoint(tmp_path, directory, catalog, churn_events, options, label="second"):
    """Restore ``directory``'s cut and checkpoint the restored engine at once."""
    restored = restore_engine(
        recover_state(directory), catalog, churn_events=churn_events, **options
    )
    again = str(tmp_path / label)
    CheckpointManager.attach(restored, again).take_checkpoint()
    return restored, SnapshotStore(again).load_latest()


class TestRestoreThenCheckpoint:
    @pytest.mark.parametrize("name", sorted(SWEPT_WORKLOADS))
    @given(fraction=st.floats(0.02, 0.98))
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_cut(self, tmp_path_factory, name, fraction):
        tmp_path = tmp_path_factory.mktemp("cut")
        admissions, catalog, churn_events, options = SWEPT_WORKLOADS[name]()
        events, _ = _dry_run(tmp_path, admissions, catalog, churn_events, **options)
        directory, catalog, churn_events, options = cut_at(
            tmp_path, name, max(1, int(events * fraction))
        )
        first = SnapshotStore(directory).load_latest()
        _, second = recheckpoint(tmp_path, directory, catalog, churn_events, options)
        for section in CUT_SECTIONS:
            assert second[section] == first[section], section
        # Queries retired before the cut are not admitted again, yet stay
        # listed (ahead of the live ones), with their retirements and acks.
        retired = [a for a in first["admissions"] if a["q"] in first["retired"]]
        live = [a for a in first["admissions"] if a["q"] not in first["retired"]]
        assert second["admissions"] == retired + live
        assert second["retired"] == first["retired"]
        assert second["emitted"] == first["emitted"]

    def test_the_comparison_sees_dropped_lookup_state_and_coverage(self, tmp_path):
        # Dropping completed keys or coverage costs only repeated lookups,
        # so no result oracle can see it; the round trip must.
        directory, catalog, churn_events, options = cut_at(tmp_path, "index_only", 700)
        first = SnapshotStore(directory).load_latest()
        assert any(table["coverage"]["keys"] for table in first["tables"])
        state = recover_state(directory)
        for table in state.tables.values():
            table.eot_keys.clear()
        restored = restore_engine(state, catalog, **options)
        CheckpointManager.attach(restored, str(tmp_path / "second")).take_checkpoint()
        second = SnapshotStore(str(tmp_path / "second")).load_latest()
        assert second["tables"] != first["tables"]
        assert second["queries"] == first["queries"]


class TestBlockedOffers:
    def test_blocked_offers_ride_the_cut(self, tmp_path):
        """No engine option bounds a multi-query module queue, so no sweep
        sees a blocked offer; bound them by hand and cut where some wait."""
        admissions, catalog, _, _ = SWEPT_WORKLOADS["three_way"]()

        def bounded(engine):
            for query_id in engine.active:
                for module in engine.eddy_of(query_id).modules.values():
                    module.queue.capacity = 1
            return engine

        reference = MultiQueryEngine(list(admissions), catalog).run()
        engine = bounded(MultiQueryEngine(list(admissions), catalog, continuous=True))
        manager = CheckpointManager.attach(engine, str(tmp_path / "first"))

        class Stop(Exception):
            pass

        def stop_when_blocked(event) -> None:
            if any(
                items
                for query_id in engine.active
                for items in engine.eddy_of(query_id)._blocked.values()
            ):
                raise Stop

        engine.simulator.after_event_hook = stop_when_blocked
        with pytest.raises(Stop):
            engine.run()
        manager.take_checkpoint()
        manager.simulate_crash()
        state = recover_state(str(tmp_path / "first"))
        assert state.cut_counts()["blocked"] > 0

        first = SnapshotStore(str(tmp_path / "first")).load_latest()
        restored = bounded(restore_engine(state, catalog))
        CheckpointManager.attach(restored, str(tmp_path / "second")).take_checkpoint()
        second = SnapshotStore(str(tmp_path / "second")).load_latest()
        assert second["queries"] == first["queries"]

        result = restored.run()
        for query_id, expected in reference.results.items():
            acked = state.emitted.get(query_id, {})
            assert sum(acked.values()) + len(result[query_id].tuples) == len(
                expected.tuples
            ), query_id


class TestUnplaceablePieces:
    def test_unknown_module_in_the_cut_raises(self, tmp_path):
        directory, catalog, churn_events, options = cut_at(tmp_path, "index_only", 300)
        state = recover_state(directory)
        query = next(iter(state.queries.values()))
        query["modules"]["stem:nobody"] = query["modules"].pop("stem:R")
        with pytest.raises(ExecutionError, match="stem:nobody"):
            restore_engine(state, catalog, **options)

    def test_carried_timestamp_without_its_row_raises(self, tmp_path):
        directory, catalog, churn_events, options = cut_at(tmp_path, "index_only", 300)
        state = recover_state(directory)
        state.tables["R"].rows.clear()
        with pytest.raises(ExecutionError, match="holds no such row"):
            restore_engine(state, catalog, **options)

    def test_snapshot_of_another_format_is_refused(self, tmp_path):
        # Rows-and-coverage snapshots (format 1) hold no cut to resume.
        SnapshotStore(str(tmp_path)).write({"kind": "repro-snapshot", "version": 1})
        with pytest.raises(ExecutionError, match="format 1"):
            recover_state(str(tmp_path))
