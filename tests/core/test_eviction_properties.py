"""Hypothesis property suite for SteM eviction under churn.

Random interleavings of builds, probes, explicit evictions, query
admissions and retirements (registry ``stem_for``/``release``) must — under
*every* eviction policy — preserve the invariants the rest of the system
leans on:

* **index consistency**: every secondary index holds exactly the stored
  rows, each stored row is reachable through its own key, every bucket
  entry carries the row's stored build timestamp, and a SteM rebuilt from
  ``state_entries()`` has equal buckets;
* **evict listeners fire exactly once per eviction**, and only after the
  row has actually left the store;
* **the maximum build timestamp stays correct** even when an eviction
  removes the newest row (the incremental-maintenance invalidation);
* **coverage claims never survive an eviction** (a SteM that dropped data
  must not claim it holds all matches);
* **registry releases** drop exactly the indexes/aliases whose last reader
  retired, bump ``index_epoch`` (so compiled probe plans re-resolve), and
  reclaim the SteM when its table refcount hits zero.

The suite is marked ``slow``; CI runs it in the dedicated slow job.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stem import (
    CountEviction,
    ReferenceWindowEviction,
    SteM,
    TimeWindowEviction,
)
from repro.core.stem_registry import SteMRegistry
from repro.core.tuples import QTuple
from repro.query.probeplan import ProbePlan
from repro.storage.datagen import make_source_r, make_source_s
from tests.reference.interpreted_probe import interpreted_probe
from tests.helpers import equi_join, layout_over, refcount

pytestmark = pytest.mark.slow

#: The row universe: 24 R rows over 6 distinct ``a`` values, so probes hit.
R_ROWS = tuple(make_source_r(24, 6, seed=13).rows)
#: Probe rows: S rows whose ``x`` spans the ``a`` domain (plus misses).
S_ROWS = tuple(make_source_s(8).rows)
JOIN_PREDICATE = equi_join("R.a", "S.x")
LAYOUT = layout_over("R", "S")

POLICY_FACTORIES = {
    "none": lambda: None,
    "count": lambda: CountEviction(5),
    "time-window": lambda: TimeWindowEviction(8),
    "reference-window": lambda: ReferenceWindowEviction(5),
}

OPS = st.one_of(
    st.tuples(st.just("build"), st.integers(0, len(R_ROWS) - 1)),
    st.tuples(st.just("probe"), st.integers(0, len(S_ROWS) - 1)),
    st.tuples(st.just("probe_plan"), st.integers(0, len(S_ROWS) - 1)),
    st.tuples(st.just("evict"), st.integers(0, len(R_ROWS) - 1)),
    st.tuples(st.just("ensure"), st.sampled_from(["a", "key"])),
    st.tuples(st.just("drop"), st.sampled_from(["a", "key"])),
)


def make_probe(position: int) -> QTuple:
    """A fresh singleton probe (unbuilt, so it sees every stored match)."""
    return QTuple({"S": S_ROWS[position]}, layout=LAYOUT)


def check_invariants(stem: SteM, evict_log: list, harness) -> None:
    stored = stem._rows
    # Index consistency: each index holds exactly the stored rows, every
    # stored row sits in the bucket of its own key, and every bucket entry
    # carries the row's build timestamp from the store.
    for column, buckets in stem._indexes.items():
        entries = [entry for bucket in buckets.values() for entry in bucket.items()]
        assert len(entries) == len(stored), f"index on {column!r} diverged from the store"
        for row, timestamp in entries:
            assert stored[row] == timestamp, f"bucket timestamp of {row!r} on {column!r}"
        assert all(buckets.values()), f"index on {column!r} kept an empty bucket"
        for row in stored:
            assert row in buckets[row[column]]
    # A SteM rebuilt from its snapshot unit has equal buckets.
    rebuilt = SteM(stem.table, stem.aliases, stem.join_columns)
    for row, timestamp in stem.state_entries():
        rebuilt.build(row, timestamp)
    assert rebuilt._indexes == stem._indexes
    # Listener accounting: exactly one callback per eviction, ever.
    assert len(evict_log) == harness.total_evictions()
    # A SteM that evicted data must not claim full coverage.
    if harness.evictions_on_current() > 0:
        assert not stem.scan_complete


class Harness:
    """Drives one SteM (possibly recreated through a registry) through ops."""

    def __init__(self, policy_name: str):
        self.policy_name = policy_name
        config = {
            "none": dict(),
            "count": dict(eviction="count", max_size=5),
            "time-window": dict(eviction="time-window", window=8),
            "reference-window": dict(eviction="reference-window", max_size=5),
        }[policy_name]
        self.registry = SteMRegistry(**config)
        self.evict_log: list = []
        self.timestamps = iter(range(1, 10_000))
        self.retired_eviction_count = 0
        self.owner_counter = 0
        self.owners: list[str] = []
        self.stem: SteM | None = None

    def admit(self) -> None:
        owner = f"owner{self.owner_counter}"
        self.owner_counter += 1
        stem = self.registry.stem_for("R", "R", ("a", "key"), owner=owner)
        if stem is not self.stem:
            # A fresh SteM (first admission, or re-created after full
            # reclamation): hook the listener that must fire exactly once
            # per eviction, and only after the row left the store.
            def listener(row, stem=stem):
                assert row not in stem._rows, "listener fired before removal"
                self.evict_log.append(row)

            stem.add_evict_listener(listener)
            self.stem = stem
        self.owners.append(owner)

    def release(self, position: int) -> None:
        owner = self.owners.pop(position % len(self.owners))
        before = self.current_eviction_stat()
        reclaimed = self.registry.release(owner)
        if reclaimed:
            self.retired_eviction_count += before
            self.stem = None

    def current_eviction_stat(self) -> int:
        return self.stem.stats["evictions"] if self.stem is not None else 0

    def evictions_on_current(self) -> int:
        return self.current_eviction_stat()

    def total_evictions(self) -> int:
        return self.retired_eviction_count + self.current_eviction_stat()


@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(OPS, max_size=50))
def test_interleavings_preserve_stem_invariants(policy_name, ops):
    """build/probe/evict interleavings keep every invariant, per policy."""
    stem = SteM(
        "R",
        aliases=("R",),
        join_columns=("a", "key"),
        eviction=POLICY_FACTORIES[policy_name](),
    )
    evict_log: list = []

    def listener(row):
        assert row not in stem._rows, "listener fired before removal"
        evict_log.append(row)

    stem.add_evict_listener(listener)

    class SoloHarness:
        def total_evictions(self):
            return stem.stats["evictions"]

        def evictions_on_current(self):
            return stem.stats["evictions"]

    harness = SoloHarness()
    timestamps = iter(range(1, 10_000))
    plan: ProbePlan | None = None
    for op, argument in ops:
        if op == "build":
            stem.build(R_ROWS[argument], float(next(timestamps)))
        elif op == "probe":
            interpreted_probe(stem, make_probe(argument), "R", [JOIN_PREDICATE])
        elif op == "probe_plan":
            probe = make_probe(argument)
            if plan is None:
                plan = ProbePlan.compile(
                    [JOIN_PREDICATE], "R", probe.components,
                    target_schema=stem.row_schema,
                )
            stem.probe_with_plan(probe, plan)
        elif op == "evict":
            stem.evict(R_ROWS[argument])
        elif op == "ensure":
            stem.ensure_join_columns((argument,))
        elif op == "drop":
            stem.drop_join_column(argument)
        check_invariants(stem, evict_log, harness)


REGISTRY_OPS = st.one_of(
    OPS,
    st.tuples(st.just("admit"), st.just(0)),
    st.tuples(st.just("release"), st.integers(0, 7)),
)


@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(REGISTRY_OPS, max_size=50))
def test_churn_interleavings_preserve_registry_invariants(policy_name, ops):
    """admit/release interleaved with builds/probes/evicts: refcounts,
    reclamation, index drops and the per-SteM invariants all hold."""
    harness = Harness(policy_name)
    plan: ProbePlan | None = None
    for op, argument in ops:
        if op == "admit":
            harness.admit()
        elif op == "release":
            if harness.owners:
                harness.release(argument)
                plan = None
        elif harness.stem is None:
            continue  # data ops need a live SteM
        elif op == "build":
            harness.stem.build(R_ROWS[argument], float(next(harness.timestamps)))
        elif op == "probe":
            interpreted_probe(harness.stem, make_probe(argument), "R", [JOIN_PREDICATE])
        elif op == "probe_plan":
            probe = make_probe(argument)
            if plan is None:
                plan = ProbePlan.compile(
                    [JOIN_PREDICATE], "R", probe.components,
                    target_schema=harness.stem.row_schema,
                )
            harness.stem.probe_with_plan(probe, plan)
        elif op == "evict":
            harness.stem.evict(R_ROWS[argument])
        elif op == "ensure":
            harness.stem.ensure_join_columns((argument,))
        elif op == "drop":
            harness.stem.drop_join_column(argument)
        # Registry invariants.
        assert refcount(harness.registry, "R") == len(harness.owners)
        if harness.owners:
            assert harness.stem is not None
            assert "R" in harness.registry
        else:
            assert "R" not in harness.registry  # reclaimed with the last owner
        if harness.stem is not None:
            check_invariants(harness.stem, harness.evict_log, harness)


@pytest.mark.parametrize("policy_name", ["count", "time-window", "reference-window"])
@settings(max_examples=30, deadline=None)
@given(build_order=st.permutations(list(range(len(R_ROWS)))))
def test_policies_bound_the_store(policy_name, build_order):
    """Whatever the build order, bounded policies keep their bound."""
    stem = SteM(
        "R", aliases=("R",), join_columns=("a",),
        eviction=POLICY_FACTORIES[policy_name](),
    )
    timestamp = 0
    for position in build_order:
        timestamp += 1
        stem.build(R_ROWS[position], float(timestamp))
        if policy_name in ("count", "reference-window"):
            assert len(stem) <= 5
        else:
            assert len(stem) <= 8
            floor = timestamp - 8
            assert all(ts > floor for ts in stem._rows.values())
