"""Snapshot atomicity/retention/torn fallback and WAL durability semantics."""

from __future__ import annotations

import os

import pytest

from repro.errors import ExecutionError
from repro.recovery.codec import frame_record_bytes
from repro.recovery.manager import recover_state
from repro.recovery.snapshot import SnapshotStore
from repro.recovery.wal import (
    DURABLE_KINDS,
    WriteAheadLog,
    replay_wal_file,
    wal_generations,
)


class TestSnapshotStore:
    def test_write_load_round_trip(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        path = store.write({"kind": "repro-snapshot", "x": [1, 2]})
        assert os.path.exists(path)
        loaded = SnapshotStore(str(tmp_path)).load_latest()
        assert loaded["x"] == [1, 2]
        assert loaded["snapshot_seq"] == 1

    def test_sequences_increment_and_retention_prunes(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=2)
        for i in range(5):
            store.write({"i": i})
        generations = store.generations()
        assert [seq for seq, _ in generations] == [4, 5]
        assert store.load_latest()["i"] == 4

    def test_retention_floor(self, tmp_path):
        with pytest.raises(ExecutionError):
            SnapshotStore(str(tmp_path), retain=1)

    def test_no_snapshot_returns_none(self, tmp_path):
        assert SnapshotStore(str(tmp_path)).load_latest() is None

    def test_torn_newest_falls_back_to_previous(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.write({"i": "good"})
        store.write({"i": "torn"}, torn_bytes=25)
        reader = SnapshotStore(str(tmp_path))
        loaded = reader.load_latest()
        assert loaded["i"] == "good"
        assert reader.stats["torn_detected"] == 1

    def test_everything_torn_returns_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.write({"i": 1}, torn_bytes=10)
        reader = SnapshotStore(str(tmp_path))
        assert reader.load_latest() is None
        assert reader.stats["torn_detected"] == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.write({"i": 1})
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_foreign_files_ignored(self, tmp_path):
        (tmp_path / "snapshot-notanum.snap").write_text("junk")
        (tmp_path / "other.txt").write_text("junk")
        store = SnapshotStore(str(tmp_path))
        assert store.generations() == []
        assert store.next_sequence() == 1


class TestWriteAheadLog:
    def test_lifecycle_flushes_inline_and_acks_wait_for_the_flush(self, tmp_path):
        path = str(tmp_path / "wal-000001.log")
        wal = WriteAheadLog(path)
        wal.append("admit", {"q": "q0"})
        assert wal.position == 1
        wal.log_emit("q0", "k")  # queued for the owner's commit flush
        assert wal.position == 1
        assert wal.stats["durable_appends"] == 2
        wal.close()
        records, torn = replay_wal_file(path)
        assert torn == 0
        assert [r["k"] for r in records] == ["admit", "emits"]

    def test_group_commit_batches_acks_until_the_owner_flushes(self, tmp_path):
        path = str(tmp_path / "wal-000001.log")
        wal = WriteAheadLog(path)
        for key in ("a", "b"):
            wal.log_emit("q0", key)
        wal.log_emit("q1", "c")
        assert wal.position == 0 and wal._pending_emits  # queued, not acked
        wal.flush()
        assert wal.position == 2 and not wal._pending_emits
        wal.close()
        records, _ = replay_wal_file(path)
        assert [(r["k"], r["q"], r["ids"]) for r in records] == [
            ("emits", "q0", ["a", "b"]),
            ("emits", "q1", ["c"]),
        ]

    def test_lifecycle_record_carries_queued_acks_with_it(self, tmp_path):
        path = str(tmp_path / "wal-000001.log")
        wal = WriteAheadLog(path)
        wal.log_emit("q0", "a")
        wal.append("retire", {"q": "q0", "at": 1.0})  # flushes inline
        assert wal.position == 2 and not wal._pending_emits
        wal.close()
        assert [r["k"] for r in replay_wal_file(path)[0]] == ["retire", "emits"]

    def test_simulated_crash_drops_exactly_the_unflushed_acks(self, tmp_path):
        path = str(tmp_path / "wal-000001.log")
        wal = WriteAheadLog(path)
        wal.append("admit", {"q": "q0"})  # durable
        for i in range(5):
            wal.log_emit("q0", str(i))  # waiting for the commit window
        lost = wal.simulate_crash()
        assert lost == 5
        records, _ = replay_wal_file(path)
        assert [r["k"] for r in records] == ["admit"]
        with pytest.raises(ExecutionError):
            wal.append("admit", {})

    def test_torn_tail_truncated_on_replay(self, tmp_path):
        path = str(tmp_path / "wal-000001.log")
        wal = WriteAheadLog(path)
        for i in range(4):
            wal.log_emit("q0", str(i))
            wal.flush()
        wal.close()
        with open(path, "r+", encoding="utf-8") as handle:
            content = handle.read()
            handle.seek(0)
            handle.write(content[:-7])  # tear the final record
            handle.truncate()
        records, torn = replay_wal_file(path)
        assert torn == 1
        assert [r["ids"] for r in records] == [["0"], ["1"], ["2"]]

    def test_generations_enumeration(self, tmp_path):
        for gen in (3, 1, 2):
            WriteAheadLog(str(tmp_path / f"wal-{gen:06d}.log")).close()
        (tmp_path / "wal-junk.log").write_text("x")
        generations = wal_generations(str(tmp_path))
        assert [g for g, _ in generations] == [1, 2, 3]
        assert wal_generations(str(tmp_path / "missing")) == []

    def test_state_record_kinds_are_gone(self, tmp_path):
        # The snapshot is the state; the log is acks and lifecycle, all of
        # it durable.  A stray state record is a protocol error, not data.
        # Acks are never appended one per record: they wait for the flush.
        assert DURABLE_KINDS == {"admit", "retire"}
        with WriteAheadLog(str(tmp_path / "w.log")) as wal:
            for kind in ("emit", "emits", "build", "evict", "eot", "stem", "schema"):
                with pytest.raises(ExecutionError, match="unknown WAL record kind"):
                    wal.append(kind, {})
            assert wal.position == 0

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "wal-000001.log")
        with WriteAheadLog(path) as wal:
            wal.log_emit("q0", "a")
        records, _ = replay_wal_file(path)
        assert len(records) == 1


class TestOlderWalFormat:
    ACKS = [("q0", "a"), ("q1", "c"), ("q0", "b"), ("q0", "a")]

    @staticmethod
    def write(directory, bodies):
        directory.mkdir()
        with open(directory / "wal-000001.log", "wb") as handle:
            handle.writelines(frame_record_bytes(body) for body in bodies)
        return recover_state(str(directory))

    def test_per_ack_emit_records_recover_as_their_emits_record(self, tmp_path):
        # One record per ack, framed as a writer without the commit window
        # framed them, recovers the same acks as the batched records.
        per_ack = self.write(
            tmp_path / "per-ack", [{"q": q, "id": key, "k": "emit"} for q, key in self.ACKS]
        )
        batched = self.write(
            tmp_path / "batched",
            [{"q": "q0", "ids": ["a", "b", "a"], "k": "emits"},
             {"q": "q1", "ids": ["c"], "k": "emits"}],
        )
        expected = {"q0": {"a": 2, "b": 1}, "q1": {"c": 1}}
        assert per_ack.emitted == batched.emitted == expected
        assert per_ack.tail_acks == batched.tail_acks == expected
        assert per_ack.torn_wal_records == batched.torn_wal_records == 0
