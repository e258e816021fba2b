"""Atomic, checksummed snapshots with generation retention.

A snapshot is one CRC-framed JSON record (the same framing as WAL lines —
see :mod:`repro.recovery.codec`) holding a consistent cut of the engine
plus the WAL position (``wal_gen``, ``wal_position``) it is consistent
with: restore = reinstall the cut + apply the WAL tail after it.

Writes are crash-safe: the payload goes to a temp file, is flushed and
fsynced, then renamed into place — a crash mid-checkpoint leaves either the
old snapshot set intact or a complete new file, never a half-written live
one.  Against *torn writes below the rename* (power loss reordering sectors,
or an injected fault), the loader verifies the CRC and falls back to the
previous generation; the last ``retain`` generations are kept for exactly
that.
"""

from __future__ import annotations

import os
from typing import Any

from repro.errors import ExecutionError
from repro.recovery.codec import frame_record, parse_record

__all__ = ["SnapshotStore"]


class SnapshotStore:
    """Snapshot files (``snapshot-<seq>.snap``) inside a checkpoint directory.

    Args:
        directory: the checkpoint directory (created if missing; shared with
            the WAL files).
        retain: how many snapshot generations to keep.  At least 2, so a
            torn newest generation always leaves a valid predecessor.
    """

    def __init__(self, directory: str, retain: int = 2):
        if retain < 2:
            raise ExecutionError(
                f"snapshot retention must keep >= 2 generations, got {retain}"
            )
        self.directory = directory
        self.retain = retain
        os.makedirs(directory, exist_ok=True)
        self.stats: dict[str, int] = {"written": 0, "torn_detected": 0}

    # -- enumeration -----------------------------------------------------------

    def generations(self) -> list[tuple[int, str]]:
        """``(sequence, path)`` of every snapshot file, ascending."""
        found: list[tuple[int, str]] = []
        for name in os.listdir(self.directory):
            if name.startswith("snapshot-") and name.endswith(".snap"):
                try:
                    sequence = int(name[9:-5])
                except ValueError:
                    continue
                found.append((sequence, os.path.join(self.directory, name)))
        found.sort()
        return found

    def next_sequence(self) -> int:
        generations = self.generations()
        return generations[-1][0] + 1 if generations else 1

    # -- writing ---------------------------------------------------------------

    def write(self, state: dict[str, Any], torn_bytes: int | None = None) -> str:
        """Write one snapshot generation atomically; returns its path.

        ``torn_bytes`` is the fault-injection hook: instead of the atomic
        temp-and-rename protocol, the first ``torn_bytes`` bytes of the
        payload are written *directly* to the final name — simulating a
        crash (or sector reordering) tearing the snapshot mid-write, which
        the loader must detect by CRC and survive by falling back.
        """
        sequence = self.next_sequence()
        path = os.path.join(self.directory, f"snapshot-{sequence:06d}.snap")
        payload = frame_record(dict(state, snapshot_seq=sequence))
        if torn_bytes is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload[: max(0, torn_bytes)])
            return path
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        self.stats["written"] += 1
        self._prune()
        return path

    def _prune(self) -> None:
        generations = self.generations()
        for _, path in generations[: -self.retain]:
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- loading ---------------------------------------------------------------

    def load_latest(self) -> dict[str, Any] | None:
        """The newest *valid* snapshot payload, or None when none exists.

        Walks generations newest-first; a file that fails CRC framing (torn
        write) is counted in ``stats["torn_detected"]`` and skipped — the
        previous generation, whose WAL cut is older, takes over and recovery
        simply replays a longer tail.
        """
        for _, path in reversed(self.generations()):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = handle.read()
            except OSError:
                continue
            body = parse_record(payload)
            if body is not None:
                return body
            self.stats["torn_detected"] += 1
        return None

    def __repr__(self) -> str:
        return f"SnapshotStore({self.directory!r}, generations={len(self.generations())})"
