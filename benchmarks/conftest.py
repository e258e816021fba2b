"""Shared configuration for the benchmark suite.

Each benchmark regenerates one of the paper's measured artifacts (Figure 7,
Figure 8, Table 3's sources) or an extension/ablation experiment, asserts
the qualitative claims (shapes, crossovers, winners), and records the key
numbers in ``benchmark.extra_info`` so they appear in the benchmark report.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from _repro_bootstrap import ensure_src_on_path

ensure_src_on_path()


def sample_times(end: float, points: int = 8) -> list[float]:
    """Evenly spaced sample times over (0, end]."""
    return [end * (index + 1) / points for index in range(points)]


def emit_artifact(name: str, payload: dict) -> None:
    """Write ``payload`` into ``$REPRO_BENCH_OUT/<name>``; a no-op when unset.

    A plain test run therefore leaves the worktree untouched; CI's
    bench-smoke job names a directory and uploads the artifacts from there.
    Keys already in the file are kept unless ``payload`` replaces them, so
    the tests of one benchmark file each contribute their own section.
    """
    out = os.environ.get("REPRO_BENCH_OUT")
    if not out:
        return
    path = Path(out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = json.loads(path.read_text()) if path.exists() else {}
    path.write_text(json.dumps({**existing, **payload}, indent=2, sort_keys=True) + "\n")
