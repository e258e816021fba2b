"""Tier-1 smoke test of the end-to-end benchmark (``--smoke`` sizes).

Wall-clock numbers are never asserted here — only that every workload and
metric the contract names is reported with its unit, that counts, digests
and virtual times repeat exactly, that a corrupted result is caught, that
the trace agrees with the engine's own counters, and that a run leaves
nothing behind.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from . import compare, run, workloads

SPEC = run.load_spec()


def _git_status() -> str | None:
    done = subprocess.run(
        ["git", "-C", str(run.ROOT), "status", "--porcelain"],
        capture_output=True, text=True,
    )
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One smoke run of the whole suite, workers in fresh processes."""
    directory = tmp_path_factory.mktemp("e2e")
    before = _git_status()
    status = run.main(
        ["--smoke", "--seed", "0", "--scratch", str(directory / "scratch"),
         "--out", str(directory / "results.json")]
    )
    return {
        "status": status,
        "directory": directory,
        "results": json.loads((directory / "results.json").read_text()),
        "traces": json.loads((directory / "trace.json").read_text()),
        "git_before": before,
        "git_after": _git_status(),
    }


def _smoke_measure(name: str, tmp_path) -> dict:
    record = run.measure(
        name, seed=0, seconds=0.0, scale=run.SMOKE_SCALE, at_least=2,
        setup_probes=0, scratch=str(tmp_path), started=time.perf_counter(),
    )
    return run.finish(record, SPEC["end_to_end"])


def test_every_workload_and_metric_is_reported_with_its_unit(suite):
    assert suite["status"] == 0
    results = suite["results"]
    assert list(results["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    assert set(results["provenance"]) >= {
        "commit", "host_cores", "python", "numpy", "seed", "loadavg"
    }
    for name, record in results["workloads"].items():
        assert record["failed_share"] == 0.0, (name, record["failures"])
        assert record["repetitions"] >= 2
        for kind, reported in (
            ("end_to_end", record["metrics"]), ("per_layer", record["per_layer"])
        ):
            assert list(reported) == [m["name"] for m in SPEC[kind]], name
            for metric in SPEC[kind]:
                assert reported[metric["name"]]["unit"] == metric["unit"]
        for metric in SPEC["end_to_end"]:
            assert record["metrics"][metric["name"]]["value"] > 0, (name, metric)


def test_trace_agrees_with_the_engine_and_the_predictions_hold(suite):
    layers = {
        name: {metric: entry["value"] for metric, entry in record["per_layer"].items()}
        for name, record in suite["results"]["workloads"].items()
    }
    for name, record in suite["results"]["workloads"].items():
        assert record["trace_problems"] == [], name
        assert layers[name]["trace.unattributed_share"] <= 0.10
        assert layers[name]["trace.overhead_ratio"] > 0
        assert layers[name]["sim.events"] > 0
        trace = suite["traces"]["workloads"][name]
        assert trace["totals"]["bench.repetition"]["calls"] == 1
        assert trace["spans"] and trace["span_columns"][0] == "id"
    for name, values in layers.items():
        aggregates = values["aggregates.inserted"] + values["aggregates.self_s"]
        recovery = values["recovery.wal_records"] + values["recovery.replay_s"]
        assert (aggregates > 0) == (name == "agg_window")
        assert (recovery > 0) == (name == "durable_crash")
    assert layers["agg_window"]["stem.probes"] == 0
    assert layers["agg_window"]["stem.evictions"] > 0
    assert layers["churn_window"]["engine.retires"] > 0
    assert layers["churn_window"]["sim.cancels"] > 0
    assert layers["durable_crash"]["recovery.suppressed_emits"] > 0
    assert layers["fanout_join"]["stem.matches_per_probe"] > 1.0


def test_counts_digests_and_virtual_times_repeat_exactly(suite, tmp_path):
    again = {
        "workloads": {name: _smoke_measure(name, tmp_path) for name in workloads.WORKLOADS}
    }
    assert compare.exact_differences(suite["results"], again) == []
    rows = compare.compare(suite["results"], again, SPEC)
    assert {row["metric"] for row in rows} == {
        *(m["name"] for m in SPEC["end_to_end"]), "failed_share"
    }


def test_a_corrupted_result_is_caught(tmp_path, monkeypatch):
    honest = workloads.execute

    def corrupting(prepared, **options):
        outcome = honest(prepared, **options)
        del outcome.result["q5"].tuples[0]
        return outcome

    monkeypatch.setattr(workloads, "execute", corrupting)
    out = tmp_path / "record.json"
    status = run.main(
        ["--workload", "fleet_join", "--smoke", "--scratch", str(tmp_path), "--out", str(out)]
    )
    record = json.loads(out.read_text())
    assert status != 0
    assert record["failed_share"] > 0 and not record["correct"]
    assert "q5" in record["failures"]


def test_a_run_writes_only_where_it_is_told(suite):
    assert suite["git_before"] == suite["git_after"]
    left = sorted(path.name for path in (suite["directory"] / "scratch").iterdir())
    assert left == []
    written = sorted(path.name for path in suite["directory"].iterdir())
    assert written == ["results.json", "scratch", "trace.json"]


def test_without_the_engine_the_runner_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fleet_join",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_labels():
    def summary(*samples):
        return compare.summarize(list(samples), "rows/s")

    base = summary(100, 101, 102, 103, 104)

    def label(other):
        return compare.label(base, other, True, 0.10, 0.0)

    assert label(summary(100, 101, 102, 103, 104)) == "same"
    assert label(summary(120, 121, 122, 123, 124)) == "better"
    assert label(summary(80, 81, 82, 83, 84)) == "regressed"
    assert label(summary(60, 90, 102, 120, 150)) == "unresolved"
    # Wide spread, but every sample of B beats every sample of A.
    assert label(summary(200, 230, 260, 290, 320)) == "better"
