"""Tests for the command-line interface."""

import re

import pytest

from repro.bench.workloads import churn_workload
from repro.cli import build_parser, demo_catalog, main
from repro.engine.multi import MultiQueryEngine
from repro.recovery import CheckpointManager
from tests.reference.crash_oracle import CrashInjector, InjectedCrash


def test_demo_catalog_matches_table3():
    catalog = demo_catalog()
    assert catalog.has_scan("R")
    assert not catalog.has_scan("S")
    assert catalog.has_scan("T") and catalog.indexes("T")


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_query_command_runs_and_prints(capsys):
    exit_code = main([
        "query",
        "SELECT * FROM R, T WHERE R.key = T.key AND R.a < 20",
        "--engine", "stems",
        "--policy", "naive",
        "--show-rows", "2",
    ])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "[stems]" in captured
    assert "results=" in captured
    assert "R.key" in captured


def test_query_command_rejects_unknown_engine():
    with pytest.raises(SystemExit):
        main(["query", "SELECT * FROM R", "--engine", "volcano"])


def test_extensions_command_prints_all_three_experiments(capsys):
    exit_code = main(["extensions"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "Competitive AMs" in captured
    assert "Spanning tree" in captured
    assert "Priorities" in captured


def test_multi_command_runs_shared_and_reports_savings(capsys):
    exit_code = main([
        "multi", "--queries", "3", "--rows", "60", "--stagger", "2.0",
    ])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "[multi/shared-stems] 3 queries" in captured
    assert "Shared vs private SteMs" in captured
    assert "results identical: True" in captured


def test_multi_command_private_mode(capsys):
    exit_code = main([
        "multi", "--queries", "2", "--rows", "40", "--private-stems",
    ])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "[multi/private-stems] 2 queries" in captured
    assert "Shared vs private" not in captured


def test_recover_command_prints_the_cut_and_resumes_it(capsys, tmp_path):
    fleet = ["--queries", "3", "--rows", "60", "--stagger", "2.0"]
    directory = str(tmp_path / "ckpt")
    assert main(["multi", *fleet, "--checkpoint-dir", directory,
                 "--checkpoint-interval", "3"]) == 0
    capsys.readouterr()
    assert main(["recover", directory, *fleet, "--run"]) == 0
    captured = capsys.readouterr().out
    assert "cut at virtual time:" in captured
    assert "3 started by the cut" in captured
    assert "in-flight items in the cut: 0" in captured
    assert "pending lookups in the cut: 0 in flight, 0 queued" in captured
    assert "0 in the WAL tail past the cut" in captured
    # A clean close is a cut at the end: resuming it has nothing left to do.
    assert "Recovered run (resumed from the cut at" in captured
    assert "already-acknowledged results suppressed: 0" in captured


def evicted_rows(output: str) -> int:
    match = re.search(r"Window eviction \(time-window, 50\): (\d+) rows evicted", output)
    assert match, output
    return int(match.group(1))


def test_recover_command_restores_the_churn_window(capsys, tmp_path):
    # A time-window churn run killed mid-way, then resumed through the CLI:
    # the restored SteMs must carry the run's bound, not come back unbounded.
    directory = str(tmp_path / "ckpt")
    workload = churn_workload(rows=250, policy="naive", seed=0)  # the CLI defaults
    engine = MultiQueryEngine(
        [], workload.catalog, continuous=True,
        stem_eviction="time-window", stem_window=50,
    )
    engine.schedule_churn(workload.events)
    CheckpointManager.attach(engine, directory, interval=5.0)
    CrashInjector(engine.simulator, 3000).arm()
    with pytest.raises(InjectedCrash):
        engine.run()
    assert main(["recover", directory, "--churn", "--eviction", "time-window",
                 "--window", "50", "--run"]) == 0
    assert evicted_rows(capsys.readouterr().out) > 0


def test_multi_command_bounds_a_fleet_run_too(capsys):
    assert main(["multi", "--queries", "2", "--rows", "60", "--no-baseline",
                 "--eviction", "time-window", "--window", "50"]) == 0
    assert evicted_rows(capsys.readouterr().out) > 0


@pytest.mark.parametrize("command", [
    ["multi", "--queries", "2", "--rows", "20", "--no-baseline"],
    ["recover", "unused-dir"],
])
def test_window_without_eviction_is_rejected(capsys, command):
    # A bound with no policy to read it would run unbounded SteMs.
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--window", "50"])
    assert exit_info.value.code == 2
    assert "--window bounds an eviction policy" in capsys.readouterr().err


def test_shards_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["query", "SELECT * FROM R, T WHERE R.key = T.key", "--shards", "4"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --shards 4" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["query", "SELECT * FROM R, T WHERE R.key = T.key"],
    ["multi", "--queries", "2", "--rows", "20", "--no-baseline"],
])
def test_row_plane_flag_is_gone(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--row-plane"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --row-plane" in capsys.readouterr().err


def test_recover_command_has_no_mode_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["recover", str(tmp_path), "--mode", "replay"])


def test_gauntlet_command_smoke_with_json(capsys, tmp_path):
    out_path = tmp_path / "gauntlet.json"
    exit_code = main([
        "gauntlet", "--scenario", "burst", "--smoke", "--json", str(out_path),
    ])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "Adversarial gauntlet (smoke)" in captured
    assert "[OK ] burst" in captured
    import json

    payload = json.loads(out_path.read_text())["gauntlet"]
    assert payload["all_correct"] is True
    assert list(payload["scenarios"]) == ["burst"]


def test_gauntlet_command_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["gauntlet", "--scenario", "nonsense"])
