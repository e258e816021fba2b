"""End-to-end benchmark runner.

    python benchmarks/e2e/run.py [--seed 0] [--out results.json]
        every workload, each in a fresh worker process, one at a time:
        end-to-end metrics with tracing off, then one traced run for the
        per-layer metrics; prints every metric by name with its unit.
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one worker (the contract of BENCHMARK.json); the last line of its
        standard output is the result object.
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --repeat-check
    python benchmarks/e2e/run.py --matrix [--scale K]

Exits non-zero when an output fails verification, when the trace's counts
disagree with the engine's, or when a comparison finds a regression.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time is counted from here

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __name__ == "__main__":
    # Run as a script: load this file again as ``e2e.run`` so that its
    # siblings resolve as one package, and take the script directory off
    # sys.path (its trace.py would shadow the standard library's).
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no engine to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[0] = str(HERE.parent)
    sys.path.insert(1, str(ROOT / "src"))
    from e2e.run import main

    sys.exit(main())

from . import compare, hostspeed, layers, verify, workloads  # noqa: E402  (imports repro: set-up)
from .trace import Tracer  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
#: Fresh-process set-ups timed per run, beside the worker's own.
SETUP_PROBES = 6
MIN_REPETITIONS = 5
SMOKE_SCALE = 0.05
#: One factor at a time off the default configuration (``--matrix``).
MATRIX = {
    "default": {},
    "row_plane": {"columnar": False},
    "shards_4": {"shards": 4},
    "batch_1": {"batch_size": 1},
    "batch_64": {"batch_size": 64},
    "interpreted_probes": {"compiled_probes": False},
}
MATRIX_REPETITIONS = 3


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "loadavg": list(os.getloadavg()),
    }


def worker_command(name: str, seed: int, scale: float, *extra: str) -> list[str]:
    return [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed), "--scale", str(scale), *extra,
    ]


def probe_setup(name: str, seed: int, scale: float) -> float:
    """Set-up seconds of one fresh process (import, generate, wire, parse)."""
    before = hostspeed.spin()
    done = subprocess.run(
        worker_command(name, seed, scale, "--setup-only"),
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout.split()[-1]) / hostspeed.slowdown(before, hostspeed.spin())


def half_results_time(outcome: workloads.Outcome) -> float:
    """Virtual time by which half of all result rows had been delivered.

    Join results carry their emission time; an aggregate panel's rows are
    read out when its query ends.
    """
    times = list(outcome.acked_times)
    for result in outcome.result.results.values():
        if result.is_aggregate:
            ended = result.retired_at if result.retired_at is not None else result.final_time
            times.extend([ended] * len(result.aggregate_rows))
        else:
            times.extend(time_ for time_, _ in result.output_series)
    times.sort()
    return times[(len(times) - 1) // 2]


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MB.

    Not ``ru_maxrss``: across fork and exec that starts at the launching
    process's peak, so a worker started by a large process would report its
    launcher.  ``VmHWM`` belongs to the address space exec created.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Timed:
    """Wall seconds of every repetition, the host slowdown while each ran,
    and the last repetition's outcome."""

    walls: list[float]
    slowdowns: list[float]
    outcome: workloads.Outcome

    @property
    def seconds(self) -> list[float]:
        """Repetition seconds at nominal host speed."""
        return [wall / slow for wall, slow in zip(self.walls, self.slowdowns)]


def timed_repetitions(run, seconds: float, at_least: int) -> Timed:
    """Repeat ``run`` for ``seconds`` (and ``at_least`` times), a reference
    spin between every two repetitions."""
    walls, spins, outcome = [], [hostspeed.spin()], None
    began = time.perf_counter()
    while len(walls) < at_least or time.perf_counter() - began < seconds:
        outcome = None  # the previous repetition must not count towards peak memory
        gc.collect()
        started = time.perf_counter()
        outcome = run()
        walls.append(time.perf_counter() - started)
        spins.append(hostspeed.spin())
    slowdowns = [hostspeed.slowdown(a, b) for a, b in zip(spins, spins[1:])]
    return Timed(walls, slowdowns, outcome)


def measure(name, seed, seconds, scale, at_least, setup_probes, scratch, started) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    prepared = workloads.WORKLOADS[name](seed, scale)
    own_setup = time.perf_counter() - started
    spun = hostspeed.spin()
    setup = [own_setup / hostspeed.slowdown(spun, spun)]
    setup += [probe_setup(name, seed, scale) for _ in range(setup_probes)]

    def run(**options):
        return workloads.execute(prepared, scratch=scratch, **options)

    run()  # warm-up: caches fill, lazy imports finish
    timed = timed_repetitions(run, seconds, at_least)
    peak = peak_rss_mb()
    samples, walls, outcome = timed.seconds, timed.walls, timed.outcome
    bounded = "stem_eviction" in prepared.options
    oracle = run(overrides=verify.ORACLE_OPTIONS) if bounded else None
    verdict = verify.verify(prepared, outcome, oracle)
    return {
        "workload": name,
        "seed": seed,
        "repetitions": len(samples),
        "wall": {
            "repetition_s": walls,
            "host_slowdown": timed.slowdowns,
            "source_rows_per_s": prepared.source_rows / statistics.median(walls),
            "result_rows_per_s": verdict.result_rows / statistics.median(walls),
        },
        "samples": {
            "source_rows_per_s": [prepared.source_rows / s for s in samples],
            "result_rows_per_s": [verdict.result_rows / s for s in samples],
            "peak_rss_mb": [peak],
            "setup_s": setup,
            "virtual_completion_s": [outcome.result.final_time],
            "virtual_half_results_s": [half_results_time(outcome)],
        },
        "counts": {
            "source_rows": prepared.source_rows,
            "result_rows": verdict.result_rows,
            "duplicate_results": verdict.duplicate_results,
            **layers.engine_counts(outcome),
        },
        "attempted": verdict.attempted,
        "failures": verdict.failures,
        "result_digest": verdict.digest,
    }


def measure_traced(name, seed, seconds, scale, at_least, scratch) -> dict:
    """Per-layer metrics of one workload: one traced repetition."""
    prepared = workloads.WORKLOADS[name](seed, scale)
    workloads.execute(prepared, scratch=scratch)  # warm-up
    untraced = timed_repetitions(
        lambda: workloads.execute(prepared, scratch=scratch), seconds / 3, min(at_least, 3)
    )
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            workloads.WORKLOADS[name](seed, scale)  # parse time shows here
        gc.collect()
        before = hostspeed.spin()
        started = time.perf_counter()
        with tracer.span("bench.repetition"):
            outcome = workloads.execute(prepared, scratch=scratch, span=tracer.span)
        traced_s = time.perf_counter() - started
        traced_s /= hostspeed.slowdown(before, hostspeed.spin())
    finally:
        tracer.uninstall()
    verdict = verify.verify(prepared, outcome)
    counts = layers.engine_counts(outcome)
    problems = layers.count_mismatches(
        tracer, counts, admitted=len(prepared.queries) * len(outcome.engines)
    )
    if verify.result_digest(untraced.outcome) != verdict.digest:
        problems.append("the traced repetition's results differ from an untraced one's")
    return {
        "workload": name,
        "seed": seed,
        "repetitions": len(untraced.walls),
        "samples": {
            metric: [value]
            for metric, value in layers.layer_metrics(
                prepared, outcome, counts, tracer,
                traced_s, statistics.median(untraced.seconds),
            ).items()
        },
        "attempted": verdict.attempted,
        "failures": verdict.failures,
        "trace_problems": problems,
        "result_digest": verdict.digest,
        "trace": tracer.report(),
    }


def finish(record: dict, metrics: list[dict]) -> dict:
    """Summarise the samples of every metric the spec names, in spec order."""
    samples = record.pop("samples")
    record["metrics"] = {
        metric["name"]: compare.summarize(samples[metric["name"]], metric["unit"])
        for metric in metrics
    }
    record["failed_share"] = len(record["failures"]) / record["attempted"]
    record["correct"] = not record["failures"] and not record.get("trace_problems")
    return record


def report(record: dict) -> None:
    """Every metric by name, with its unit, quartiles and sample count."""
    print(f"{record['workload']}  seed={record['seed']}  repetitions={record['repetitions']}")
    for name, metric in record["metrics"].items():
        spread = (
            f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}]  n={metric['n']}"
            if metric["n"] > 1
            else ""
        )
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}{spread}")
    if "wall" in record:
        wall = record["wall"]
        print(
            f"  (uncorrected wall clock: {wall['source_rows_per_s']:.6g} source rows/s, "
            f"{wall['result_rows_per_s']:.6g} result rows/s; "
            f"host slowdown {statistics.median(wall['host_slowdown']):.3f})"
        )
    print(
        f"  {'failed_share':<34} {record['failed_share']:>14.6g} ratio"
        f"  ({len(record['failures'])} of {record['attempted']} queries)"
    )
    print(f"  {'result_digest':<34} {record['result_digest']}")
    for query_id, reason in record["failures"].items():
        print(f"  FAILED {query_id}: {reason}")
    for problem in record.get("trace_problems", ()):
        print(f"  TRACE {problem}")


def contract_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": len(record["failures"]),
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in record["metrics"].items()
            },
        }
    )


def run_worker(args, started: float) -> int:
    """One workload in this process; the contract of BENCHMARK.json."""
    spec = load_spec()
    os.makedirs(args.scratch, exist_ok=True)
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, args.scale)
        print(time.perf_counter() - started)
        return 0
    at_least = 2 if args.smoke else MIN_REPETITIONS
    if args.trace:
        record = measure_traced(
            args.workload, args.seed, args.seconds, args.scale, at_least, args.scratch
        )
        record = finish(record, spec["per_layer"])
    else:
        record = measure(
            args.workload, args.seed, args.seconds, args.scale, at_least,
            0 if args.smoke else SETUP_PROBES, args.scratch, started,
        )
        record = finish(record, spec["end_to_end"])
    record["provenance"] = provenance(args.seed)
    if args.out:
        Path(args.out).write_text(json.dumps(record))
    report(record)
    print(contract_line(record))
    return 0 if record["correct"] else 1


def spawn_worker(args, name: str, traced: int, records: str) -> dict | None:
    """One worker process; its record, or None when it raised before reporting."""
    out = os.path.join(records, f"{name}-{traced}.json")
    done = subprocess.run(
        worker_command(
            name, args.seed, args.scale,
            "--seconds", str(args.seconds), "--trace", str(traced),
            "--scratch", args.scratch, "--out", out,
            *(["--smoke"] if args.smoke else []),
        )
    )
    if not os.path.exists(out):
        return None
    record = json.loads(Path(out).read_text())
    record["correct"] = record["correct"] and done.returncode == 0
    return record


def run_suite(args) -> tuple[dict, dict, bool]:
    """Every workload, each in fresh worker processes: (results, traces, ok)."""
    os.makedirs(args.scratch, exist_ok=True)
    records = tempfile.mkdtemp(prefix="suite-", dir=args.scratch)
    results = {"provenance": provenance(args.seed), "workloads": {}}
    traces = {}
    ok = True
    try:
        for name in workloads.WORKLOADS:
            plain, traced = (spawn_worker(args, name, mode, records) for mode in (0, 1))
            ok = ok and all(record and record["correct"] for record in (plain, traced))
            # A worker that raised reports nothing: every query counts as failed.
            merged = plain or {"metrics": {}, "result_digest": ""}
            if plain and traced:
                merged["failed_share"] = max(plain["failed_share"], traced["failed_share"])
            else:
                merged["failed_share"] = 1.0
            if traced:
                traces[name] = traced["trace"]
                merged["per_layer"] = traced["metrics"]
                merged["trace_problems"] = traced["trace_problems"]
            merged.pop("provenance", None)
            results["workloads"][name] = merged
    finally:
        shutil.rmtree(records, ignore_errors=True)
    return results, traces, ok


def write_results(out: str, results: dict, traces: dict) -> None:
    path = Path(out)
    path.write_text(json.dumps(results, indent=1))
    path.with_name("trace.json").write_text(json.dumps({"workloads": traces}))
    print(f"wrote {path} and {path.with_name('trace.json')}")


def run_compare(a: dict, b: dict) -> int:
    rows = compare.compare(a, b, load_spec())
    print(compare.format_table(rows))
    bad = [row for row in rows if row["label"] in ("regressed", "unresolved")]
    return 1 if bad else 0


def run_repeat_check(args) -> int:
    """The suite twice on the same code: the benchmark held against itself."""
    first, _, first_ok = run_suite(args)
    second, traces, second_ok = run_suite(args)
    status = run_compare(first, second)
    differences = compare.exact_differences(first, second)
    for difference in differences:
        print(f"NOT REPEATED {difference}")
    if args.out:
        write_results(args.out, second, traces)
    return 0 if first_ok and second_ok and not status and not differences else 1


def run_matrix(args) -> int:
    """Each workload, one factor at a time off the default; not gated."""
    from repro.core.partition import shutdown_shard_pool
    from repro.errors import ExecutionError

    os.makedirs(args.scratch, exist_ok=True)
    table = []
    print(
        f"{'workload':<14} {'configuration':<20} {'source_rows_per_s':>18} "
        f"{'result_rows_per_s':>18} {'vs default':>10}  failed"
    )
    try:
        for name, build in workloads.WORKLOADS.items():
            prepared = build(args.seed, args.scale)
            default_s = None
            for label, overrides in MATRIX.items():
                def run():
                    return workloads.execute(
                        prepared, overrides=overrides, scratch=args.scratch
                    )
                try:
                    run()
                    timed = timed_repetitions(run, 0.0, MATRIX_REPETITIONS)
                except ExecutionError as error:
                    print(f"{name:<14} {label:<20} unsupported: {error}")
                    continue
                median_s = statistics.median(timed.seconds)
                default_s = default_s or median_s
                verdict = verify.verify(prepared, timed.outcome)
                row = {
                    "workload": name,
                    "configuration": label,
                    "source_rows_per_s": prepared.source_rows / median_s,
                    "result_rows_per_s": verdict.result_rows / median_s,
                    "speed_vs_default": default_s / median_s,
                    "failed": verdict.failed,
                    "repetitions": len(timed.walls),
                }
                table.append(row)
                print(
                    f"{name:<14} {label:<20} {row['source_rows_per_s']:>18.1f} "
                    f"{row['result_rows_per_s']:>18.1f} {row['speed_vs_default']:>9.2f}x"
                    f"  {verdict.failed}"
                )
    finally:
        shutdown_shard_pool()
    if args.out:
        Path(args.out).write_text(
            json.dumps({"provenance": provenance(args.seed), "matrix": table}, indent=1)
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    started = _STARTED if argv is None else time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed region per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="multiply every workload's row counts")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two repetitions: the tier-1 smoke test")
    parser.add_argument("--out", help="write the results (and trace.json beside them) here")
    parser.add_argument("--scratch", default=str(ROOT / ".bench_build"),
                        help="directory for checkpoint files and worker records")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--matrix", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = SMOKE_SCALE if args.smoke else 1.0
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(load_spec()["run_seconds"])

    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        return run_compare(a, b)
    if args.workload:
        return run_worker(args, started)
    if args.matrix:
        return run_matrix(args)
    if args.repeat_check:
        return run_repeat_check(args)
    results, traces, ok = run_suite(args)
    if args.out:
        write_results(args.out, results, traces)
    return 0 if ok else 1
