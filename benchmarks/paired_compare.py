"""Parent against change in alternating pairs (the choosing-metrics rule).

    python benchmarks/paired_compare.py --parent DIR --change DIR --workload W
        [--pairs 10] [--seed 0] [--seconds 10] [--out FILE]

Every pair runs each checkout's own ``benchmarks/e2e/run.py`` contract worker,
the order flipped every pair (the host's speed drifts); the workers' reports
and one progress line per finished pair go to stderr.  Each run must verify,
and the two sides of a pair must agree on the result digest and both virtual
times.  Printed per end-to-end metric: both medians with quartiles, the ratio
with its base, and the pairs the change won and tied (a tie counts for
neither side).  ``--out`` writes every run of both sides as JSON.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

EXACT = ("virtual_completion_s", "virtual_half_results_s")


def run_worker(checkout, args, scratch):
    out = Path(scratch, "record.json")
    options = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": 0, "scratch": scratch, "out": out}
    command = [sys.executable, str(Path(checkout, "benchmarks/e2e/run.py"))]
    command += [text for name, value in options.items() for text in (f"--{name}", str(value))]
    subprocess.run(command, check=True, stdout=sys.stderr)  # non-zero exit: not correct
    record = json.loads(out.read_text())
    return record["result_digest"], {m: v["value"] for m, v in record["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for side in ("parent", "change"):
        parser.add_argument(f"--{side}", required=True, metavar="DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", metavar="FILE", help="write every run made as JSON")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        for number in range(args.pairs):
            for side in sorted(runs, reverse=number % 2 == 0):
                runs[side].append(run_worker(getattr(args, side), args, scratch))
            (digest, parent), (other, change) = runs["parent"][-1], runs["change"][-1]
            if digest != other or any(parent[m] != change[m] for m in EXACT):
                sys.exit(f"pair {number + 1}: result digest or virtual times differ")
            print(f"pair {number + 1}/{args.pairs}: " + ", ".join(
                f"{m} {parent[m]:.6g} -> {change[m]:.6g}" for m in parent if m not in EXACT
            ), file=sys.stderr, flush=True)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "result_digest": digest,
                  "runs": {side: [values for _, values in runs[side]] for side in runs}}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed={args.seed} pairs={args.pairs} digest={digest[:8]} in every run")
    for metric in json.loads(Path(args.parent, "BENCHMARK.json").read_text())["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent, change = ([values[name] for _, values in runs[side]] for side in runs)
        spread = " -> ".join("{1:.6g} [{0:.6g}, {2:.6g}]".format(*quantiles(v, n=4))
                             for v in (parent, change))
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        tied = sum(c == p for p, c in zip(parent, change))
        print(f"  {name:<24} {metric['unit']:<10} {spread}  "
              f"{median(change) / median(parent):.3f}x of {median(parent):.6g}  "
              f"won {won}, tied {tied} of {args.pairs}")


if __name__ == "__main__":
    main()
