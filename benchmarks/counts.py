"""Host-free counts of one checkout, as one JSON line.

    python benchmarks/counts.py [--checkout DIR] [--seed 0] [--append FILE]

Runs each of the five workloads of the checkout's
``benchmarks/e2e/workloads.py`` once, at the given seed, under
``sys.setprofile`` (the counter of ``tests/engine/test_calls_per_event.py``:
every ``call`` event whose code lives in the checkout's ``src/repro`` and
whose name does not start with ``<``, over the whole repetition, engine
construction and recovery included).  Per workload it reports the
simulator events (every engine incarnation), calls into ``src/repro`` per
event, result rows and the result digest of ``benchmarks/e2e/verify.py``.
Beside them: the lines of ``src/``, the lines of ``src/`` that name an
engine option, the defaulted parameters of ``src/``'s public functions
and ``__init__``s, the lines of ``tests/`` and ``benchmarks/``, the test
cases ``pytest --collect-only`` finds there, the size of the definitions
ratchet's ``ALLOWED`` list, and the checkout's commit (a fixed label when
the checkout is not a git work tree) and the Python version.  Nothing in the line is a
clock reading, so two lines compare across hosts; ``--append`` adds the
line to a file (``BENCH_counts.jsonl`` at the repository root keeps one per
change).
"""

import argparse
import ast
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("fleet_join", "fanout_join", "agg_window", "churn_window", "durable_crash")
#: The engine options whose spelling ``option_lines`` counts in ``src/``.
OPTION = re.compile(r"stem_max_size|stem_eviction|stem_window|strict_constraints|batch_size|cost_model")
#: The commit label of a checkout that is not a git work tree (a ``git
#: archive`` copy).
NO_COMMIT = "not-a-git-checkout"


def source_lines(root: Path) -> tuple[int, int]:
    """Lines of ``src/``, and how many of them name an engine option."""
    lines = [
        line
        for path in sorted((root / "src").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    return len(lines), sum(1 for line in lines if OPTION.search(line))


def defaulted_params(root: Path) -> int:
    """Parameters with a default value of the public functions and methods
    and of the ``__init__``s in ``src/``: the values a caller may set, each
    independently of the others."""
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                not node.name.startswith("_") or node.name == "__init__"
            ):
                arguments = node.args
                total += len(arguments.defaults)
                total += sum(default is not None for default in arguments.kw_defaults)
    return total


def test_lines(root: Path) -> int:
    """Lines of the Python files under ``tests/`` and ``benchmarks/``."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for directory in ("tests", "benchmarks")
        for path in sorted((root / directory).rglob("*.py"))
    )


def collected_cases(root: Path) -> int:
    """Test cases ``pytest --collect-only -q`` collects in ``tests/`` and
    ``benchmarks/``."""
    listing = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "tests", "benchmarks"],
        cwd=root, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    ).stdout
    return sum(1 for line in listing.splitlines() if "::" in line)


def allowed_size(root: Path) -> int:
    """Entries of the definitions ratchet's ``ALLOWED`` dict."""
    tree = ast.parse((root / "tests" / "test_definitions_are_named.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "ALLOWED" for target in node.targets
        ):
            return len(node.value.keys)
    raise LookupError("no ALLOWED in tests/test_definitions_are_named.py")


def commit(root: Path) -> str:
    """The checkout's commit, ``-dirty`` when its tree differs from it, or
    :data:`NO_COMMIT` when the checkout is not a git work tree (git looks
    no further up than the checkout itself)."""
    described = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
    )
    return described.stdout.strip() if described.returncode == 0 else NO_COMMIT


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=str(Path(__file__).resolve().parents[1]),
                        metavar="DIR")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--append", default=None, metavar="FILE")
    args = parser.parse_args()
    root = Path(args.checkout).resolve()
    sys.path[:0] = [str(root), str(root / "src")]
    from benchmarks.e2e import verify, workloads

    source = str(root / "src" / "repro")
    calls = [0]

    def profile(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(source) and not code.co_name.startswith("<"):
                calls[0] += 1

    counted = {}
    with tempfile.TemporaryDirectory(prefix="counts-") as scratch:
        for name in WORKLOADS:
            prepared = workloads.WORKLOADS[name](args.seed, 1.0)
            calls[0] = 0
            sys.setprofile(profile)
            try:
                outcome = workloads.execute(prepared, scratch=scratch)
            finally:
                sys.setprofile(None)
            events = sum(engine.simulator.executed_events for engine in outcome.engines)
            seen = verify.delivered(outcome)
            counted[name] = {
                "events": events,
                "calls_per_event": round(calls[0] / events, 3),
                "results": sum(
                    sum(found.values()) + len(outcome.result[query_id].aggregate_rows or ())
                    for query_id, found in seen.items()
                ),
                "digest": verify.result_digest(outcome, seen),
            }
    src_lines, option_lines = source_lines(root)
    line = json.dumps({
        "commit": commit(root),
        "python": platform.python_version(),
        "seed": args.seed,
        "counter": "sys.setprofile calls into src/repro per simulator event",
        "src_lines": src_lines,
        "option_lines": option_lines,
        "defaulted_params": defaulted_params(root),
        "test_lines": test_lines(root),
        "test_cases": collected_cases(root),
        "allowed": allowed_size(root),
        "workloads": counted,
    }, sort_keys=True)
    print(line)
    if args.append:
        with open(args.append, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")


if __name__ == "__main__":
    main()
