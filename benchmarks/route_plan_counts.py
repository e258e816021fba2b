"""What one repetition of each workload asks of the routing layer, by count.

    python benchmarks/route_plan_counts.py --checkout DIR
        [--workload W ...] [--seed 0]

Imports the engine and ``benchmarks/e2e/workloads.py`` of the checkout named
(run it once per checkout to compare two) and, after a warm-up, counts over
one repetition of each workload: route decisions for signature groups (EOTs
are not decisions of this kind) split by how they ended — emitted as output,
routed by a fixed choice without asking the policy, routed by the policy's
``choose_batch``, retired with nowhere to go — the signature cache's hits,
misses and invalidations, the policy's ``choose`` and ``choose_batch`` calls,
and how many tuples each signature group held, by outcome.  Every number is
exact and the same in every repetition (the engine is deterministic).
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

ROWS = (
    "decisions",
    "output",
    "fixed_choice",
    "policy_scored",
    "retired",
    "cache_hits",
    "cache_misses",
    "cache_invalidations",
    "choose_calls",
    "choose_batch_calls",
)
#: The outcomes that sent their group to a module.
ROUTED = ("fixed_choice", "policy_scored")


def _wrap(cls, name, wrapper_of, undo):
    original = cls.__dict__[name]
    setattr(cls, name, wrapper_of(original))
    undo.append(lambda: setattr(cls, name, original))


def _subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _subclasses(subclass)


def count_repetition(workloads, prepared):
    """Run one instrumented repetition; returns (counts, group sizes)."""
    from repro.core.constraints import ConstraintChecker
    from repro.core.eddy import Eddy
    from repro.core.policies.base import RoutingPolicy

    counts, checkers, undo = Counter(), [], []
    sizes = {"routed": Counter(), "output": Counter(), "retired": Counter()}

    def counting(key):
        def wrapper_of(original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        return wrapper_of

    for policy in (RoutingPolicy, *_subclasses(RoutingPolicy)):
        for method in ("choose", "choose_batch"):
            if method in policy.__dict__:
                _wrap(policy, method, counting(f"{method}_calls"), undo)

    def init_of(original):
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            checkers.append(self)

        return init

    def route_group_of(original):
        def route_group(self, signature, group):
            stats = self.stats
            emitted = len(self.output_tuples) + stats["suppressed_emits"]
            retired, scored = stats["retired"], counts["choose_batch_calls"]
            original(self, signature, group)
            if len(self.output_tuples) + stats["suppressed_emits"] > emitted:
                outcome = "output"
            elif counts["choose_batch_calls"] > scored:
                outcome = "policy_scored"
            elif stats["retired"] - retired == len(group):
                outcome = "retired"
            else:
                outcome = "fixed_choice"
            counts["decisions"] += 1
            counts[outcome] += 1
            sizes["routed" if outcome in ROUTED else outcome][len(group)] += 1

        return route_group

    _wrap(ConstraintChecker, "__init__", init_of, undo)
    _wrap(Eddy, "_route_group", route_group_of, undo)
    try:
        workloads.execute(prepared)
    finally:
        for restore in reversed(undo):
            restore()
    for checker in checkers:
        for name, value in checker.cache_stats.items():
            counts[f"cache_{name}"] += value
    return counts, sizes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", required=True, metavar="DIR")
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    root = Path(args.checkout).resolve()
    sys.path[:0] = [str(root), str(root / "src")]
    from benchmarks.e2e import workloads

    names = args.workloads or list(workloads.WORKLOADS)
    columns = {}
    for name in names:
        prepared = workloads.WORKLOADS[name](args.seed, 1.0)
        workloads.execute(prepared)  # warm-up
        columns[name] = count_repetition(workloads, prepared)
    print(f"checkout {root}  seed {args.seed}  (per repetition)")
    width = max(len(name) for name in names) + 2
    print(f"{'':22}" + "".join(f"{name:>{width}}" for name in names))
    for row in ROWS:
        print(f"{row:22}" + "".join(f"{columns[name][0][row]:>{width}}" for name in names))
    print("signature-group sizes, tuples: decisions")
    for name in names:
        for outcome, sizes in columns[name][1].items():
            histogram = ", ".join(f"{size}: {n}" for size, n in sorted(sizes.items()))
            print(f"  {name:14} {outcome:8} {histogram or '-'}")


if __name__ == "__main__":
    main()
