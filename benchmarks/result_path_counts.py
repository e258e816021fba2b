"""What one repetition of a workload costs on the result path, by count.

    python benchmarks/result_path_counts.py --checkout DIR
        [--workload fanout_join] [--seed 0] [--repetitions 5]

Imports the engine and ``benchmarks/e2e/workloads.py`` of the checkout named
(run it once per checkout to compare two).  After a warm-up it prints, as
JSON: hand-offs into the eddy and the items they carried, extension templates
and routing-signature tuples built, the GC-tracked objects one repetition
leaves alive while its outcome is held; then, over ``--repetitions`` unwrapped
repetitions, the collector's passes per generation and its seconds (from
``gc.callbacks``) beside the wall seconds, and the wall seconds with the
collector off.  The collector is never touched inside ``src/``: this is where
its share is measured.
"""

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from statistics import median


def counted(cls, name, counts, key, items=None):
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        if items is not None:
            counts[items] = counts.get(items, 0) + len(args[0])
        return original(self, *args, **kwargs)

    setattr(cls, name, wrapper)
    return lambda: setattr(cls, name, original)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", required=True, metavar="DIR")
    parser.add_argument("--workload", default="fanout_join")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repetitions", type=int, default=5)
    args = parser.parse_args()
    root = Path(args.checkout).resolve()
    sys.path[:0] = [str(root), str(root / "src")]
    from benchmarks.e2e import workloads
    from repro.core.eddy import Eddy
    from repro.core.tuples import QTuple

    prepared = workloads.WORKLOADS[args.workload](args.seed, 1.0)
    workloads.execute(prepared)  # warm-up

    counts = {"signatures_built_on_demand": 0}
    undo = [counted(Eddy, "to_eddy", counts, "to_eddy_calls")]
    if hasattr(Eddy, "to_eddy_all"):
        undo.append(counted(Eddy, "to_eddy_all", counts, "hand_offs", "items_handed_off"))
    if hasattr(QTuple, "extender"):
        undo.append(counted(QTuple, "extender", counts, "extension_templates"))
    undo.append(counted(QTuple, "extended", counts, "extended_calls"))
    signature = QTuple.routing_signature

    def routing_signature(self):
        counts["signatures_built_on_demand"] += self._signature is None
        return signature(self)

    QTuple.routing_signature = routing_signature
    gc.collect()
    before = len(gc.get_objects())
    outcome = workloads.execute(prepared)
    gc.collect()
    counts["tracked_objects_kept"] = len(gc.get_objects()) - before
    counts["results"] = sum(len(result.tuples) for _, result in outcome.result.items())
    QTuple.routing_signature = signature
    for restore in undo:
        restore()
    del outcome

    passes, seconds, started = [0, 0, 0], [0.0], [None]

    def on_collection(phase, info):
        if phase == "start":
            started[0] = time.perf_counter() if in_repetition else None
        elif started[0] is not None:
            seconds[0] += time.perf_counter() - started[0]
            passes[info["generation"]] += 1

    def timed(repetitions):
        nonlocal in_repetition
        walls = []
        for _ in range(repetitions):
            gc.collect()
            in_repetition = True
            begin = time.perf_counter()
            workloads.execute(prepared)
            walls.append(time.perf_counter() - begin)
            in_repetition = False
        return walls

    in_repetition = False
    gc.callbacks.append(on_collection)
    walls = timed(args.repetitions)
    gc.callbacks.remove(on_collection)
    counts["collector_passes_per_repetition"] = [
        round(n / args.repetitions, 1) for n in passes
    ]
    gc.disable()
    try:
        walls_off = timed(args.repetitions)
    finally:
        gc.enable()
    counts["wall_s"] = round(median(walls), 4)
    counts["collector_s"] = round(seconds[0] / args.repetitions, 4)
    counts["wall_s_collector_off"] = round(median(walls_off), 4)
    header = {"checkout": str(root), "workload": args.workload, "seed": args.seed}
    print(json.dumps({**header, **counts}, indent=1))


if __name__ == "__main__":
    main()
