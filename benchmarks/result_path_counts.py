"""What one repetition of a workload costs on the result path, by count.

    python benchmarks/result_path_counts.py --checkout DIR
        [--workload fanout_join] [--seed 0] [--repetitions 5]

Imports the engine and ``benchmarks/e2e/workloads.py`` of the checkout named
(run it once per checkout to compare two).  After a warm-up it prints, as
JSON: hand-offs into the eddy and the items they carried, extension templates,
routing-signature tuples and tuple ids made, calls to ``Row.__hash__``,
``QTuple.__init__``, ``SteMModule._is_build`` and ``SteM.covers``, the
GC-tracked objects one repetition leaves alive while its outcome is held (in
all, and per result); then, over
``--repetitions`` unwrapped repetitions, the collector's passes per
generation (all of them, and those that fire while the engine collects its
results) and its seconds (from ``gc.callbacks``) beside the wall seconds, the
process's peak resident set, and the wall seconds with the collector off;
last, the bytes one held outcome keeps per result (``tracemalloc`` over one
more repetition), split into the kept result object, its tuple id, the
lists and series that hold a pointer per result, and the rest (per-row and
per-probe state, shared between results), with the kept object's type.
The collector is never touched inside ``src/``: this is where its share is
measured.
"""

import argparse
import gc
import json
import sys
import time
import tracemalloc
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


def retention_split(outcome, results):
    """Bytes per result of the kept objects, of their tuple ids (small ints
    are cached, so they cost nothing) and of the lists and series that hold
    one pointer per result, partial-result series included."""
    kept = [t for _, result in outcome.result.items() for t in result.tuples]
    containers = {}
    for engine in outcome.engines:
        for query_id in engine.admitted:
            eddy = engine.eddy_of(query_id)
            for held in (eddy.output_tuples, eddy.output_times):
                containers[id(held)] = held
            for times in eddy.partial_series.values():
                containers[id(times)] = times
    for _, result in outcome.result.items():
        for held in (
            result.tuples,
            result.output_series.times,
            *(series.times for series in result.partial_series.values()),
        ):
            containers[id(held)] = held
    per_result = max(results, 1)
    return {
        "kept_object": round(sum(map(sys.getsizeof, kept)) / per_result),
        "tuple_id": round(
            sum(sys.getsizeof(t.tuple_id) for t in kept if t.tuple_id > 256) / per_result
        ),
        "pointers": round(sum(map(sys.getsizeof, containers.values())) / per_result),
    }


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
    from benchmarks.e2e.run import peak_rss_mb
    from repro.core import tuples
    from repro.core.eddy import Eddy
    from repro.core.modules.stem_module import SteMModule
    from repro.core.stem import SteM
    from repro.core.tuples import QTuple
    from repro.engine import multi
    from repro.storage.row import Row

    prepared = workloads.WORKLOADS[args.workload](args.seed, 1.0)
    workloads.execute(prepared)  # warm-up

    counts = {"signatures_built_on_demand": 0}
    undo = [counted(Eddy, "to_eddy", counts, "to_eddy_calls")]
    if hasattr(Eddy, "to_eddy_all"):
        undo.append(counted(Eddy, "to_eddy_all", counts, "hand_offs", "items_handed_off"))
    if hasattr(QTuple, "extender"):
        undo.append(counted(QTuple, "extender", counts, "extension_templates"))
    undo.append(counted(QTuple, "extended", counts, "extended_calls"))
    for cls, name in (
        (Row, "__hash__"),
        (QTuple, "__init__"),
        (SteMModule, "_is_build"),
        (SteM, "covers"),
    ):
        key = f"{cls.__name__}.{name}_calls"
        counts[key] = 0
        undo.append(counted(cls, name, counts, key))
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
    # Every run installs a fresh allocator: its next id counts this run's ids.
    counts["tuple_ids_allocated"] = tuples._id_allocator.allocate() - 1
    counts["results"] = sum(len(result.tuples) for _, result in outcome.result.items())
    counts["kept_result_type"] = ",".join(
        sorted({type(t).__name__ for _, result in outcome.result.items() for t in result.tuples})
    )
    counts["tracked_objects_kept_per_result"] = round(
        counts["tracked_objects_kept"] / max(counts["results"], 1), 2
    )
    QTuple.routing_signature = signature
    for restore in undo:
        restore()
    del outcome

    passes, seconds, started = [0, 0, 0], [0.0], [None]
    passes_at_collect, collecting = [0, 0, 0], [False]
    collect = multi.collect_result

    def collect_result(*args, **kwargs):
        collecting[0] = True
        try:
            return collect(*args, **kwargs)
        finally:
            collecting[0] = False

    def on_collection(phase, info):
        if phase == "start":
            started[0] = time.perf_counter() if in_repetition else None
        elif started[0] is not None:
            seconds[0] += time.perf_counter() - started[0]
            passes[info["generation"]] += 1
            passes_at_collect[info["generation"]] += collecting[0]

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
    multi.collect_result = collect_result
    try:
        walls = timed(args.repetitions)
    finally:
        multi.collect_result = collect
        gc.callbacks.remove(on_collection)
    counts["collector_passes_per_repetition"] = [
        round(n / args.repetitions, 1) for n in passes
    ]
    counts["collector_passes_at_collect_per_repetition"] = [
        round(n / args.repetitions, 1) for n in passes_at_collect
    ]
    counts["peak_rss_mb"] = round(peak_rss_mb(), 1)
    gc.disable()
    try:
        walls_off = timed(args.repetitions)
    finally:
        gc.enable()
    counts["wall_s"] = round(median(walls), 4)
    counts["collector_s"] = round(seconds[0] / args.repetitions, 4)
    counts["wall_s_collector_off"] = round(median(walls_off), 4)

    # Traced last: tracemalloc slows the run and adds its own bookkeeping.
    gc.collect()
    tracemalloc.start()
    outcome = workloads.execute(prepared)
    gc.collect()
    traced = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    split = retention_split(outcome, counts["results"])
    del outcome
    counts["traced_mb_held"] = round(traced / 1e6, 1)
    counts["retained_bytes_per_result"] = round(traced / max(counts["results"], 1))
    split["rest"] = counts["retained_bytes_per_result"] - sum(split.values())
    counts["retained_bytes_per_result_split"] = split
    header = {"checkout": str(root), "workload": args.workload, "seed": args.seed}
    print(json.dumps({**header, **counts}, indent=1))


if __name__ == "__main__":
    main()
