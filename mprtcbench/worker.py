"""One measurement process of the mprtc benchmark; run.py starts it.

    python3 worker.py --mode setup|measure|check|traced --workload NAME --seed N
                      [--seconds S] [--cpu I] [--quick]

setup    builds one round of sessions and reports the set-up time.
measure  also runs rounds untraced until --seconds have passed.
check    runs only the first CHECK_SESSIONS sessions of a round, for their digests.
traced   runs one round with every layer wrapped in spans.

The last line of standard output is a JSON object.  The caller sets
PYTHONPATH to the program's sources and picks PYTHONHASHSEED.

The cores of one machine need not run equally fast (on the 2-core VM the
benchmark was tuned on, set-up took ~45% longer on core 0 than on core 1),
so a run must not depend on where the scheduler happens to place it:
--cpu pins the process to the I-th allowed core, and a round pins session k
to core k mod the number of cores.

The speed of a shared machine also drifts: on that VM the same runs took
17% (simulation) to 39% (set-up) longer an hour apart.  So every timed step
is followed by reference(), a fixed piece of pure-Python work that does not
use the program, and run.py scales times by how fast the reference ran.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from collections import deque  # noqa: E402

CPUS = sorted(os.sched_getaffinity(0))

CHECK_SESSIONS = 2
SETUP_REFERENCES = 3

_REFERENCE_SOURCE = "\n".join(
    f"def f{i}(a, b=1):\n    x = [a, b, {i}]\n    return {{'k': x, 'n': len(x)}}\n"
    for i in range(100))


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value


def reference() -> float:
    """Wall time of fixed work shaped like the simulator's and an import's:
    compiling and running code, a heap of timer-like entries, a churning dict."""
    t0 = time.perf_counter()
    namespace = {}
    exec(compile(_REFERENCE_SOURCE, "<reference>", "exec"), namespace)
    rng = random.Random(1)
    heap, table, fifo = [], {}, deque()
    acc = 0.0
    for i in range(10_000):
        heapq.heappush(heap, [rng.randrange(1 << 20), i, _Item(i, acc)])
        if len(heap) > 2048:
            acc = 0.85 * acc + 0.15 * heapq.heappop(heap)[2].value + 1.0
        table[i] = _Item(i, namespace[f"f{i % 100}"](i))
        fifo.append(i)
        if len(fifo) > 4096:
            del table[fifo.popleft()]
    return time.perf_counter() - t0


def build_round(workloads, workload, seed):
    return workloads.build_runs(workload, workloads.make_inputs(workload, seed))


def run_round(workloads, workload, runs) -> dict:
    """Runs the sessions in order, releasing each one once its outcome is taken."""
    walls, references, outcomes = [], [], []
    runs.reverse()
    while runs:
        run = runs.pop()
        os.sched_setaffinity(0, {CPUS[len(walls) % len(CPUS)]})
        gc.collect()
        t0 = time.perf_counter()
        run.run()
        walls.append(time.perf_counter() - t0)
        references.append(reference())
        outcomes.append(run.outcome())
    digests = [workloads.digest(o) for o in outcomes]
    return {
        "wall_s": walls,
        "reference_s": references,
        "session_digests": digests,
        "digest": workloads.round_digest(digests),
        "checks": [c for o in outcomes for c in o["checks"]],
        "summary": workloads.summarize(workload, outcomes),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "check", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {CPUS[args.cpu % len(CPUS)]})

    tracer = None
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    # Set-up: importing the program, making the traces, building the sessions.
    import workloads
    workload = workloads.get_workload(args.workload, args.quick)
    runs = build_round(workloads, workload, args.seed)
    result = {"setup_s": time.perf_counter() - _T0}
    if args.mode == "setup":
        result["reference_s"] = sorted(reference() for _ in range(SETUP_REFERENCES))[1]
    if args.mode == "check":
        del runs[CHECK_SESSIONS:]

    if args.mode != "setup":
        start = time.perf_counter()
        rounds = [run_round(workloads, workload, runs)]
        del runs
        while args.mode == "measure" and time.perf_counter() - start < args.seconds:
            rounds.append(run_round(workloads, workload,
                                    build_round(workloads, workload, args.seed)))
        result["rounds"] = [{k: r[k] for k in ("wall_s", "reference_s", "digest",
                                               "session_digests", "checks")}
                            for r in rounds]
        result["summary"] = rounds[0]["summary"]
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["handlers"] = tracer.handlers()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
