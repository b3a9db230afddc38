"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 mprtcbench/sweep.py [--workloads a,b] [--seeds 1,2,3 | --held-out]
                                [--seconds S] [--trace 0|1] [--pin]

Without --seeds it uses the default seed set from golden.json; --held-out
uses the held-out seed instead, to confirm a claim on a seed that was not
looked at while the change was written.  For every workload and metric it
prints the median, the quartiles and the spread (interquartile distance as
a share of the median) beside the metric's bound from BENCHMARK.json.
--pin records each run's digest in golden.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str | None]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split()[2] for l in lines if l.startswith("# digest ")), None)
    for line in lines:
        if line.startswith("#   "):
            print(f"  {workload} seed {seed}: {line[4:]}")
    return json.loads(lines[-1]), digest


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(GOLDEN.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", help="comma-separated seeds (default: the default seed set)")
    parser.add_argument("--held-out", action="store_true", help="run the held-out seed only")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="record digests in golden.json")
    args = parser.parse_args()
    if args.held_out:
        seeds = [golden["held_out_seed"]]
    elif args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
    else:
        seeds = golden["default_seeds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    all_correct = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            result, digest = run_once(workload, seed, args.seconds, args.trace)
            all_correct &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} digest={digest}")
            print("  " + " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()))
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            if args.pin and digest is not None:
                golden["digests"].setdefault(workload, {})[str(seed)] = digest
        if len(seeds) < 2:
            continue
        print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            if len(values[m["name"]]) != len(seeds):
                continue
            median, q1, q3, share = spread(values[m["name"]])
            bound = m.get("bound")
            flag = "" if bound is None or share < bound / 3 else "  <-- above bound/3"
            print(f"{m['name']:32} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3%} "
                  f"{'' if bound is None else f'{bound:6.2f}'}{flag}")
    if args.pin:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
