"""Benchmark of the mprtc simulator: one workload, one seed, one result line.

    python3 mprtcbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run it from the root of a source checkout; the program is imported from
src/.  With --trace 0 it prints the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer metrics of a traced run.  Lines
starting with "#" report the stamp, digests, checks and sample counts; the
last line of standard output is the JSON result.  See README.md beside this
file for what each metric means.

Every simulation runs in a child process (worker.py), one at a time:
  * 8 set-up children, spread evenly over the allowed cores, build the
    sessions and exit; set-up time is the mean over cores of each core's
    median (each sample scaled by the reference speed, see below);
  * trace 0: one measuring child for --seconds, then a check child that
    reruns the first sessions under another PYTHONHASHSEED; digests must
    agree session by session across all rounds;
  * trace 1: one untraced measuring child and one traced child; the
    traced digests must equal the untraced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 8
# Wall time of worker.reference() on the VM the benchmark was tuned on
# (Python 3.11.7, 2 cores, quiet period).  Timings are reported at that
# machine speed: each measured time is scaled by this / the reference time
# measured in the same process, right after it.
REFERENCE_NOMINAL_S = 0.04
DEADLINE_S = 170
HASH_SEED_MAX = 4294967295


class ChildError(Exception):
    pass


def run_child(mode: str, args, hash_seed: int, seconds: float, deadline: float,
              cpu: int | None = None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError(f"{mode}: no time left before the deadline")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode}: timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise ChildError(f"{mode} exited with {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def session_walls(child) -> list[float]:
    """Per-session wall time, the median over the child's rounds."""
    return [statistics.median(walls) for walls in zip(*(r["wall_s"] for r in child["rounds"]))]


def consistency_failures(children: dict) -> list[str]:
    """Output checks of every round, and digests that agree session by session
    across every round of every child (a check child runs only the first few)."""
    failures = []
    reference = None
    for label, child in children.items():
        for i, r in enumerate(child["rounds"]):
            failures += [f"{label} round {i}: {c}" for c in r["checks"]]
            digests = r["session_digests"]
            if reference is None:
                reference = digests
            elif digests != reference[:len(digests)]:
                failures.append(f"{label} round {i}: session digests differ from the first round")
    return failures


def source_stamp() -> dict:
    sources = sorted((SRC / "mprtc").glob("*.py"))
    tree = hashlib.sha256()
    for path in sources:
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "commit": commit,
            "source_sha256": tree.hexdigest()[:16], "nproc": os.cpu_count()}


def pinned_digest(workload: str, seed: int) -> str | None:
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    return golden["digests"].get(workload, {}).get(str(seed))


def end_to_end(args, deadline) -> tuple[dict, dict, list[str], dict]:
    hash_a, hash_b = args.seed % HASH_SEED_MAX, (args.seed + 1) % HASH_SEED_MAX
    ncpu = len(os.sched_getaffinity(0))
    setups = [[] for _ in range(ncpu)]
    raw_setups = []
    for i in range(SETUP_CHILDREN):
        child = run_child("setup", args, hash_a, 0, deadline, cpu=i)
        raw_setups.append(child["setup_s"])
        setups[i % ncpu].append(child["setup_s"] * REFERENCE_NOMINAL_S / child["reference_s"])
    a = run_child("measure", args, hash_a, args.seconds, deadline)
    b = run_child("check", args, hash_b, 0, deadline)
    failures = consistency_failures({f"hashseed {hash_a}": a, f"hashseed {hash_b}": b})
    summary = a["summary"]
    walls = session_walls(a)
    sim_s = summary["sim_s"] * len(walls)
    references = [t for r in a["rounds"] for t in r["reference_s"]]
    speed = REFERENCE_NOMINAL_S / statistics.mean(references)
    values = {
        "setup_s": statistics.mean(statistics.median(s) for s in setups if s),
        "sim_per_wall": sim_s / (sum(walls) * speed),
        "peak_rss_mb": a["peak_rss_kb"] / 1024,
        **{k: summary[k] for k in ("frame_latency_p50_ms", "frame_latency_p99_ms",
                                   "frames_on_time_ratio", "goodput_mbps", "jain_fairness")},
    }
    info = {"pythonhashseed": f"{hash_a},{hash_b}", "digest": a["rounds"][0]["digest"],
            "unscaled": f"sim_per_wall={sim_s / sum(walls):.6g} "
                        f"setup_s={statistics.median(raw_setups):.6g} "
                        f"machine_speed={speed:.4g} (reference nominal / measured)",
            "rounds": len(a["rounds"]), "sessions": len(walls),
            "setup_samples": SETUP_CHILDREN, "latency_samples":
                f"{min(summary['latency_samples'])} min per session, "
                f"{sum(summary['latency_samples'])} in all",
            "on_time": summary["on_time"]}
    return values, summary, failures, info


def per_layer(args, deadline) -> tuple[dict, dict, list[str], dict]:
    hash_a, hash_b = args.seed % HASH_SEED_MAX, (args.seed + 1) % HASH_SEED_MAX
    a = run_child("measure", args, hash_a, args.seconds / 2, deadline)
    b = run_child("traced", args, hash_b, 0, deadline)
    failures = consistency_failures({"untraced": a, "traced": b})
    if a["summary"] != b["summary"]:
        failures.append("output metrics differ between the untraced and traced runs")
    summary = b["summary"]
    counts = summary["counts"]
    layers = b["layers"]
    untraced_wall = sum(session_walls(a))
    scheduled = layers["simnet.events_scheduled"]
    dispatched = layers["simnet.events_dispatched"]
    values = dict(layers)
    values.update({
        "simnet.stale_event_ratio": (scheduled - dispatched - counts["events_pending"]) / scheduled,
        "simnet.events_per_s": dispatched / untraced_wall,
        "simnet.link_drop_ratio": counts["link_dropped"] / counts["link_sent"],
        "scheduler.decision_log_len": counts["decision_log_len"],
        "videomodel.frames_dropped_sender": counts["frames_dropped_sender"],
        "videomodel.frames_abandoned": counts["frames_abandoned"],
        "videomodel.frames_unseen": counts["frames_unseen"],
        "trace.overhead_ratio": sum(session_walls(b)) / untraced_wall,
    })
    info = {"pythonhashseed": f"{hash_a},{hash_b}", "digest": a["rounds"][0]["digest"],
            "handlers": b["handlers"]}
    return values, summary, failures, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one short session per round: checks the harness, not timing")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "mprtc" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC}/mprtc", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("error: --seconds must be >= 0", file=sys.stderr)
        return 2

    stamp = source_stamp()
    print(f"# mprtc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' quick' if args.quick else ''}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measure = per_layer if args.trace else end_to_end
    try:
        values, summary, failures, info = measure(args, deadline)
    except ChildError as exc:
        values, summary, info = {}, {"attempted": 1}, {}
        failures = [f"run failed: {exc}"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not failures:
        failures.append(f"metrics not measured: {missing}")
    stamp["pythonhashseed"] = info.get("pythonhashseed", "")
    print("# stamp " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    if "digest" in info:
        pinned = None if args.quick else pinned_digest(args.workload, args.seed)
        verdict = ("not pinned" if pinned is None
                   else "matches pinned" if pinned == info["digest"] else f"DIFFERS from pinned {pinned}")
        print(f"# digest {info['digest']} ({verdict})")
    for key in ("unscaled", "rounds", "sessions", "setup_samples", "latency_samples", "on_time"):
        if key in info:
            print(f"# {key} {info[key]}")
    for name, calls, total_s, self_s in info.get("handlers", []):
        print(f"# handler {name} dispatched={calls} total_s={total_s:.4f} self_s={self_s:.4f}")
    print(f"# checks run: {' '.join(summary.get('checks_run', []))}")
    print("# checks " + ("passed" if not failures else "FAILED"))
    for failure in failures:
        print(f"#   {failure}")

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"# metric {m['name']} = {values[m['name']]:.6g} {m['unit']} "
                  f"({m['better']} is better)")
    attempted = max(1, summary.get("attempted", 1))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": attempted if failures else 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
