"""Smoke test of the benchmark itself: each workload, briefly, end to end.

    python3 -m pytest -q mprtcbench/test_smoke.py

It checks the harness, not the timing: every named metric is printed with
its unit, the traced and untraced digests agree, and the output checks ran
(and can fail).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def line_value(lines: list[str], prefix: str) -> str:
    matches = [l[len(prefix):].strip() for l in lines if l.startswith(prefix)]
    assert len(matches) == 1, (prefix, lines)
    return matches[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_end_to_end_and_traced(workload):
    lines, result = bench(workload, 0)
    traced_lines, traced = bench(workload, 1)
    for res, wanted in ((result, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in wanted} == \
               {name: m["unit"] for name, m in res["metrics"].items()}
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    for name in ("sim_per_wall", "setup_s", "peak_rss_mb", "goodput_mbps"):
        assert result["metrics"][name]["value"] > 0

    digest = line_value(lines, "# digest ").split()[0]
    assert digest == line_value(traced_lines, "# digest ").split()[0]
    expected = ("frame-accounting" if workload.startswith("overlay") else "inflight")
    for out in (lines, traced_lines):
        assert expected in line_value(out, "# checks run:").split()
        assert "# checks passed" in out


def test_output_checks_catch_broken_invariants():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    workload = workloads.get_workload("overlay-ucb", quick=True)
    (run,) = workloads.build_runs(workload, workloads.make_inputs(workload, 3))
    run.run()
    assert workloads.overlay_checks(run.session) == []

    session = run.session
    session.scheduler.subflows[0].queued_bytes += 1
    session.sink.delivered.reverse()
    session.source.frames_captured += 1
    failures = " | ".join(workloads.overlay_checks(session))
    assert "queued_bytes" in failures
    assert "strictly increasing" in failures
    assert "frame accounting" in failures
