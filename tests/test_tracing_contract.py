"""The benchmark's traced run patches mprtc methods by name.

``mprtcbench/tracing.py`` wraps every method its ``SPANNED`` table names and
``SendManager._declare_lost``, looking each one up with ``getattr``.  A method
deleted or renamed here while that table still names it breaks the traced
run, and so does a wrapped method whose return value no longer has the shape
the tracer counts; a traced run whose digests differ from the untraced ones
reports itself incorrect.  These tests notice all three with the tier-1
suite.  They read the benchmark's code and do not change it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_tracer_installs_on_every_method_it_names():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "mprtcbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.Tracer().install()"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "mprtcbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
