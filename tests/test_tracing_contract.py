"""The benchmark's traced run patches mprtc methods by name.

``mprtcbench/tracing.py`` wraps every method its ``SPANNED`` table names and
``SendManager._declare_lost``, looking each one up with ``getattr``.  A method
deleted or renamed here while that table still names it breaks the traced
run; this test notices it with the tier-1 suite.  It reads the benchmark's
code and does not change it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_method_it_names():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "mprtcbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.Tracer().install()"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
