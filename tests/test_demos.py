"""Smoke test for the narrative demos in ``demos/``.

Each demo runs as a script in a fresh interpreter, the way its
docstring says to run it, so a broken import or a renamed public name
shows up here rather than in front of a reader.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("four_corner_pair.py", "matrix_crosscheck.py",
         "single_family_tour.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the cross-check demo prints MISSED for a fault the oracle let by
    assert "MISSED" not in proc.stdout
