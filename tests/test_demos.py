"""Every script in demos/ runs to completion against the package in src/,
under the suite's own warning policy (a RuntimeWarning is an error, as
pyproject.toml sets for pytest), and writes nothing to stderr.

sequential_test_run.py draws each trial with sample_rows and stream_keys
and decides it with two_phase_test, the path run_trials takes for a
deferred trial, one trial at a time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stderr == ""
