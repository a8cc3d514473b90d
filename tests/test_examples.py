"""Smoke tests for the runnable scripts in ``examples/``."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_example(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / name)],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_signaling_overhead_example_runs():
    result = run_example("signaling_overhead.py")
    assert result.returncode == 0, result.stdout + result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    assert ["flows", "offered", "120"] in rows
    # Seeded: the same decisions as the burst has always produced.
    assert ["flows", "admitted", "16"] in rows
