"""Smoke runs of the experiment scripts, so an API change that breaks
one fails here rather than at the next experiment."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("search_tables.py", "--n 2 --m 1 --S 2 --shift-bound 1 --trials 5 --seeds 1"),
        ("bound_explorer.py", "--n 8 16 --m 1"),
        ("backend_constants.py", "--size 4096 --trials 1"),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args.split()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines and lines[-1].strip()
