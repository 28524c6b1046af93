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


def compare_checkouts(a, b, points):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_checkouts.py"), str(a), str(b), "--points", str(points)],
        capture_output=True, text=True, timeout=120,
    )


def test_compare_checkouts_same_tree_has_no_differences():
    # the first 28 seeded points hold one of each kind of table verify, the
    # four n=5 raised-budget points, on both sides of the row-subset cap,
    # the four field points, the four table schedule points and the first
    # four dist points, which send a file past one chunk to each reader
    proc = compare_checkouts(ROOT, ROOT, 28)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["44 commands (16 README, 28 seeded), 0 differences"]


def test_compare_checkouts_reports_differences(tmp_path):
    # a checkout whose CLI echoes its arguments differs on every command
    package = tmp_path / "src" / "kextract"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    print(*argv)\n    return 0\n")
    proc = compare_checkouts(ROOT, tmp_path, 0)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("16 commands (16 README, 0 seeded), ")
    assert "extend 05 03 --count 1\n  stdout: '06\\n'\n" in proc.stdout
