"""Smoke runs of the scripts in scripts/, each on a tiny grid.

The scripts put src/ on their import path themselves, so each runs from the
repository root.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_bounds_table():
    lines = run_script("bounds_table.py", "--max-l", "2")
    assert lines[0].split() == ["t", "l", "s0", "s_adm", "growth@s_adm", "m_thr(s_adm)"]
    # One row per (t, l) with t <= l <= 2.
    assert [row.split()[:4] for row in lines[1:]] == [
        ["1", "1", "1", "4"],
        ["1", "2", "4", "8"],
        ["2", "2", "1", "4"],
    ]


def test_collision_hunt():
    lines = run_script("collision_hunt.py", "--alphabet", "1,2", "--budget", "200")
    assert lines[0] == "alphabet 1,2, target multiplicity 2"
    assert lines[1].startswith("scanned 183 classes across 24 Parikh vectors in ")
    assert lines[1].endswith(" (budget exhausted)")
    assert "total witnesses: 14" in lines


def test_wmax_sweep():
    lines = run_script("wmax_sweep.py", "--letters", "1,2,3", "--sizes", "2", "--max-n", "6")
    assert lines[-1].startswith("45 classes, 0 failures, ")
