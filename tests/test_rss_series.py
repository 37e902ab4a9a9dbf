"""tools/rss_series.py prints one line of three columns per op.

Each line after the first (which names the balkwise imported) is
``op peak_rss_mb minflt``: the op's index, the process's peak RSS in MB so
far and the minor page faults that op took.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_rss_series_prints_peak_rss_and_faults_per_op():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rss_series.py"),
         "--workload", "pricing-doubling", "--seed", "101", "--ops", "2"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    header, *lines = run.stdout.splitlines()
    assert header.startswith("# balkwise ")
    rows = [line.split() for line in lines]
    assert [len(row) for row in rows] == [3, 3]
    assert [int(row[0]) for row in rows] == [0, 1]
    peaks = [float(row[1]) for row in rows]
    assert 0.0 < peaks[0] <= peaks[1]
    assert all(int(row[2]) >= 0 for row in rows)
