"""tools/search_rounds.py still counts what it names.

The tool wraps private functions of balkwise (the family's survival kernel
``_survival``, ``grid_then_golden``, ``_Row.scan``, ``_Row._tables``,
``_weigh``, ``_fit_batch``, ``_Batch.evaluate``), so renaming one of them
would silently zero a count; two ops of ``pricing-doubling`` must give every
count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from balkwise.stationary import _NARROW, PRICE_GRID

ROOT = Path(__file__).resolve().parents[1]


def test_search_rounds_counts_every_search():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "search_rounds.py"),
         "--workload", "pricing-doubling", "--seed", "101", "--ops", "2"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    summary = json.loads(run.stdout.splitlines()[-1])
    per_op = summary["per_op"]
    assert summary["ops"] == 2
    assert per_op["bounds"] > 0 and summary["survival_calls_per_bound"] >= 1
    assert per_op["golden_calls"] > 0 and per_op["rounds"] > 0
    assert 1 <= summary["scan_rows_per_search"] <= PRICE_GRID
    assert summary["scan_calls_per_search"] >= 1
    # each pass weighs a table at _NARROW states first, then one per doubling
    assert per_op["table_passes"] > 0 and summary["tables_per_pass"] >= 1
    widths = summary["table_rows_per_op"]
    assert widths and min(map(int, widths)) == _NARROW
    assert all(int(w) % _NARROW == 0 for w in widths)
    ops = [json.loads(line) for line in run.stdout.splitlines()[1:-1]]
    assert [op["op"] for op in ops] == [0, 1]
    for w, rows in widths.items():
        assert rows == sum(op["table_rows"].get(w, 0) for op in ops) / 2
