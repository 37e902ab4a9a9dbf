"""tools/api_surface.py still runs and adds up.

The lines under src/balkwise are a tracked number, and the tool prints
them; its tables must add up to their totals, and every CLI flag must be
read by its subcommand's handler.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tables(text: str) -> dict:
    """Each ``## title`` section's rows as (count, rest of the line)."""
    tables = {}
    for line in text.splitlines():
        if line.startswith("## "):
            rows = tables.setdefault(line[3:], [])
        else:
            count, rest = line.split(None, 1)
            rows.append((int(count), rest))
    return tables


def test_api_surface_tables_add_up():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "api_surface.py")],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    tables = _tables(run.stdout)
    modules, optional, flags = (tables[title] for title in (
        "lines per module", "optional parameters of exported callables",
        "CLI flags per subcommand (* = never read by its handler)"))
    for rows in (modules, optional, flags):
        *parts, (total, label) = rows
        assert label.startswith("total") and sum(count for count, _ in parts) == total
    for count, name in modules[:-1]:  # as wc -l counts them
        assert count == (ROOT / "src" / "balkwise" / name).read_text().count("\n")
    assert flags[-1][1] == "total, 0 never read"
