"""Every seeded output that tools/output_digest.py hashes, pinned.

data/output_digest.txt holds the digest's lines, one sha256 per output.  A
change that must keep seeded results byte-identical leaves every line as
it is; one that moves an output by design writes the pins anew with

    PYTHONPATH=src python tools/output_digest.py > tests/data/output_digest.txt

The pins hold for one platform (numpy and its BLAS): on a mismatch the test
names each output that differs and the numpy version it ran with.
"""

import importlib.util
from pathlib import Path

import numpy as np

PINS = Path(__file__).parent / "data" / "output_digest.txt"
TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
REGENERATE = "PYTHONPATH=src python tools/output_digest.py > tests/data/output_digest.txt"


def _digest_lines() -> list:
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return list(tool.lines())


def _by_name(lines) -> dict:
    return {name: sha for sha, name in (line.split("  ", 1) for line in lines)}


def test_every_seeded_output_matches_its_pin():
    want, got = PINS.read_text().splitlines(), _digest_lines()
    pinned, current = _by_name(want), _by_name(got)
    moved = [name for name in sorted(pinned.keys() | current.keys())
             if pinned.get(name) != current.get(name)]
    assert got == want, (
        f"{len(moved)} of {len(want)} pinned outputs differ: "
        f"{', '.join(moved) or 'none, their order does'} (running numpy {np.__version__}); "
        f"if the change moves them by design, run `{REGENERATE}` and name each in CHANGES.md"
    )
