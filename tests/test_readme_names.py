"""Every ``module.name`` README.md quotes in backticks still exists.

The README names private settings and helpers (``model.BOUNDARY_RTOL``,
``stationary._Row.revenues``) to explain the design; a rename or a deletion
leaves such a name stale.  Each backticked name whose first part is a
balkwise module must resolve, attribute by attribute, in that module.  The
rows of the JSON-key table (header ``| key |``) quote config keys such as
``model.lambda``, not code, and are skipped.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import balkwise

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(balkwise.__path__))
NAME = re.compile(r"`((%s)(?:\.\w+)+)`" % "|".join(MODULES))


def quoted_names(text: str) -> list[tuple[int, str]]:
    """(line number, name) of each backticked module.name outside the JSON-key table."""
    names, in_keys = [], False
    for number, line in enumerate(text.splitlines(), 1):
        in_keys = line.startswith("|") and (in_keys or line.startswith("| key |"))
        if not in_keys:
            names += [(number, match[1]) for match in NAME.finditer(line)]
    return names


def resolves(name: str) -> bool:
    """Whether balkwise.<module> has the attributes name chains after its module."""
    module, *attributes = name.split(".")
    found = importlib.import_module(f"balkwise.{module}")
    for attribute in attributes:
        if not hasattr(found, attribute):
            return False
        found = getattr(found, attribute)
    return True


def test_quoted_names_skip_the_key_table():
    text = "`model.mu`\n| key | kind |\n|---|---|\n| `model.lambda` | number |\n\n`model.x.y`"
    assert quoted_names(text) == [(1, "model.mu"), (6, "model.x.y")]
    assert resolves("stationary._Row.revenues") and not resolves("stationary._Row.x")


def test_every_quoted_module_name_resolves():
    names = quoted_names(README.read_text())
    assert names, "README.md quotes no module.name"
    assert [f"README.md:{number}: {name}" for number, name in names if not resolves(name)] == []
