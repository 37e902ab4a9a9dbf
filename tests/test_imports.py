"""Every name a balkwise module imports is used by it.

No linter is installed, so this walks each module's syntax tree: a name
bound by an import must appear elsewhere in the module, unless the line
that imports it carries ``# noqa: F401`` (a name kept for other modules to
rebind or read).  ``__init__.py`` is left out, since its imports are the
package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "balkwise"


def unused_imports(source: str) -> list[str]:
    """The imported names source never uses, each as "line: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_an_unused_import_is_found_unless_marked():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["1: os", "3: dumps"]
