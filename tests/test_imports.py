"""Every name a balkwise module imports is used by it.

No linter is installed, so this walks each module's syntax tree: a name
bound by an import must appear elsewhere in the module, unless the line
that imports it carries ``# noqa: F401`` (a name kept for other modules to
rebind or read).  ``__init__.py`` is left out, since its imports are the
package's exports.  The names perfbench's traced run rebinds must exist
and come back when it undoes the rebinding.
"""

import ast
import importlib
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


def test_the_traced_benchmark_rebinds_names_that_exist_and_restores_them(monkeypatch):
    # perfbench/run.py --trace 1 rebinds library names (pricing.optimal_price,
    # experiments.fit_mle, ExponentialFamily.__dict__["sf"], ...) through
    # spans.install, which raises for a name that is gone; its undo must put
    # every original back
    from balkwise import experiments, model, pricing, stationary

    monkeypatch.syspath_prepend(str(SRC.parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    owners = {"pricing": pricing, "experiments": experiments, "stationary": stationary,
              "ExponentialFamily": model.ExponentialFamily, "ParamSpace": model.ParamSpace,
              "SimulatedSource": pricing.SimulatedSource}
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    undo = spans.install(spans.Tracer())
    try:
        rebound = {(key, name) for key, owner in owners.items()
                   for name, value in vars(owner).items() if value is not before[key].get(name)}
    finally:
        undo()
    assert {("pricing", "optimal_price"), ("experiments", "fit_mle"),
            ("ExponentialFamily", "sf")} <= rebound
    for key, owner in owners.items():
        after = dict(vars(owner))
        assert after.keys() == before[key].keys()
        assert [name for name, value in before[key].items() if after[name] is not value] == []
