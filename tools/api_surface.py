"""Print the size of balkwise's surface: module lines, optional parameters, CLI flags.

Three tables, each with a total:

- lines per module of the imported ``balkwise`` package (as ``wc -l``);
- the optional parameters (those with a default) of every function and
  class exported by ``balkwise/__init__.py``, and of each public method a
  class defines;
- each CLI subcommand's flags from ``cli.build_parser()``, marking those its
  handler never reads: no ``args.<dest>`` in the handler or in a ``cli``
  function the handler passes ``args`` to.

Point PYTHONPATH at a checkout's ``src`` to measure it, so two commits can
be compared:

    PYTHONPATH=src python tools/api_surface.py
    PYTHONPATH=<other checkout>/src python tools/api_surface.py

Needs only the standard library and balkwise itself.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import sys
import textwrap
from pathlib import Path

import balkwise
from balkwise import cli


def module_lines() -> dict[str, int]:
    root = Path(balkwise.__file__).parent
    return {path.name: path.read_text().count("\n") for path in sorted(root.glob("*.py"))}


def _optional(obj) -> list[str]:
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return []
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def exported_callables():
    """(name, object) per exported function and class, and per public method a class defines."""
    for name, obj in vars(balkwise).items():
        if name.startswith("_") or not callable(obj):
            continue
        if not getattr(obj, "__module__", "").startswith("balkwise"):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def _reads(fn, seen: set) -> set[str]:
    """Attributes read from ``args`` by fn and by the cli functions it passes ``args`` to."""
    seen.add(fn)
    found = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "args":
                found.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callee = getattr(cli, node.func.id, None)
            passes_args = any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
            if passes_args and inspect.isfunction(callee) and callee not in seen:
                found |= _reads(callee, seen)
    return found


def subcommand_flags():
    """(subcommand, [(flag, read)]) for every subcommand of the CLI."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, subparser in sub.choices.items():
        reads = _reads(cli._HANDLERS[name], set())
        flags = [
            (action.option_strings[0] if action.option_strings else action.dest,
             action.dest in reads)
            for action in subparser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        yield name, flags


def main() -> int:
    print(f"# balkwise {balkwise.__version__} from {Path(balkwise.__file__).parent}",
          file=sys.stderr)
    lines = module_lines()
    print("## lines per module")
    for name, count in lines.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(lines.values()):6d}  total")

    print("## optional parameters of exported callables")
    total = 0
    for name, obj in exported_callables():
        optional = _optional(obj)
        if optional:
            total += len(optional)
            print(f"{len(optional):6d}  {name}: {', '.join(optional)}")
    print(f"{total:6d}  total")

    print("## CLI flags per subcommand (* = never read by its handler)")
    registered = unread = 0
    for name, flags in subcommand_flags():
        registered += len(flags)
        unread += sum(not read for _, read in flags)
        shown = " ".join(flag if read else f"*{flag}" for flag, read in flags)
        print(f"{len(flags):6d}  {name}: {shown}")
    print(f"{registered:6d}  total, {unread} never read")
    return 0


if __name__ == "__main__":
    sys.exit(main())
