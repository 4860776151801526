"""Names that code outside ``src/`` looks up still exist.

``perfbench/tracing.py`` wraps functions by module and name and reports a
missing one only as "not run", so a rename in ``src/`` would otherwise
pass unnoticed.  The tracer's table is read from its source, not
imported.
"""

import ast
import importlib
from pathlib import Path

import amodcc

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_public_name_resolves():
    assert [name for name in amodcc.__all__ if not hasattr(amodcc, name)] == []


def wrapped_table() -> dict[str, tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} has no WRAPPED table")


def lookup(path: str):
    """The object at a dotted path: a module, then attributes inside it."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


def test_benchmark_tracer_targets_exist():
    table = wrapped_table()
    assert table
    missing = [f"{owner}.{attr}" for owner, attr in table.values()
               if getattr(lookup(owner), attr, None) is None]
    assert missing == []
