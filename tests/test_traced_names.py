"""The benchmark's per-layer tracer wraps intscore functions by module
attribute and skips a name it cannot find, so a renamed function would
silently blank a layer metric. Every (module, attribute) pair its TRACED
table names must resolve. The table is read as source, so the benchmark
is neither imported nor run."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _traced():
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} defines no TRACED table")


def test_traced_names_resolve():
    traced = _traced()
    missing = [f"intscore.{module}.{attr}" for module, attr, _ in traced
               if not callable(getattr(importlib.import_module(f"intscore.{module}"),
                                       attr, None))]
    assert not missing, f"traced names missing from intscore: {missing}"
    assert {module for module, _, _ in traced} >= {"evaluation", "polish", "solver"}
