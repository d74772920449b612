"""The benchmark's traced layers name functions that exist.

perfbench/workloads.py wraps each "module.function" of its layer tuples
in place during a traced run, so a renamed or removed function breaks the
benchmark without any library test failing.  The file is parsed, never
imported or changed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
LAYER_TUPLES = ("SWEEP_LAYERS", "AUDIT_LAYERS", "TRANSCRIPT_LAYERS", "CLI_LAYERS")


def test_every_traced_layer_is_a_qbc_callable():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    layers = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in LAYER_TUPLES
    }
    assert sorted(layers) == sorted(LAYER_TUPLES)
    names = [name for tuple_name in LAYER_TUPLES for name in layers[tuple_name]]
    assert len(names) == 16
    for name in names:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"qbc.{module}"), function, None)), name
