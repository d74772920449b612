"""The benchmark's calls into qbc name functions that exist.

perfbench/workloads.py wraps each "module.function" of its layer tuples
in place during a traced run, imports names from ``qbc`` and calls
``qbc.<name>`` and ``qbc.<module>.<name>`` chains, so a renamed or removed
function breaks the benchmark without any library test failing.  The file
is parsed, never imported or changed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import qbc

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
LAYER_TUPLES = ("SWEEP_LAYERS", "AUDIT_LAYERS", "TRANSCRIPT_LAYERS", "CLI_LAYERS")
TREE = ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def _chain(node) -> tuple[str, ...] | None:
    """``("qbc", "specfile", "format_float")`` for the expression qbc.specfile.format_float."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if isinstance(node, ast.Name) else None


def _resolve(chain: tuple[str, ...]):
    """The object a dotted chain names, importing the submodules the file imports."""
    obj = importlib.import_module(chain[0])
    for i, part in enumerate(chain[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(chain[:i]))
        obj = getattr(obj, part)
    return obj


def test_every_traced_layer_is_a_qbc_callable():
    layers = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in TREE.body
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


def test_every_qbc_name_the_benchmark_uses_resolves():
    imported = [
        alias.name
        for node in ast.walk(TREE)
        if isinstance(node, ast.ImportFrom) and node.module == "qbc"
        for alias in node.names
    ]
    assert imported
    for name in imported:
        assert hasattr(qbc, name), name
    chains = {_chain(node) for node in ast.walk(TREE) if isinstance(node, ast.Attribute)}
    chains = sorted(chain for chain in chains if chain and chain[0] == "qbc")
    assert ("qbc", "sweep") in chains and ("qbc", "specfile", "format_float") in chains
    for chain in chains:
        _resolve(chain)


def test_sweep_accepts_the_keyword_the_benchmark_passes():
    sweep = next(n for n in TREE.body if isinstance(n, ast.ClassDef) and n.name == "Sweep")
    calls = [node for node in ast.walk(sweep) if isinstance(node, ast.Call)]
    passed = {keyword.arg for call in calls for keyword in call.keywords}
    assert "max_workers" in passed
    points = qbc.sweep(qbc.Commuting3D, [0.5], max_workers=1)
    assert [pt.family_param for pt in points] == [0.5]
