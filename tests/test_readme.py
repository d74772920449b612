"""The README's library tour runs as written and states true values."""

from __future__ import annotations

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    """The python block under the README's "Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library tour\n+```python\n(.*?)^```$", text, re.S | re.M)
    assert match, "README has no Library tour python block"
    return match.group(1)


def test_library_tour_runs_and_matches_its_comments():
    namespace: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(library_tour(), str(README), "exec"), namespace)
    qbc = namespace["qbc"]
    report, kit = namespace["report"], namespace["kit"]
    assert abs(report.g_max - 0.15) <= 1e-12
    assert abs(report.c_max - 0.35) <= 1e-12
    assert abs(kit.per_bit_success - 0.85) <= 1e-12
    assert abs(namespace["g"] - 0.25) <= 1e-12
    bias = qbc.biases(namespace["ct"])
    assert abs(bias.alpha - 0.25) <= 1e-12
    assert abs(bias.beta - 0.25) <= 1e-12
