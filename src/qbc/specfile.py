"""Reading and writing protocol spec files.

A spec file is JSON:

    {
      "schemaVersion": 1,
      "dimProof": 3,
      "dimToken": 2,
      "chi0": [[re, im], ...],   # dimProof * dimToken entries,
      "chi1": [[re, im], ...]    # flat index = proof * dimToken + token
    }

All numbers are emitted with 17 significant digits, which round-trips
IEEE doubles exactly, so a file written by the tool re-parses to the very
same protocol and identical invocations produce byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import QbcError
from .linalg import _is_integer, bipartite
from .protocol import PurificationProtocol

SCHEMA_VERSION = 1


class SpecFileError(QbcError):
    """Spec file is structurally malformed (bad JSON, keys, or shapes)."""


def format_float(value: float) -> str:
    """Decimal form with 17 significant digits (round-trip exact)."""
    return format(float(value), ".17g")


def dumps_deterministic(obj) -> str:
    """JSON text with fixed key order and 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {dumps_deterministic(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_deterministic(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _amplitude_pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def protocol_to_spec(p: PurificationProtocol) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "dimProof": p.dim_proof,
        "dimToken": p.dim_token,
        "chi0": _amplitude_pairs(p.chi0.amplitudes),
        "chi1": _amplitude_pairs(p.chi1.amplitudes),
    }


def write_protocol_spec(p: PurificationProtocol, path: str | Path) -> None:
    Path(path).write_text(dumps_deterministic(protocol_to_spec(p)) + "\n", encoding="utf-8")


def _parse_amplitudes(entries, dim: int, label: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != dim:
        raise SpecFileError(f"{label} must be a list of {dim} [re, im] pairs")
    vec = np.empty(dim, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecFileError(f"{label}[{i}] must be a [re, im] pair")
        if not all(_is_integer(x) or isinstance(x, float) for x in pair):  # a bool is not a number
            raise SpecFileError(f"{label}[{i}] holds a non-number")
        try:
            vec[i] = complex(float(pair[0]), float(pair[1]))
        except OverflowError as exc:  # an integer literal beyond the float range
            raise SpecFileError(f"{label}[{i}] holds a number outside the float range") from exc
    return vec


def parse_protocol_spec(source: str | Path | dict) -> PurificationProtocol:
    """Load and validate a spec file (or an already-decoded document).

    Raises :class:`SpecFileError` for structural problems and the specific
    invariant error (NotNormalized, NotOrthogonal, DimMismatch, ...) when
    the document parses but does not describe a valid protocol.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except OSError as exc:
            raise SpecFileError(f"cannot read {source}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecFileError(f"invalid JSON in {source}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError("top level must be a JSON object")
    version = doc.get("schemaVersion")
    if not _is_integer(version) or version != SCHEMA_VERSION:
        raise SpecFileError(f"unsupported schemaVersion {version!r}")
    for key in ("dimProof", "dimToken", "chi0", "chi1"):
        if key not in doc:
            raise SpecFileError(f"missing key {key!r}")
    dim_proof, dim_token = doc["dimProof"], doc["dimToken"]
    if not (_is_integer(dim_proof) and _is_integer(dim_token)):
        raise SpecFileError("dimProof and dimToken must be integers")
    if dim_proof < 1 or dim_token < 1 or dim_proof * dim_token > 64:
        raise SpecFileError(f"dims {dim_proof} x {dim_token} outside the supported range (<= 64)")
    dim = dim_proof * dim_token
    chi0 = _parse_amplitudes(doc["chi0"], dim, "chi0")
    chi1 = _parse_amplitudes(doc["chi1"], dim, "chi1")
    return PurificationProtocol(
        bipartite(dim_proof, dim_token, chi0),
        bipartite(dim_proof, dim_token, chi1),
    )
