"""Concealment/bindingness trade-off curves and the families that trace them.

Three one-parameter protocol families are built here, chosen so their
honest token reductions realize the extreme cases of the distance/fidelity
inequalities:

* ``Commuting3D(lam)`` -- commuting rank-2 mixtures in dimension 3 with
  D = lam, F = 1 - lam; sweeps the line g + c = 1/2 (curve II).
* ``QubitPureMixed(lam)`` -- a pure state against a commuting qubit mixture
  with D = 1 - lam, F = sqrt(lam); sweeps g + 2 c^2 = 1/2 (curve III).
* ``PurePair(phi)`` -- two pure token states at angle phi with D = sin(phi),
  F = cos(phi); sweeps g^2 + c^2 = 1/4 (curve IV).

Curve I, (1 - 2g)^2 / 2, is the universal lower bound no protocol can
drop below; ``check_bounds`` flags points that would.

Each family purifies its target reductions with orthogonal proof-side
supports, which makes <chi0|chi1> = 0 automatic for every parameter value
and uses the smallest proof dimension that allows it.  One function lays
out the amplitudes of a whole stack of family members; a single protocol
is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ParamOutOfRange
from .linalg import bipartite
from .protocol import PurificationProtocol, checked_stacks, distance_fidelity, make_protocol

BOUND_TOL = 1e-9

# Members a sweep passes to the stacked core per call; peak memory is O(chunk).
SWEEP_CHUNK_POINTS = 1 << 12


@dataclass(frozen=True)
class Commuting3D:
    """Commuting 3-dimensional reductions diag(lam, 1-lam, 0) / diag(0, 1-lam, lam)."""

    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ParamOutOfRange(f"lam must lie in [0, 1], got {self.lam}")


@dataclass(frozen=True)
class QubitPureMixed:
    """Pure diag(1, 0) against the qubit mixture diag(lam, 1-lam)."""

    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ParamOutOfRange(f"lam must lie in [0, 1], got {self.lam}")


@dataclass(frozen=True)
class PurePair:
    """Two pure token states |0> and cos(phi)|0> + sin(phi)|1>."""

    phi: float

    def __post_init__(self):
        if not 0.0 <= self.phi <= math.pi / 2.0 + 1e-12:
            raise ParamOutOfRange(f"phi must lie in [0, pi/2], got {self.phi}")


ProtocolFamily = Union[Commuting3D, QubitPureMixed, PurePair]

FAMILY_KINDS: dict[str, Callable[[float], ProtocolFamily]] = {
    "commuting3d": Commuting3D,
    "qubit-pure-mixed": QubitPureMixed,
    "pure-pair": PurePair,
}


def _amplitude_stacks(members: Sequence[ProtocolFamily]) -> tuple[np.ndarray, np.ndarray]:
    """(chi0, chi1) of members of one family as (n, dim_proof, dim_token) amplitudes."""
    kind = type(members[0])
    if any(type(m) is not kind for m in members):
        raise TypeError("a stack holds members of one family")
    n = len(members)
    if kind is Commuting3D:
        lam = np.array([m.lam for m in members])
        a0 = np.zeros((n, 4, 3), dtype=np.complex128)
        a1 = np.zeros((n, 4, 3), dtype=np.complex128)
        a0[:, 0, 0] = np.sqrt(lam)
        a0[:, 1, 1] = np.sqrt(1.0 - lam)
        a1[:, 2, 2] = np.sqrt(lam)
        a1[:, 3, 1] = np.sqrt(1.0 - lam)
    elif kind is QubitPureMixed:
        lam = np.array([m.lam for m in members])
        a0 = np.zeros((n, 3, 2), dtype=np.complex128)
        a1 = np.zeros((n, 3, 2), dtype=np.complex128)
        a0[:, 0, 0] = 1.0
        a1[:, 1, 0] = np.sqrt(lam)
        a1[:, 2, 1] = np.sqrt(1.0 - lam)
    elif kind is PurePair:
        phi = np.array([m.phi for m in members])
        a0 = np.zeros((n, 2, 2), dtype=np.complex128)
        a1 = np.zeros((n, 2, 2), dtype=np.complex128)
        a0[:, 0, 0] = 1.0
        a1[:, 1, 0] = np.cos(phi)
        a1[:, 1, 1] = np.sin(phi)
    else:
        raise TypeError(f"unknown family {members[0]!r}")
    return a0, a1


def family_protocol(family: ProtocolFamily) -> PurificationProtocol:
    """Build the purification protocol realizing a family member's reductions."""
    a0, a1 = _amplitude_stacks([family])
    dim_proof, dim_token = a0.shape[1:]
    return make_protocol(
        bipartite(dim_proof, dim_token, a0[0].reshape(-1)),
        bipartite(dim_proof, dim_token, a1[0].reshape(-1)),
    )


class Curve(Enum):
    """The four reference curves in the (g_max, c_max) plane."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


@dataclass(frozen=True)
class TradeoffPoint:
    g_max: float
    c_max: float
    family_param: float

    def __post_init__(self):
        for label, value in (("g_max", self.g_max), ("c_max", self.c_max)):
            if not -BOUND_TOL <= value <= 0.5 + BOUND_TOL:
                raise ParamOutOfRange(f"{label} = {value} outside [0, 1/2]")


def sweep(
    family_kind: Callable[[float], ProtocolFamily],
    params: Sequence[float],
    max_workers: int | None = None,
) -> list[TradeoffPoint]:
    """Evaluate (g_max, c_max) for every parameter of one family.

    The members' amplitudes are built as stacks of up to
    ``SWEEP_CHUNK_POINTS``, each validated once and passed through
    :func:`~qbc.protocol.distance_fidelity` in a single call, so a sweep
    costs two decompositions per chunk and its working arrays never hold
    more than one chunk.  Each point equals
    ``security_report(family_protocol(family_kind(param)))`` bit for bit;
    points are returned in the order of ``params``.  ``max_workers`` is
    accepted for callers of the former thread pool and ignored.
    """
    params = list(params)
    points = []
    for start in range(0, len(params), SWEEP_CHUNK_POINTS):
        chunk = params[start : start + SWEEP_CHUNK_POINTS]
        a0, a1 = checked_stacks(*_amplitude_stacks([family_kind(x) for x in chunk]))
        d, f = distance_fidelity(a0, a1)
        points += [
            TradeoffPoint(g, c, x) for g, c, x in zip((d / 2.0).tolist(), (f / 2.0).tolist(), chunk)
        ]
    return points


def uniform_grid(family_kind: Callable[[float], ProtocolFamily], n_points: int) -> list[float]:
    """n_points uniformly spaced parameters spanning the family's full range."""
    if n_points < 2:
        raise ParamOutOfRange("need at least 2 grid points")
    upper = math.pi / 2.0 if family_kind is PurePair else 1.0
    return [upper * i / (n_points - 1) for i in range(n_points)]


def curve_value(curve: Curve, g_max: float) -> float:
    """Height c(g) of a reference curve, clamped to 0 past its intercept."""
    if not -BOUND_TOL <= g_max <= 0.5 + BOUND_TOL:
        raise ParamOutOfRange(f"g_max = {g_max} outside [0, 1/2]")
    g = min(max(g_max, 0.0), 0.5)
    if curve is Curve.I:
        return (1.0 - 2.0 * g) ** 2 / 2.0
    if curve is Curve.II:
        return 0.5 - g
    if curve is Curve.III:
        return math.sqrt((0.5 - g) / 2.0)
    if curve is Curve.IV:
        return math.sqrt(max(0.0, 0.25 - g * g))
    raise TypeError(f"unknown curve {curve!r}")


def fair_point(curve: Curve) -> float:
    """The g = c point of a curve, in closed form.

    Curve I:  g solves 2 g = (1 - 2g)^2, i.e. g = (3 - sqrt(5)) / 4.
    Curve II: g = 1/4.
    Curve III: g solves 2 g^2 + g = 1/2, i.e. g = (sqrt(5) - 1) / 4.
    Curve IV: g = 1 / (2 sqrt(2)).
    """
    if curve is Curve.I:
        return (3.0 - math.sqrt(5.0)) / 4.0
    if curve is Curve.II:
        return 0.25
    if curve is Curve.III:
        return (math.sqrt(5.0) - 1.0) / 4.0
    if curve is Curve.IV:
        return 1.0 / (2.0 * math.sqrt(2.0))
    raise TypeError(f"unknown curve {curve!r}")


def curve_i_slack(g_max: float, c_max: float) -> float:
    """2 g + sqrt(2 c) - 1: how far (g, c) lies above curve I; every protocol has it >= 0."""
    return 2.0 * g_max + math.sqrt(max(0.0, 2.0 * c_max)) - 1.0


def check_bounds(point: TradeoffPoint) -> list[str]:
    """Flag points in the impossible region below curve I.

    Every realizable protocol satisfies 2 g + sqrt(2 c) >= 1; a returned
    entry names the violated bound and its shortfall.
    """
    slack = curve_i_slack(point.g_max, point.c_max)
    if slack < -BOUND_TOL:
        return [f"below_curve_I: 2*gMax + sqrt(2*cMax) - 1 = {slack:.6g} < 0"]
    return []
