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
and uses the smallest proof dimension that allows it.  One table row per
family holds its command-line name, parameter range and amplitude layout: a
whole parameter array is checked against the range at once, and a whole
stack of members is laid out straight from it; a protocol is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ParamOutOfRange
from .linalg import TOL, _checked_integer, bipartite
from .protocol import PurificationProtocol, checked_stacks, distance_fidelity

# Members a sweep passes to the stacked core per call; peak memory is O(chunk).
SWEEP_CHUNK_POINTS = 1 << 12


@dataclass(frozen=True)
class ProtocolFamily:
    """A member of one of the families below, whose one field is the family parameter.

    Construction refuses a parameter outside the family's range, or a kind
    with no row in the family table, with ``ParamOutOfRange``.
    """

    def __post_init__(self):
        _checked_params(type(self), [getattr(self, f.name) for f in fields(self)])


@dataclass(frozen=True)
class Commuting3D(ProtocolFamily):
    """Commuting 3-dimensional reductions diag(lam, 1-lam, 0) / diag(0, 1-lam, lam)."""

    lam: float


@dataclass(frozen=True)
class QubitPureMixed(ProtocolFamily):
    """Pure diag(1, 0) against the qubit mixture diag(lam, 1-lam)."""

    lam: float


@dataclass(frozen=True)
class PurePair(ProtocolFamily):
    """Two pure token states |0> and cos(phi)|0> + sin(phi)|1>."""

    phi: float


class _Family(NamedTuple):
    name: str  # on the command line
    label: str  # the range as messages print it
    upper: float  # top of the uniform grid
    high: float  # largest value accepted
    dims: tuple[int, int]  # (dim_proof, dim_token)
    layout: Callable[[np.ndarray], dict]  # x -> {(bit, proof, token): chi_bit there}; others 0


_FAMILIES: dict[type, _Family] = {
    Commuting3D: _Family(
        "commuting3d", "[0, 1]", 1.0, 1.0, (4, 3),
        lambda x: {(0, 0, 0): np.sqrt(x), (0, 1, 1): np.sqrt(1.0 - x),
                   (1, 2, 2): np.sqrt(x), (1, 3, 1): np.sqrt(1.0 - x)},
    ),
    QubitPureMixed: _Family(
        "qubit-pure-mixed", "[0, 1]", 1.0, 1.0, (3, 2),
        lambda x: {(0, 0, 0): 1.0, (1, 1, 0): np.sqrt(x), (1, 2, 1): np.sqrt(1.0 - x)},
    ),
    PurePair: _Family(
        "pure-pair", "[0, pi/2]", math.pi / 2.0, math.pi / 2.0 + 1e-12, (2, 2),
        lambda x: {(0, 0, 0): 1.0, (1, 1, 0): np.cos(x), (1, 1, 1): np.sin(x)},
    ),
}

FAMILY_KINDS: dict[str, Callable[[float], ProtocolFamily]] = {f.name: k for k, f in _FAMILIES.items()}


def _family(kind) -> _Family:
    try:
        return _FAMILIES[kind]
    except (KeyError, TypeError):
        raise ParamOutOfRange(f"unknown family {kind!r}") from None


_REALS = (int, float, np.integer, np.floating)
_BOOLS = frozenset({bool, np.bool_})


def _checked_params(kind, params: Sequence) -> np.ndarray:
    """``params`` as a float64 array, refused unless every entry lies in ``kind``'s range.

    A non-real entry (a bool, a string, a complex number, None) and NaN are
    out of range; the message names the field and the first entry refused.
    """
    family = _family(kind)
    try:
        values = np.asarray(params)
    except ValueError:  # a ragged nesting
        values = np.asarray(params, dtype=object)
    # NumPy reads a bool among numbers as 0.0 or 1.0, so the entries' types are read too.
    if values.ndim == 1 and values.dtype.kind in "iuf" and _BOOLS.isdisjoint(map(type, params)):
        values = values.astype(np.float64, copy=False)
        if ((values >= 0.0) & (values <= family.high)).all():
            return values
    refused = next(
        (x for x in params
         if not (isinstance(x, _REALS) and type(x) not in _BOOLS and 0.0 <= x <= family.high)),
        params,
    )
    raise ParamOutOfRange(f"{fields(kind)[0].name} must lie in {family.label}, got {refused}")


def _amplitudes(family: _Family, x: np.ndarray) -> np.ndarray:
    """chi0 and chi1 of the members ``x`` as one (2, len(x), dim_proof, dim_token) array.

    ``x`` is a float64 array of checked parameters (:func:`_checked_params`);
    the amplitudes are laid out from it directly, with no member objects.
    """
    a = np.zeros((2, x.shape[0], *family.dims), dtype=np.complex128)
    for (bit, p, t), values in family.layout(x).items():
        a[bit, :, p, t] = values
    return a


def family_protocol(family: ProtocolFamily) -> PurificationProtocol:
    """Build the purification protocol realizing a family member's reductions."""
    row = _family(type(family))  # before fields(), which a non-member would fail
    (field,) = fields(family)
    a = _amplitudes(row, np.array([getattr(family, field.name)], dtype=np.float64))
    return PurificationProtocol(*(bipartite(*row.dims, chi.reshape(-1)) for chi in a[:, 0]))


class Curve(Enum):
    """The four reference curves in the (g_max, c_max) plane.

    Curve III, g + 2 c^2 = 1/2 (D + F^2 = 1), is the exact frontier of
    qubit tokens: every protocol with dim_token = 2 has D + F^2 >= 1, with
    equality only when rho0 = rho1, or when one reduction is pure and the
    other's Bloch vector lies on the line through the pure one's and the
    origin (``QubitPureMixed`` up to rotation).  The README's conventions
    sketch the proof.  The least dims that reach each curve:

    * dim_proof = 1: one point, (D, F) = (1, 0).  Both states are products,
      so orthogonality forces orthogonal pure tokens.
    * dim_token = 2: never below curve III, which is first reached at 2x2
      (chi0 = |0>|0>, chi1 = √λ|1>|0> + √(1-λ)|0>|1>: D = 1 - λ, F = √λ).
    * dim_proof >= 2 and dim_token >= 3: curve II is first reached at 2x3
      (chi0 = √λ|0>|0> + √(1-λ)|1>|1>, chi1 = √λ|1>|2> + √(1-λ)|0>|1>:
      D = λ, F = 1 - λ).

    The families use more proof dims than their curves need: ``Commuting3D``
    is 4x3 and ``QubitPureMixed`` 3x2.
    """

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


def _checked_box(**values) -> None:
    """Refuse a ``g_max`` or ``c_max`` outside [0, 1/2] by more than ``TOL``, NaN included.

    Each keyword names a coordinate and gives a scalar or an array; the
    message names the first value refused.
    """
    for name, v in values.items():
        inside = (v >= -TOL) & (v <= 0.5 + TOL)
        if inside is not True and not np.all(inside):  # a float's bool skips the slow np.all
            refused = v if np.ndim(v) == 0 else v[~inside][0]
            raise ParamOutOfRange(f"{name} = {refused} outside [0, 1/2]")


class _TradeoffFields(NamedTuple):
    g_max: float
    c_max: float
    family_param: float


class TradeoffPoint(_TradeoffFields):
    """A family member's (g_max, c_max) and its parameter, as a named 3-tuple.

    Every way to build one from values (positional or keyword arguments,
    ``_make``, ``_replace``, ``pickle``, ``copy``) refuses, with
    ``ParamOutOfRange``, a ``g_max`` or ``c_max`` outside [0, 1/2] by more
    than ``TOL``, NaN included (:func:`_checked_box`).  It unpacks to
    ``(g, c, x)`` and equals and hashes as the plain tuple of its values.
    """

    __slots__ = ()

    def __new__(cls, g_max: float, c_max: float, family_param: float):
        _checked_box(g_max=g_max, c_max=c_max)
        return tuple.__new__(cls, (g_max, c_max, family_param))

    # The namedtuple _make, which _replace calls, builds with tuple.__new__
    # and would skip the check.
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def sweep(
    family_kind: Callable[[float], ProtocolFamily],
    params: Sequence[float],
    max_workers: int | None = None,
) -> list[TradeoffPoint]:
    """Evaluate (g_max, c_max) for every parameter of one family.

    The whole parameter array is checked against the family's range at
    once; then the members' amplitudes are laid out straight from it, in
    stacks of up to ``SWEEP_CHUNK_POINTS``, each validated once and passed
    through :func:`~qbc.protocol.distance_fidelity` in a single call.  A
    chunk's ``g = D/2`` and ``c = F/2`` arrays pass the box check of
    :class:`TradeoffPoint` in one vectorised call, and its points are then
    built as tuples with no Python call per point.  No family member
    object is built, a ``Commuting3D`` sweep costs two decompositions per
    chunk and a qubit-token sweep none, and the working arrays, the float64
    parameter array aside, never hold more than one chunk.  Each point equals
    ``security_report(family_protocol(family_kind(param)))`` bit for bit
    and holds the caller's ``param`` object; points are returned in the
    order of ``params``.  ``max_workers`` is accepted for callers of the
    former thread pool and ignored.
    """
    params = list(params)
    x = _checked_params(family_kind, params)
    family = _family(family_kind)
    points = []
    for start in range(0, len(params), SWEEP_CHUNK_POINTS):
        stop = start + SWEEP_CHUNK_POINTS
        d, f = distance_fidelity(checked_stacks(_amplitudes(family, x[start:stop])))
        g, c = d / 2.0, f / 2.0
        _checked_box(g_max=g, c_max=c)
        rows = zip(g.tolist(), c.tolist(), params[start:stop])
        points += map(tuple.__new__, repeat(TradeoffPoint), rows)
    return points


def uniform_grid(family_kind: Callable[[float], ProtocolFamily], n_points: int) -> list[float]:
    """n_points uniformly spaced parameters spanning the family's full range."""
    upper = _family(family_kind).upper
    n_points = _checked_integer(n_points, "the grid point count", 0)
    if n_points < 2:
        raise ParamOutOfRange("need at least 2 grid points")
    return [upper * i / (n_points - 1) for i in range(n_points)]


# Each curve's height c(g) on [0, 1/2], and its fair point: the g where c(g) = g.
_CURVES: dict[Curve, tuple[Callable[[float], float], float]] = {
    Curve.I: (lambda g: (1.0 - 2.0 * g) ** 2 / 2.0, (3.0 - math.sqrt(5.0)) / 4.0),
    Curve.II: (lambda g: 0.5 - g, 0.25),
    Curve.III: (lambda g: math.sqrt((0.5 - g) / 2.0), (math.sqrt(5.0) - 1.0) / 4.0),
    Curve.IV: (lambda g: math.sqrt(max(0.0, 0.25 - g * g)), 1.0 / (2.0 * math.sqrt(2.0))),
}


def _curve(curve: Curve) -> tuple[Callable[[float], float], float]:
    try:
        return _CURVES[curve]
    except (KeyError, TypeError):
        raise TypeError(f"unknown curve {curve!r}") from None


def curve_value(curve: Curve, g_max: float) -> float:
    """Height c(g) of a reference curve, clamped to 0 past its intercept."""
    _checked_box(g_max=g_max)
    return _curve(curve)[0](min(max(g_max, 0.0), 0.5))


def fair_point(curve: Curve) -> float:
    """The g = c point of a curve, in closed form.

    Curve I:  g solves 2 g = (1 - 2g)^2, i.e. g = (3 - sqrt(5)) / 4.
    Curve II: g = 1/4.
    Curve III: g solves 2 g^2 + g = 1/2, i.e. g = (sqrt(5) - 1) / 4.
    Curve IV: g = 1 / (2 sqrt(2)).
    """
    return _curve(curve)[1]


def curve_i_slack(g_max: float, c_max: float) -> float:
    """2 g + sqrt(2 c) - 1: how far (g, c) lies above curve I; every protocol has it >= 0."""
    return 2.0 * g_max + math.sqrt(max(0.0, 2.0 * c_max)) - 1.0


def check_bounds(point: TradeoffPoint) -> list[str]:
    """Flag points in the impossible region below curve I.

    Every realizable protocol satisfies 2 g + sqrt(2 c) >= 1; a returned
    entry names the violated bound and its shortfall.
    """
    slack = curve_i_slack(point.g_max, point.c_max)
    if slack < -TOL:
        return [f"below_curve_I: 2*gMax + sqrt(2*cMax) - 1 = {slack:.6g} < 0"]
    return []
