"""Dense complex linear algebra over small Hilbert spaces.

Everything here works on plain ``numpy`` complex arrays; the thin frozen
dataclasses (:class:`PureState`, :class:`DensityOperator`,
:class:`BipartiteState`) validate their physics invariants on construction
and freeze the underlying buffers, so values are safe to share: a
protocol keeps its states and its strategy tables and hands the same
arrays to every caller.

Each state invariant is one function here, which the single objects and
the stacked core of :mod:`qbc.protocol` both call: the norm rule
(:func:`normalize_states`), the density rule (:func:`check_spectra`), the
token reduction (:func:`token_reductions`) and the square-root floor
(:func:`sqrt_psd`).

Index convention, fixed globally: the amplitude of a bipartite state at
(proof index p, token index t) sits at flat index ``p * dim_token + t``.
Equivalently, ``amplitudes.reshape(dim_proof, dim_token)[p, t]``.  Tensor
products, partial traces and one-sided unitaries below all assume this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import (
    BadRank,
    DimMismatch,
    NotHermitian,
    NotNormalized,
    NotPositiveSemidefinite,
)

# Closed-form identities are checked at 1e-9.
NORM_TOL = 1e-9
HERMITIAN_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9

# Eigenvalues below this are eigensolver noise on a unit-trace operator;
# sqrt_psd zeroes them so sqrt(noise) cannot pollute fidelities.
SQRT_NOISE_FLOOR = 1e-13

Factor = Literal["proof", "token"]


def _unit_deviation(values: np.ndarray, name: str) -> float:
    """Largest |value - 1|; NotNormalized unless every value is finite and within NORM_TOL of 1."""
    deviation = np.abs(values - 1.0)
    worst = deviation.max(initial=0.0)
    if not worst <= NORM_TOL:  # a NaN compares False
        raise NotNormalized(f"{name} {values.flat[deviation.argmax()]} not within {NORM_TOL} of 1")
    return worst


def normalize_states(states: np.ndarray) -> np.ndarray:
    """The norm rule, applied to each row of a C-contiguous (count, dim) complex array.

    Every row's norm must be finite and within ``NORM_TOL`` of 1.  A row off
    by more than 1e-12 is rescaled in place to unit norm; any other keeps
    its bits, so re-checking a state never moves it.  A NaN, infinite or
    overflowing amplitude raises NotNormalized without a floating-point
    warning.  Returns ``states``.
    """
    parts = states.view(np.float64)  # real squares: inf * conj(inf) would warn
    largest = np.maximum.reduce(np.abs(parts), axis=None, initial=0.0)
    if largest > 2.0:  # no part of a unit vector exceeds 1; squaring 1e200 would overflow
        raise NotNormalized(f"state amplitude part {largest} cannot belong to a unit vector")
    norms = np.sqrt(np.add.reduce(parts * parts, axis=-1))
    if _unit_deviation(norms, "state norm") > 1e-12:
        off = np.abs(norms - 1.0) > 1e-12
        states[off] /= norms[off, None]
    return states


def check_spectra(eigenvalues: np.ndarray) -> None:
    """The density rule, on ascending spectra (..., dim) as ``eigvalsh`` returns them.

    No eigenvalue may lie below ``EIGENVALUE_FLOOR`` (NotPositiveSemidefinite)
    and each trace, the sum of a spectrum, must be within ``NORM_TOL`` of 1
    (NotNormalized).
    """
    lowest = eigenvalues[..., 0].min()
    if lowest < EIGENVALUE_FLOOR:
        raise NotPositiveSemidefinite(f"eigenvalue {lowest} below floor {EIGENVALUE_FLOOR}")
    _unit_deviation(eigenvalues.sum(axis=-1), "trace")


def token_reductions(amplitudes: np.ndarray) -> np.ndarray:
    """Token reductions (A^T A^* + h.c.)/2 of a stack of (..., dim_proof, dim_token) matrices A."""
    reduced = np.swapaxes(amplitudes, -2, -1) @ amplitudes.conj()
    return (reduced + np.swapaxes(reduced, -2, -1).conj()) / 2.0


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector.

    Construction applies the norm rule of :func:`normalize_states`, so
    downstream traces are clean to machine precision.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = normalize_states(np.array(self.amplitudes, dtype=np.complex128).reshape(1, -1))[0]
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimMismatch(f"density operator must be square, got {arr.shape}")
        herm_dev = float(np.max(np.abs(arr - arr.conj().T)))
        if herm_dev > HERMITIAN_TOL:
            raise NotHermitian(f"Hermiticity deviation {herm_dev} exceeds {HERMITIAN_TOL}")
        check_spectra(np.linalg.eigvalsh(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BipartiteState:
    """Pure state on proof ⊗ token with the fixed flat-index convention."""

    dim_proof: int
    dim_token: int
    state: PureState = field()

    def __post_init__(self):
        if self.dim_proof < 1 or self.dim_token < 1:
            raise DimMismatch("factor dimensions must be positive")
        if self.state.dim != self.dim_proof * self.dim_token:
            raise DimMismatch(
                f"state dim {self.state.dim} != {self.dim_proof} x {self.dim_token}"
            )

    @property
    def amplitudes(self) -> np.ndarray:
        return self.state.amplitudes

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (dim_proof, dim_token)."""
        return self.amplitudes.reshape(self.dim_proof, self.dim_token)


def basis_state(dim: int, index: int) -> PureState:
    """Computational basis vector |index> in the given dimension."""
    amp = np.zeros(dim, dtype=np.complex128)
    amp[index] = 1.0
    return PureState(amp)


def bipartite(dim_proof: int, dim_token: int, amplitudes) -> BipartiteState:
    return BipartiteState(dim_proof, dim_token, PureState(amplitudes))


def projector(psi: PureState) -> np.ndarray:
    """Rank-1 projector |psi><psi|."""
    v = psi.amplitudes
    return np.outer(v, v.conj())


def density_from_pure(psi: PureState) -> DensityOperator:
    return DensityOperator(projector(psi))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; row/column indices compose as (i_a * dim_b + i_b)."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def partial_trace(state: BipartiteState, keep: Factor) -> DensityOperator:
    """Reduced density operator of one factor of a bipartite pure state."""
    a = state.as_matrix()
    if keep == "proof":
        a = a.T  # the proof reduction is the token reduction of A^T
    elif keep != "token":
        raise ValueError(f"keep must be 'proof' or 'token', got {keep!r}")
    return DensityOperator(token_reductions(a))


def apply_to_proof(u: np.ndarray, state: BipartiteState) -> BipartiteState:
    """Apply (u ⊗ I) to the proof factor."""
    a = state.as_matrix()
    if u.shape != (state.dim_proof, state.dim_proof):
        raise DimMismatch(f"unitary shape {u.shape} does not act on proof dim {state.dim_proof}")
    return bipartite(state.dim_proof, state.dim_token, (u @ a).reshape(-1))


def apply_to_token(u: np.ndarray, state: BipartiteState) -> BipartiteState:
    """Apply (I ⊗ u) to the token factor."""
    a = state.as_matrix()
    if u.shape != (state.dim_token, state.dim_token):
        raise DimMismatch(f"unitary shape {u.shape} does not act on token dim {state.dim_token}")
    return bipartite(state.dim_proof, state.dim_token, (a @ u.T).reshape(-1))


def sqrt_psd(rho: DensityOperator) -> np.ndarray:
    """Positive square root of a density operator.

    The spectrum must pass :func:`check_spectra`; eigenvalues below
    ``SQRT_NOISE_FLOOR`` are then zeroed before the square root.  This is
    the one place that floor is applied.
    """
    eigenvalues, v = np.linalg.eigh(rho.matrix)
    check_spectra(eigenvalues)
    clipped = np.where(eigenvalues < SQRT_NOISE_FLOOR, 0.0, eigenvalues)
    return (v * np.sqrt(clipped)) @ v.conj().T


def random_pure_state(dim: int, seed) -> PureState:
    """Haar-uniform pure state: normalized vector of iid complex Gaussians."""
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(vec / np.linalg.norm(vec))


def random_density(dim: int, rank: int, seed) -> DensityOperator:
    """Random density operator of the given rank.

    Obtained as the reduced state of a Haar-uniform pure state on a
    dim ⊗ rank space, which for rank = dim is the Hilbert-Schmidt measure.
    """
    if not 1 <= rank <= dim:
        raise BadRank(f"rank must satisfy 1 <= rank <= {dim}, got {rank}")
    purification = BipartiteState(dim, rank, random_pure_state(dim * rank, seed))
    return partial_trace(purification, keep="proof")
