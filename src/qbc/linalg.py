"""Dense complex linear algebra over small Hilbert spaces.

Everything here works on plain ``numpy`` complex arrays; the thin frozen
dataclasses (:class:`PureState`, :class:`DensityOperator`,
:class:`BipartiteState`) validate their physics invariants on construction
and freeze the underlying buffers, so values are safe to share across
threads.

Index convention, fixed globally: the amplitude of a bipartite state at
(proof index p, token index t) sits at flat index ``p * dim_token + t``.
Equivalently, ``amplitudes.reshape(dim_proof, dim_token)[p, t]``.  Tensor
products, partial traces and one-sided unitaries below all assume this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

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


def _frozen_array(values, shape_check=None) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if shape_check is not None and arr.shape != shape_check:
        raise DimMismatch(f"expected shape {shape_check}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector.

    Construction rejects vectors whose norm is not finite (a NaN or
    infinite amplitude) or deviates from 1 by more than ``NORM_TOL``, and
    then renormalizes exactly, so downstream traces are clean to machine
    precision.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        norm = float(np.linalg.norm(arr))
        if not math.isfinite(norm) or abs(norm - 1.0) > NORM_TOL:
            raise NotNormalized(f"state norm {norm} not within {NORM_TOL} of 1")
        if abs(norm - 1.0) > 1e-12:  # idempotent: re-wrapping never shifts bits
            arr = arr / norm
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
        eigenvalues = np.linalg.eigvalsh(arr)
        if eigenvalues.min() < EIGENVALUE_FLOOR:
            raise NotPositiveSemidefinite(
                f"eigenvalue {eigenvalues.min()} below floor {EIGENVALUE_FLOOR}"
            )
        trace = complex(np.trace(arr))
        if abs(trace - 1.0) > NORM_TOL:
            raise NotNormalized(f"trace {trace} not within {NORM_TOL} of 1")
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


class SingularValueDecomposition(NamedTuple):
    left_vectors: np.ndarray
    singular_values: np.ndarray  # nonnegative, descending
    right_vectors: np.ndarray  # columns; m = W diag(s) V^dagger


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
        reduced = a @ a.conj().T
    elif keep == "token":
        reduced = a.T @ a.conj()
    else:
        raise ValueError(f"keep must be 'proof' or 'token', got {keep!r}")
    reduced = (reduced + reduced.conj().T) / 2.0
    return DensityOperator(reduced)


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


def svd(m: np.ndarray) -> SingularValueDecomposition:
    """Singular value decomposition m = W diag(s) V^dagger."""
    w, s, vh = np.linalg.svd(np.asarray(m, dtype=np.complex128))
    return SingularValueDecomposition(w, s, vh.conj().T)


def sqrt_psd(rho: DensityOperator) -> np.ndarray:
    """Positive square root of a density operator.

    Eigenvalues in [EIGENVALUE_FLOOR, 0) are clipped to 0 before the square
    root; anything more negative is rejected (the operator was not PSD in
    the first place).
    """
    eigenvalues, v = np.linalg.eigh(rho.matrix)
    if eigenvalues.min() < EIGENVALUE_FLOOR:
        raise NotPositiveSemidefinite(
            f"eigenvalue {eigenvalues.min()} below floor {EIGENVALUE_FLOOR}"
        )
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


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
