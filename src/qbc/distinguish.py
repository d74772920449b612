"""Distinguishability measures on density operators and their optimizers.

Implements the trace distance D(rho, sigma) = (1/2) Tr|rho - sigma|, the
fidelity F(rho, sigma) = Tr|sqrt(rho) sqrt(sigma)|, the Helstrom measurement
that discriminates two equiprobable states with success (1 + D)/2, and
Uhlmann's construction (:func:`aligned_superposition`): align two
purifications so their overlap reaches F, then superpose them.  It builds
Alice's optimal cheat and a state achieving the exact maximum of
F(rho, sigma)^2 + F(rho, omega)^2 over rho.

For qubits, the Bloch-vector forms are provided:
    D = |r - s| / 2
    F^2 = (1 + r.s + sqrt((1 - |r|^2)(1 - |s|^2))) / 2
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotQubit, ParamOutOfRange
from .linalg import (
    TOL,
    BipartiteState,
    DensityOperator,
    normalize_states,
    sqrt_psd,
    token_reductions,
)

# Eigenvectors of rho0 - rho1 whose eigenvalue is within this of zero are
# assigned to projector0; any assignment is optimal, one is deterministic.
ZERO_EIGENVALUE_TOL = 1e-10

# A Bloch purity gap 1 - |r|^2 below this is rounding noise on a pure
# state; the square root in the fidelity formula would amplify it to
# ~1e-8, so it is snapped to zero first.
PURITY_GAP_FLOOR = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _check_same_dim(rho: DensityOperator, sigma: DensityOperator) -> None:
    if rho.dim != sigma.dim:
        raise DimMismatch(f"operator dims differ: {rho.dim} vs {sigma.dim}")


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """D(rho, sigma) = (1/2) sum |eigenvalues of rho - sigma|."""
    _check_same_dim(rho, sigma)
    eigenvalues = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.clip(0.5 * np.abs(eigenvalues).sum(), 0.0, 1.0))


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """F(rho, sigma) = sum of singular values of sqrt(rho) sqrt(sigma).

    The square roots are :func:`~qbc.linalg.sqrt_psd`'s, which zero every
    eigenvalue below ``SQRT_NOISE_FLOOR = 1e-13``, so overlap carried by
    such eigenvalues is lost: on the honest reductions of
    ``QubitPureMixed(1e-14)`` this reads 0.0 where F is 1e-7, and on
    ``QubitPureMixed(1e-13)`` 0.0 against 3.16e-7.  Beyond rounding that
    is the only error: the result is the F of rho and sigma with those
    eigenvalues zeroed, at most sqrt(w_rho) + sqrt(w_sigma) below F, where
    w is the weight zeroed.  On known-answer protocols it was within 2.4e-15
    of that floored F, and so of F wherever no eigenvalue lies in
    (0, 1e-13), exact zeros included.  For a protocol's own F use
    :func:`~qbc.protocol.security_report`, whose Uhlmann route takes no
    square root and has no floor.
    """
    _check_same_dim(rho, sigma)
    product = sqrt_psd(rho) @ sqrt_psd(sigma)
    singular_values = np.linalg.svd(product, compute_uv=False)
    return float(np.clip(singular_values.sum(), 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class HelstromMeasurement:
    """Optimal two-outcome discrimination of two equiprobable states.

    projector0 spans the nonnegative eigenspace of rho0 - rho1 (zero
    eigenvalues included), projector1 the rest; success_probability is
    (1 + D(rho0, rho1)) / 2.
    """

    projector0: np.ndarray
    projector1: np.ndarray
    success_probability: float


def helstrom(rho0: DensityOperator, rho1: DensityOperator) -> HelstromMeasurement:
    """Construct the Helstrom measurement for (rho0, rho1) with equal priors."""
    _check_same_dim(rho0, rho1)
    delta = rho0.matrix - rho1.matrix
    eigenvalues, vectors = np.linalg.eigh(delta)
    positive = vectors[:, eigenvalues >= -ZERO_EIGENVALUE_TOL]
    projector0 = positive @ positive.conj().T
    projector0 = (projector0 + projector0.conj().T) / 2.0
    projector1 = np.eye(rho0.dim, dtype=np.complex128) - projector0
    distance = np.clip(0.5 * np.abs(eigenvalues).sum(), 0.0, 1.0)
    return HelstromMeasurement(projector0, projector1, float((1.0 + distance) / 2.0))


@dataclass(frozen=True, eq=False)
class ParallelPurificationResult:
    """Outcome of aligning one purification with another.

    ``maximizing_unitary`` U acts on the proof factor; applying it to the
    second state makes the overlap with the first real, nonnegative and
    equal to ``overlap``, which in turn equals the fidelity of the two
    token reductions.
    """

    overlap: float
    maximizing_unitary: np.ndarray


def max_parallel_overlap(psi: BipartiteState, chi: BipartiteState) -> ParallelPurificationResult:
    """Maximize |<psi| (U ⊗ I) |chi>| over proof-side unitaries U.

    With amplitudes as proof x token matrices, the overlap is
    |Tr(U A_chi A_psi^dagger)|; its maximum over unitary U is the sum of
    singular values of M = A_chi A_psi^dagger, attained at the
    :func:`polar_unitary` of M, whose phase makes the achieved overlap real
    and nonnegative.
    """
    if (psi.dim_proof, psi.dim_token) != (chi.dim_proof, chi.dim_token):
        raise DimMismatch(
            f"bipartite dims differ: {psi.dim_proof}x{psi.dim_token}"
            f" vs {chi.dim_proof}x{chi.dim_token}"
        )
    unitary, overlap = polar_unitary(chi.as_matrix() @ psi.as_matrix().conj().T)
    return ParallelPurificationResult(float(np.clip(overlap, 0.0, 1.0)), unitary)


def polar_unitary(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The U maximizing |Tr(U m)|, and that maximum (the nuclear norm of m).

    With m = W diag(s) V^dagger, U = V W^dagger makes Tr(U m) = sum(s),
    real and nonnegative.  U is unitary for a square m and an isometry
    otherwise.  A stack (..., rows, cols) gives the stack of U and of
    nuclear norms, each bit for bit what its matrix gives alone, from one
    ``svd`` call.
    """
    w, s, vh = np.linalg.svd(m, full_matrices=False)
    return vh.mT.conj() @ w.mT.conj(), s.sum(axis=-1)


def phase_aligned_sum(phi0: np.ndarray, phi1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized phi0 + e^{-i arg c} phi1 with c = <phi0|phi1>, and |c|.

    The phase makes both terms add in step, so the sum has norm^2
    2 + 2|c| for unit vectors; it is 1 when c vanishes (|c| <= 1e-12).
    Stacks (..., dim) are taken row by row, each row bit for bit as alone.
    """
    c = np.vecdot(phi0, phi1)
    re, im = c.real, c.imag
    overlap = np.hypot(re, im)  # as abs() takes one complex number; np.abs may differ by an ulp
    angle = np.arctan2(im, re) * (overlap > 1e-12)  # zero, so phase one, where c vanishes
    phase = np.exp(angle * -1j)
    vec = phi0 + phase[..., None] * phi1
    # Each row's norm, summed as np.linalg.norm sums one vector's: real parts, then imaginary.
    norm = np.sqrt(np.vecdot(vec.real, vec.real) + np.vecdot(vec.imag, vec.imag))
    return vec / norm[..., None], overlap


def aligned_superposition(a0: np.ndarray, a1: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Align unit-norm amplitude matrices a1 with a0 on the row factor, then superpose.

    Returns (u, vec, overlap): u is the :func:`polar_unitary` of
    a0 a1^dagger, vec the :func:`phase_aligned_sum` of a0 and u^dagger a1,
    flattened, and overlap = <a0|u^dagger a1>, real and nonnegative: the
    nuclear norm of a0 a1^dagger, i.e. the fidelity of the column reductions.
    """
    u, _ = polar_unitary(a0 @ a1.conj().T)
    vec, overlap = phase_aligned_sum(a0.reshape(-1), (u.conj().T @ a1).reshape(-1))
    return u, vec, overlap


def max_fidelity_sq_sum(
    sigma: DensityOperator, omega: DensityOperator
) -> tuple[float, DensityOperator]:
    """Maximum of F(rho, sigma)^2 + F(rho, omega)^2 over density operators rho.

    The maximum equals 1 + F(sigma, omega); it is returned with a state
    achieving it, the token reduction of the :func:`aligned_superposition`
    of the purifications A = sqrt(rho)^T (A^T A^* = rho), which share
    :func:`~qbc.linalg.sqrt_psd`, and its noise floor, with :func:`fidelity`.
    """
    _check_same_dim(sigma, omega)
    a = np.stack([sqrt_psd(sigma).T, sqrt_psd(omega).T])
    normalize_states(a.reshape(2, -1))  # the norm rule, as a PureState applies it
    _, superposed, overlap = aligned_superposition(a[0], a[1])
    achiever = DensityOperator(token_reductions(superposed.reshape(sigma.dim, sigma.dim)))
    return 1.0 + min(float(overlap), 1.0), achiever


@dataclass(frozen=True)
class BlochVector:
    """Bloch-sphere representation of a qubit state; |r| <= 1.

    A component that is not a real number (a string, ``None``, a bool, a
    complex number) is refused with ``ParamOutOfRange``, as the entry rule
    refuses a value that is not numbers: it is a bad argument, not a state.
    A real vector off the unit ball, NaN included, is ``NotQubit``.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        components = (self.x, self.y, self.z)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in components):
            raise ParamOutOfRange(f"Bloch vector components must be real numbers, got {self}")
        if not self.norm_sq() <= 1.0 + TOL:  # a NaN compares False
            raise NotQubit(f"Bloch vector norm^2 {self.norm_sq()} exceeds 1")

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z


def qubit_bloch(rho: DensityOperator) -> BlochVector:
    """Bloch vector of a qubit state: components Tr(rho X), Tr(rho Y), Tr(rho Z)."""
    if rho.dim != 2:
        raise NotQubit(f"expected dim 2, got {rho.dim}")
    m = rho.matrix
    return BlochVector(
        float(np.trace(m @ PAULI_X).real),
        float(np.trace(m @ PAULI_Y).real),
        float(np.trace(m @ PAULI_Z).real),
    )


def bloch_trace_distance(r: BlochVector, s: BlochVector) -> float:
    """Qubit trace distance: half the Euclidean distance of the Bloch vectors."""
    dx, dy, dz = r.x - s.x, r.y - s.y, r.z - s.z
    return 0.5 * float(np.sqrt(dx * dx + dy * dy + dz * dz))


def bloch_fidelity_sq(r: BlochVector, s: BlochVector) -> float:
    """Qubit fidelity squared in Bloch form."""
    dot = r.x * s.x + r.y * s.y + r.z * s.z

    def gap(v: BlochVector) -> float:
        g = max(0.0, 1.0 - v.norm_sq())
        return 0.0 if g < PURITY_GAP_FLOOR else g

    return 0.5 * (1.0 + dot + float(np.sqrt(gap(r) * gap(s))))


def is_pure(rho: DensityOperator) -> bool:
    """True when Tr(rho^2) is within ``TOL`` of 1."""
    return float(np.trace(rho.matrix @ rho.matrix).real) >= 1.0 - TOL


def combined_support_rank(rho: DensityOperator, sigma: DensityOperator) -> int:
    """Dimension of span(support rho, support sigma): eigenvalues of rho + sigma above ``TOL``."""
    _check_same_dim(rho, sigma)
    eigenvalues = np.linalg.eigvalsh(rho.matrix + sigma.matrix)
    return int(np.sum(eigenvalues > TOL))


@dataclass(frozen=True)
class InequalityCheck:
    """An inequality's slack at a pair's (D, F); satisfied at slack >= -TOL, not NaN."""

    name: str
    applicable: bool
    slack: float

    @property
    def satisfied(self) -> bool:
        return self.slack >= -TOL


@dataclass(frozen=True)
class InequalityReport:
    trace_distance: float
    fidelity: float
    checks: tuple[InequalityCheck, ...]

    def violations(self) -> list[InequalityCheck]:
        return [c for c in self.checks if c.applicable and not c.satisfied]

    def all_satisfied(self) -> bool:
        return not self.violations()


def check_inequalities(rho: DensityOperator, sigma: DensityOperator) -> InequalityReport:
    """Evaluate the distance/fidelity inequalities applicable to a pair.

    D and F are :func:`trace_distance` and :func:`fidelity` of the pair;
    the checks are those of :func:`inequalities_at`.
    """
    return inequalities_at(trace_distance(rho, sigma), fidelity(rho, sigma), rho, sigma)


def inequalities_at(
    d: float, f: float, rho: DensityOperator, sigma: DensityOperator
) -> InequalityReport:
    """Evaluate the distance/fidelity inequalities at a given (D, F) of a pair.

    Always checked: 1 - F <= D and D <= sqrt(1 - F^2).  When both states
    are pure, the upper bound must be an equality.  When at least one state
    is pure, or both supports fit inside a common 2-dimensional subspace,
    the stronger lower bound 1 - F^2 <= D applies.  Each check is granted
    ``TOL`` of slack.  ``rho`` and ``sigma`` decide only which
    checks apply.

    The upper bound and the equality are measured squared, with no square
    root: their slacks are 1 - F^2 - D^2 and -|1 - F^2 - D^2|.  So an F
    that rounds to 1 at a D of 1e-8 reads a slack of -1e-16, not -1e-8.
    """
    pure = (is_pure(rho), is_pure(sigma))
    strong_applicable = any(pure) or combined_support_rank(rho, sigma) <= 2
    upper_gap = 1.0 - f * f - d * d

    checks = (
        InequalityCheck("fidelity_lower_bound", True, d - (1.0 - f)),
        InequalityCheck("fidelity_upper_bound", True, upper_gap),
        InequalityCheck("pure_pair_equality", all(pure), -abs(upper_gap)),
        InequalityCheck("squared_fidelity_lower_bound", strong_applicable, d - (1.0 - f * f)),
    )
    return InequalityReport(d, f, checks)
