"""Distinguishability measures on density operators and their optimizers.

Implements the trace distance D(rho, sigma) = (1/2) Tr|rho - sigma|, the
fidelity F(rho, sigma) = Tr|sqrt(rho) sqrt(sigma)|, the Helstrom measurement
that discriminates two equiprobable states with success (1 + D)/2, the
Uhlmann unitary aligning two purifications so their overlap reaches F, the
phase-aligned superposition of two aligned states, and the exact maximum
of F(rho, sigma)^2 + F(rho, omega)^2 over rho together with a state
achieving it.

For qubits, the Bloch-vector forms are provided:
    D = |r - s| / 2
    F^2 = (1 + r.s + sqrt((1 - |r|^2)(1 - |s|^2))) / 2
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotQubit
from .linalg import (
    BipartiteState,
    DensityOperator,
    Factor,
    apply_to_proof,
    bipartite,
    partial_trace,
    sqrt_psd,
)

# Eigenvectors of rho0 - rho1 whose eigenvalue is within this of zero are
# assigned to projector0; any assignment is optimal, one is deterministic.
ZERO_EIGENVALUE_TOL = 1e-10

# Eigenvalue threshold when counting support dimensions.
SUPPORT_RANK_TOL = 1e-9

# Slack granted to closed-form inequality checks.
INEQUALITY_TOL = 1e-9

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
    """F(rho, sigma) = sum of singular values of sqrt(rho) sqrt(sigma)."""
    _check_same_dim(rho, sigma)
    product = sqrt_psd(rho) @ sqrt_psd(sigma)
    singular_values = np.linalg.svd(product, compute_uv=False)
    return float(np.clip(singular_values.sum(), 0.0, 1.0))


@dataclass(frozen=True)
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
    success = 0.5 * (
        np.trace(projector0 @ rho0.matrix).real + np.trace(projector1 @ rho1.matrix).real
    )
    return HelstromMeasurement(projector0, projector1, float(success))


@dataclass(frozen=True)
class ParallelPurificationResult:
    """Outcome of aligning one purification with another.

    ``maximizing_unitary`` U acts on the chosen factor; applying it to the
    second state makes the overlap with the first real, nonnegative and
    equal to ``overlap``, which in turn equals the fidelity of the two
    reduced states on the factor left untouched.
    """

    overlap: float
    maximizing_unitary: np.ndarray


def max_parallel_overlap(
    psi: BipartiteState, chi: BipartiteState, act_on: Factor
) -> ParallelPurificationResult:
    """Maximize |<psi| (U on act_on factor) |chi>| over unitaries U.

    With amplitudes reshaped so the acted factor indexes rows, the overlap
    is |Tr(U A_chi A_psi^dagger)|; its maximum over unitary U is the sum of
    singular values of M = A_chi A_psi^dagger, attained at the
    :func:`polar_unitary` of M, whose phase makes the achieved overlap real
    and nonnegative.
    """
    if (psi.dim_proof, psi.dim_token) != (chi.dim_proof, chi.dim_token):
        raise DimMismatch(
            f"bipartite dims differ: {psi.dim_proof}x{psi.dim_token}"
            f" vs {chi.dim_proof}x{chi.dim_token}"
        )
    if act_on == "proof":
        a_psi, a_chi = psi.as_matrix(), chi.as_matrix()
    elif act_on == "token":
        a_psi, a_chi = psi.as_matrix().T, chi.as_matrix().T
    else:
        raise ValueError(f"act_on must be 'proof' or 'token', got {act_on!r}")
    unitary, overlap = polar_unitary(a_chi @ a_psi.conj().T)
    return ParallelPurificationResult(float(np.clip(overlap, 0.0, 1.0)), unitary)


def polar_unitary(m: np.ndarray) -> tuple[np.ndarray, float]:
    """The U maximizing |Tr(U m)|, and that maximum (the nuclear norm of m).

    With m = W diag(s) V^dagger, U = V W^dagger makes Tr(U m) = sum(s),
    real and nonnegative.  U is unitary for a square m and an isometry
    otherwise.
    """
    w, s, vh = np.linalg.svd(m, full_matrices=False)
    return vh.conj().T @ w.conj().T, float(s.sum())


def phase_aligned_sum(phi0: np.ndarray, phi1: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized phi0 + e^{-i arg c} phi1 with c = <phi0|phi1>, and |c|.

    The phase makes both terms add in step, so the sum has norm^2
    2 + 2|c| for unit vectors; it is 1 when c vanishes (|c| <= 1e-12).
    """
    c = np.vdot(phi0, phi1)
    phase = 1.0 if abs(c) <= 1e-12 else np.exp(-1j * np.angle(c))
    vec = phi0 + phase * phi1
    return vec / np.linalg.norm(vec), abs(c)


def _standard_purification(rho: DensityOperator) -> BipartiteState:
    """Purify rho on a d ⊗ d space with rho living on the token factor.

    The amplitude matrix is A = sqrt(rho)^T, so A^T A^* = rho; it shares
    :func:`~qbc.linalg.sqrt_psd`, and its noise floor, with :func:`fidelity`.
    """
    return bipartite(rho.dim, rho.dim, sqrt_psd(rho).T.reshape(-1))


def max_fidelity_sq_sum(
    sigma: DensityOperator, omega: DensityOperator
) -> tuple[float, DensityOperator]:
    """Maximum of F(rho, sigma)^2 + F(rho, omega)^2 over density operators rho.

    The maximum equals 1 + F(sigma, omega), F being the overlap of two
    maximally parallel purifications of sigma and omega; it is returned
    with a state achieving it, the reduction of their equal-weight
    superposition back onto the original space.
    """
    _check_same_dim(sigma, omega)
    pur_sigma = _standard_purification(sigma)
    pur_omega = _standard_purification(omega)
    aligned = max_parallel_overlap(pur_sigma, pur_omega, act_on="proof")
    phi1 = apply_to_proof(aligned.maximizing_unitary, pur_omega).amplitudes
    superposed, _ = phase_aligned_sum(pur_sigma.amplitudes, phi1)
    achiever = partial_trace(bipartite(sigma.dim, sigma.dim, superposed), keep="token")
    return 1.0 + aligned.overlap, achiever


@dataclass(frozen=True)
class BlochVector:
    """Bloch-sphere representation of a qubit state; |r| <= 1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.norm_sq() > 1.0 + INEQUALITY_TOL:
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


def bloch_to_density(r: BlochVector) -> DensityOperator:
    """Qubit state (I + x X + y Y + z Z) / 2."""
    m = (np.eye(2, dtype=np.complex128) + r.x * PAULI_X + r.y * PAULI_Y + r.z * PAULI_Z) / 2.0
    return DensityOperator(m)


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
    """True when Tr(rho^2) is within ``INEQUALITY_TOL`` of 1."""
    return float(np.trace(rho.matrix @ rho.matrix).real) >= 1.0 - INEQUALITY_TOL


def combined_support_rank(rho: DensityOperator, sigma: DensityOperator) -> int:
    """Dimension of span(support rho, support sigma)."""
    _check_same_dim(rho, sigma)
    eigenvalues = np.linalg.eigvalsh(rho.matrix + sigma.matrix)
    return int(np.sum(eigenvalues > SUPPORT_RANK_TOL))


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    applicable: bool
    satisfied: bool
    slack: float


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
    ``INEQUALITY_TOL`` of slack.  ``rho`` and ``sigma`` decide only which
    checks apply.
    """
    pure = (is_pure(rho), is_pure(sigma))
    strong_applicable = any(pure) or combined_support_rank(rho, sigma) <= 2
    upper = float(np.sqrt(max(0.0, 1.0 - f * f)))

    checks = (
        InequalityCheck(
            "fidelity_lower_bound",  # 1 - F <= D
            applicable=True,
            satisfied=d - (1.0 - f) >= -INEQUALITY_TOL,
            slack=d - (1.0 - f),
        ),
        InequalityCheck(
            "fidelity_upper_bound",  # D <= sqrt(1 - F^2)
            applicable=True,
            satisfied=upper - d >= -INEQUALITY_TOL,
            slack=upper - d,
        ),
        InequalityCheck(
            "pure_pair_equality",  # D = sqrt(1 - F^2) for two pure states
            applicable=all(pure),
            satisfied=abs(upper - d) <= INEQUALITY_TOL,
            slack=-abs(upper - d),
        ),
        InequalityCheck(
            "squared_fidelity_lower_bound",  # 1 - F^2 <= D, one pure or 2-dim support
            applicable=strong_applicable,
            satisfied=d - (1.0 - f * f) >= -INEQUALITY_TOL,
            slack=d - (1.0 - f * f),
        ),
    )
    return InequalityReport(d, f, checks)
