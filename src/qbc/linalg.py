"""Dense complex linear algebra over small Hilbert spaces.

Everything here works on plain ``numpy`` complex arrays; the thin frozen
dataclasses (:class:`PureState`, :class:`DensityOperator`,
:class:`BipartiteState`) validate their physics invariants on construction
and freeze the underlying buffers, so values are safe to share: a
protocol keeps its states and its strategy tables and hands the same
arrays to every caller.  A record holding arrays compares and hashes by
identity (``eq=False``), as arrays give ``==`` no single truth value.

Each state invariant is one function here, which the single objects and
the stacked core of :mod:`qbc.protocol` both call: the norm rule
(:func:`normalize_states`), the density rule (:func:`check_spectra`), the
token reduction (:func:`token_reductions`) and the square-root floor
(:func:`sqrt_psd`).  The closed forms that the core uses for qubit tokens
in place of ``eigvalsh`` and ``svd`` are one function too
(:func:`qubit_token_core`).

Index convention, fixed globally: the amplitude of a bipartite state at
(proof index p, token index t) sits at flat index ``p * dim_token + t``.
Equivalently, ``amplitudes.reshape(dim_proof, dim_token)[p, t]``.  Tensor
products, partial traces and proof-side unitaries below all assume this.
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
    ParamOutOfRange,
)

# The rounding slack of every identity check: a value within TOL of the value
# an identity fixes counts as that value.  It covers norms and traces, Hermiticity,
# zero eigenvalues (PSD floor, support rank), orthogonality, purity, inequality
# slacks, and the [0, 1/2] box and curve-I bound of the trade-off plane.
TOL = 1e-9

# Eigenvalues below this are eigensolver noise on a unit-trace operator;
# sqrt_psd zeroes them so sqrt(noise) cannot pollute fidelities.
SQRT_NOISE_FLOOR = 1e-13

Factor = Literal["proof", "token"]


def _unit_deviation(values: np.ndarray, name: str) -> float:
    """Largest |value - 1|; NotNormalized unless every value is finite and within TOL of 1."""
    deviation = np.abs(values - 1.0)
    worst = deviation.max(initial=0.0)
    if not worst <= TOL:  # a NaN compares False
        raise NotNormalized(f"{name} {values.flat[deviation.argmax()]} not within {TOL} of 1")
    return worst


def normalize_states(states: np.ndarray) -> np.ndarray:
    """The norm rule, applied to each row of a C-contiguous (count, dim) complex array.

    Every row's norm must be finite and within ``TOL`` of 1.  A row off
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

    No eigenvalue may lie below ``-TOL`` (NotPositiveSemidefinite) and each
    trace, the sum of a spectrum, must be within ``TOL`` of 1 (NotNormalized).
    """
    lowest = eigenvalues[..., 0].min(initial=np.inf)
    if lowest < -TOL:
        raise NotPositiveSemidefinite(f"eigenvalue {lowest} below floor {-TOL}")
    _unit_deviation(eigenvalues.sum(axis=-1), "trace")


def token_reductions(amplitudes: np.ndarray) -> np.ndarray:
    """Token reductions (A^T A^* + h.c.)/2 of a stack of (..., dim_proof, dim_token) matrices A."""
    reduced = np.swapaxes(amplitudes, -2, -1) @ amplitudes.conj()
    return (reduced + np.swapaxes(reduced, -2, -1).conj()) / 2.0


def _squared_norms(z: np.ndarray) -> np.ndarray:
    """sum |z|^2 over the last two axes of a C-contiguous complex stack."""
    parts = z.view(np.float64).reshape(z.shape[:-2] + (2 * z.shape[-2] * z.shape[-1],))
    return np.vecdot(parts, parts)


def qubit_token_core(rho: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2x2 rules of the D/F core, in elementwise closed forms with no LAPACK call.

    ``a`` holds the amplitude matrices A_b of n protocols as a (2, n,
    dim_proof, 2) array, chi0 at index 0 and chi1 at index 1, and ``rho``
    holds their token reductions rho0, rho1 (:func:`token_reductions`) and
    rho0 - rho1 as a (3, n, 2, 2) array.
    With x, y and b the entries [0, 0], [1, 1] and [0, 1] of each matrix,
    its eigenvalues are m ∓ r, where m = (x + y)/2 and r = hypot((x - y)/2,
    |b|).  Returns

    * the ascending spectra, (3, n, 2);
    * D = max(|m|, r) of rho0 - rho1, which is (1/2) sum |eigenvalues|;
    * F = sqrt(||A1 A0^dag||_F^2 + 2 |det R0| |det R1|).

    F is the sum s1 + s2 of the singular values of A1 A0^dag, which has
    rank <= 2: F^2 = s1^2 + s2^2 + 2 s1 s2, and s1 s2 = |det(R1 R0^dag)|
    for A_b = Q_b R_b with Q_b an isometry.  By Cauchy-Binet, |det R_b|^2 =
    det(A_b^dag A_b) is the sum of |A[p,0] A[q,1] - A[q,0] A[p,1]|^2 over
    the row pairs p < q (none when dim_proof = 1).  So F needs no division,
    no square root of a reduction and no floor.  The products are
    elementwise broadcasts: a batched ``@`` would make one BLAS call per
    2-column matrix.
    """
    x, y = rho[..., 0, 0].real, rho[..., 1, 1].real
    mean = (x + y) / 2.0
    radius = np.hypot((x - y) / 2.0, np.abs(rho[..., 0, 1]))
    spectra = np.empty(mean.shape + (2,))
    np.subtract(mean, radius, out=spectra[..., 0])
    np.add(mean, radius, out=spectra[..., 1])
    d = np.maximum(np.abs(mean[2]), radius[2])
    a0_dag = a[0].conj()
    overlaps = a[1, ..., :, None, 0] * a0_dag[..., None, :, 0]  # A1 A0^dag, one column of A at a time
    overlaps += a[1, ..., :, None, 1] * a0_dag[..., None, :, 1]
    # t_b = 2 |det R_b|^2: the minor of rows p < q enters as itself and, negated, as q, p.
    # Then 2 |det R0| |det R1| = sqrt(t_0 t_1).
    products = a[..., :, None, 0] * a[..., None, :, 1]
    t = _squared_norms(products - products.mT)
    return spectra, d, np.sqrt(_squared_norms(overlaps) + np.sqrt(t[0] * t[1]))


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _checked_integer(value, name: str, least: int, error: type = ParamOutOfRange) -> int:
    """``value`` as an int >= ``least``; anything else, a bool included, raises ``error``."""
    if not _is_integer(value) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _seeded_generator(seed) -> np.random.Generator:
    """``seed`` if it is a ``numpy.random.Generator``, else one seeded by the integer ``seed`` >= 0."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_checked_integer(seed, "the seed", 0))


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimMismatch(f"density operator must be square, got {arr.shape}")
        finite = np.isfinite(arr)  # before any arithmetic: inf - inf would warn
        if not finite.all():
            raise NotNormalized(f"density operator entry {arr[~finite][0]} is not finite")
        parts = np.abs(arr.view(np.float64))  # real and imaginary parts: no check can overflow
        if parts.max(initial=0.0) > 2.0:  # no entry exceeds 1; 1e308 - (-1e308) would overflow
            raise NotNormalized(f"density operator entry {arr.flat[parts.argmax() // 2]} exceeds 1")
        herm_dev = float(np.max(np.abs(arr - arr.conj().T)))
        if herm_dev > TOL:
            raise NotHermitian(f"Hermiticity deviation {herm_dev} exceeds {TOL}")
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
        for name in ("dim_proof", "dim_token"):
            object.__setattr__(self, name, _checked_integer(getattr(self, name), name, 1, DimMismatch))
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
    """Computational basis vector |index> in the given dimension.

    ``index`` must be an integer in [0, dim); anything else, a bool
    included, is refused with ``ParamOutOfRange``.
    """
    dim = _checked_integer(dim, "dim", 1, DimMismatch)
    if not _is_integer(index) or not 0 <= index < dim:
        raise ParamOutOfRange(f"index must be an integer in [0, {dim}), got {index!r}")
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
        raise ParamOutOfRange(f"keep must be 'proof' or 'token', got {keep!r}")
    return DensityOperator(token_reductions(a))


def apply_to_proof(u, state: BipartiteState) -> BipartiteState:
    """Apply (u ⊗ I) to the proof factor; ``u`` is any (dim_proof, dim_proof) array-like."""
    a = state.as_matrix()
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (state.dim_proof, state.dim_proof):
        raise DimMismatch(f"unitary shape {u.shape} does not act on proof dim {state.dim_proof}")
    return bipartite(state.dim_proof, state.dim_token, (u @ a).reshape(-1))


def sqrt_psd(rho: DensityOperator) -> np.ndarray:
    """Positive square root of a density operator.

    The spectrum must pass :func:`check_spectra`; eigenvalues below
    ``SQRT_NOISE_FLOOR`` are then zeroed before the square root.  This is
    the one place that floor is applied.  It drops real weight too: an
    eigenvalue of 1e-14 has the square root 1e-7, which
    :func:`~qbc.distinguish.fidelity` then loses (it reads 0.0 for
    ``QubitPureMixed(1e-14)``, whose F is 1e-7): at most sqrt(w) of F for a
    weight w zeroed.  It keeps an exact zero exact: computed as ~1e-17,
    with no floor it would add its square root, ~3e-9.
    """
    eigenvalues, v = np.linalg.eigh(rho.matrix)
    check_spectra(eigenvalues)
    clipped = np.where(eigenvalues < SQRT_NOISE_FLOOR, 0.0, eigenvalues)
    return (v * np.sqrt(clipped)) @ v.conj().T


def random_pure_state(dim: int, seed) -> PureState:
    """Haar-uniform pure state: normalized vector of iid complex Gaussians.

    ``seed`` is a ``numpy.random.Generator``, which the draws advance, or
    an integer >= 0; a dim that is not an integer >= 1 raises ``DimMismatch``.
    """
    dim = _checked_integer(dim, "dim", 1, DimMismatch)
    rng = _seeded_generator(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(vec / np.linalg.norm(vec))


def random_density(dim: int, rank: int, seed) -> DensityOperator:
    """Random density operator of the given rank.

    Obtained as the reduced state of a Haar-uniform pure state on a
    dim ⊗ rank space, which for rank = dim is the Hilbert-Schmidt measure.
    ``dim`` and ``seed`` are checked as by :func:`random_pure_state`, and a
    rank that is not an integer in 1..dim raises ``BadRank``.
    """
    dim = _checked_integer(dim, "dim", 1, DimMismatch)
    if not _is_integer(rank) or not 1 <= rank <= dim:
        raise BadRank(f"rank must be an integer with 1 <= rank <= {dim}, got {rank!r}")
    purification = BipartiteState(dim, rank, random_pure_state(dim * rank, seed))
    return partial_trace(purification, keep="proof")
