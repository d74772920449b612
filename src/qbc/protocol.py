"""Purification bit-commitment protocols: analysis and simulation.

A protocol instance is a pair of orthogonal bipartite states (chi0, chi1)
on proof ⊗ token.  Honest Alice prepares chi_b, sends the token at
commitment, the proof at unveiling; Bob verifies with the three-outcome
measurement {|chi0><chi0|, |chi1><chi1|, rest}.

Closed-form security: with rho_b the honest token reductions,

    g_max = D(rho0, rho1) / 2   (Bob's maximal information gain;
                                 achieved by a Helstrom measurement
                                 during the holding phase)
    c_max = F(rho0, rho1) / 2   (Alice's maximal control; achieved by
                                 committing an aligned superposition and
                                 steering it with proof-side unitaries)

Both figures come from one stacked core, :func:`distance_fidelity`, which
takes the amplitudes of any number of protocols at once: D from the
eigenvalues of rho0 - rho1 and, by Uhlmann's theorem, F as the nuclear
norm of A1 A0^dag (A_b is chi_b as a proof x token matrix), with no square
root of a reduction.  A single report and a whole family sweep take the
same route.

Both optimal strategies are constructed explicitly and can be run through
a Born-rule Monte Carlo, either one transcript at a time
(:func:`simulate_run`) or in bulk (:func:`estimate_statistics`).  Both
read the exact per-configuration :class:`StrategyTables`, which the coin
toss samples too.  The tables depend on the protocol alone, so each
protocol builds the table of a strategy pairing once and keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .distinguish import helstrom, max_parallel_overlap, phase_aligned_sum, polar_unitary
from .errors import DimMismatch, NotAMeasurement, NotOrthogonal, QbcError
from .linalg import (
    BipartiteState,
    DensityOperator,
    PureState,
    apply_to_proof,
    bipartite,
    check_spectra,
    normalize_states,
    partial_trace,
    random_pure_state,
    token_reductions,
)

ORTHOGONALITY_TOL = 1e-9
MEASUREMENT_TOL = 1e-8
REPORT_TOL = 1e-12


@dataclass(frozen=True)
class PurificationProtocol:
    """Validated pair of orthogonal commitment states on proof ⊗ token."""

    dim_proof: int
    dim_token: int
    chi0: BipartiteState
    chi1: BipartiteState

    def __post_init__(self):
        for chi in (self.chi0, self.chi1):
            if (chi.dim_proof, chi.dim_token) != (self.dim_proof, self.dim_token):
                raise DimMismatch(
                    f"commitment state dims {chi.dim_proof}x{chi.dim_token}"
                    f" != protocol dims {self.dim_proof}x{self.dim_token}"
                )
        _check_orthogonal(self.chi0.as_matrix()[None], self.chi1.as_matrix()[None])

    def chi(self, bit: int) -> BipartiteState:
        return self.chi1 if bit else self.chi0

    @cached_property
    def _table_store(self) -> dict:
        """Strategy tables built so far, keyed by (alice, bob); see :func:`strategy_tables`.

        Not a field, so equality and repr ignore it; a frozen dataclass
        allows it because ``cached_property`` writes the instance ``__dict__``.
        """
        return {}


def _check_orthogonal(a0: np.ndarray, a1: np.ndarray) -> None:
    """Reject any protocol of a stack whose |<chi0|chi1>| exceeds ``ORTHOGONALITY_TOL``."""
    overlap = float(np.abs(np.einsum("npt,npt->n", a0.conj(), a1)).max())
    if overlap > ORTHOGONALITY_TOL:
        raise NotOrthogonal(f"|<chi0|chi1>| = {overlap} exceeds {ORTHOGONALITY_TOL}")


def checked_stacks(a0: np.ndarray, a1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack of protocols given as (n, dim_proof, dim_token) amplitudes.

    Applies, to every protocol at once, the checks :class:`PureState` and
    :class:`PurificationProtocol` apply to one: each state passes the norm
    rule of :func:`~qbc.linalg.normalize_states` (and may be renormalized),
    and each pair is orthogonal within ``ORTHOGONALITY_TOL``.  Returns the
    (renormalized) stacks.
    """
    stacks = np.stack([a0, a1]).astype(np.complex128, copy=False)
    normalize_states(stacks.reshape(-1, stacks.shape[-2] * stacks.shape[-1]))
    _check_orthogonal(stacks[0], stacks[1])
    return stacks[0], stacks[1]


def make_protocol(chi0: BipartiteState, chi1: BipartiteState) -> PurificationProtocol:
    """Validate and assemble a protocol from its two commitment states."""
    return PurificationProtocol(chi0.dim_proof, chi0.dim_token, chi0, chi1)


def random_protocol(dim_proof: int, dim_token: int, seed) -> PurificationProtocol:
    """Random protocol: Haar chi0, chi1 Gram-Schmidt-orthogonalized against it."""
    rng = np.random.default_rng(seed)
    dim = dim_proof * dim_token
    chi0 = random_pure_state(dim, rng)
    raw = random_pure_state(dim, rng).amplitudes
    raw = raw - np.vdot(chi0.amplitudes, raw) * chi0.amplitudes
    norm = np.linalg.norm(raw)
    if norm < 1e-8:
        raise QbcError("degenerate draw while orthogonalizing chi1")
    chi1 = PureState(raw / norm)
    return make_protocol(
        BipartiteState(dim_proof, dim_token, chi0),
        BipartiteState(dim_proof, dim_token, chi1),
    )


# --------------------------------------------------------------------------
# strategies and records


def _checked_bit(value, name: str) -> int:
    """``value`` as the int 0 or 1; a bool or a non-integral value is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value not in (0, 1):
        raise ValueError(f"{name} must be the integer 0 or 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class HonestAlice:
    """Commit a bit honestly.  bit=None draws the bit uniformly per run."""

    bit: int | None = None

    def __post_init__(self):
        if self.bit is not None:
            object.__setattr__(self, "bit", _checked_bit(self.bit, "bit"))


@dataclass(frozen=True)
class CheatingAlice:
    """Commit the aligned superposition and steer it toward the target bit."""


@dataclass(frozen=True)
class HonestBob:
    """Store the token untouched; abstain from estimating."""


@dataclass(frozen=True)
class HelstromBob:
    """Measure the token with the Helstrom measurement during holding."""


AliceStrategy = Union[HonestAlice, CheatingAlice]
BobStrategy = Union[HonestBob, HelstromBob]


class Outcome(IntEnum):
    """Result of Bob's final verification measurement."""

    ZERO = 0
    ONE = 1
    FAIL = 2


@dataclass(frozen=True)
class RunRecord:
    """Transcript of a single protocol run."""

    alice: AliceStrategy
    bob: BobStrategy
    committed_bit: int | None  # None when Alice commits the cheat state
    target_bit: int
    bob_estimate: int | None  # None when Bob abstains
    outcome: Outcome


@dataclass(frozen=True)
class SecurityReport:
    """Exact one-shot security figures of a protocol instance."""

    trace_distance: float
    fidelity: float
    g_max: float
    c_max: float

    def __post_init__(self):
        if abs(self.g_max - self.trace_distance / 2.0) > REPORT_TOL:
            raise ValueError("g_max must equal trace_distance / 2")
        if abs(self.c_max - self.fidelity / 2.0) > REPORT_TOL:
            raise ValueError("c_max must equal fidelity / 2")


@dataclass(frozen=True)
class CheatKit:
    """Everything cheating Alice needs.

    She commits ``psi_max`` and, to unveil bit b, applies ``u0`` or ``u1``
    to the proof factor just before sending it.  Each bit is then accepted
    with probability ``per_bit_success`` = (1 + F(rho0, rho1)) / 2, and
    u0 @ u1 equals the overlap-maximizing unitary for the chi pair.
    """

    psi_max: BipartiteState
    u0: np.ndarray
    u1: np.ndarray
    per_bit_success: float

    def unveil_unitary(self, bit: int) -> np.ndarray:
        return self.u1 if bit else self.u0


# --------------------------------------------------------------------------
# closed-form analysis


def honest_reduced_states(p: PurificationProtocol) -> tuple[DensityOperator, DensityOperator]:
    """Token-side reductions (rho0, rho1) of the honest commitment states."""
    return (
        partial_trace(p.chi0, keep="token"),
        partial_trace(p.chi1, keep="token"),
    )


def distance_fidelity(a0: np.ndarray, a1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace distances and fidelities of the token reductions of a stack of protocols.

    ``a0`` and ``a1`` hold chi0 and chi1 of n protocols as (n, dim_proof,
    dim_token) amplitude matrices A_b.  The reductions rho_b = A_b^T A_b^*
    (:func:`~qbc.linalg.token_reductions`) pass the density rule of
    :func:`~qbc.linalg.check_spectra`, as in :class:`DensityOperator`; then

        D = (1/2) sum |eigenvalues of rho0 - rho1|
        F = sum of singular values of A1 A0^dag      (Uhlmann's theorem)

    each clipped to [0, 1].  The whole stack costs one ``eigvalsh`` and one
    ``svd`` call.  F takes no square root of a reduction, so it stays exact
    where a reduction has eigenvalues far below rounding noise (F = 1e-7 at
    an eigenvalue of 1e-14).
    """
    rho = token_reductions(np.stack([a0, a1]))
    eigenvalues = np.linalg.eigvalsh(np.concatenate([rho, (rho[0] - rho[1])[None]]))
    check_spectra(eigenvalues[:2])
    d = np.clip(0.5 * np.abs(eigenvalues[2]).sum(axis=-1), 0.0, 1.0)
    singular_values = np.linalg.svd(a1 @ np.swapaxes(a0, -2, -1).conj(), compute_uv=False)
    return d, np.clip(singular_values.sum(axis=-1), 0.0, 1.0)


def security_report(p: PurificationProtocol) -> SecurityReport:
    d, f = distance_fidelity(p.chi0.as_matrix()[None], p.chi1.as_matrix()[None])
    d, f = float(d[0]), float(f[0])
    return SecurityReport(d, f, d / 2.0, f / 2.0)


def optimal_cheat_kit(p: PurificationProtocol) -> CheatKit:
    """Construct Alice's optimal cheating strategy.

    The unitary aligning chi0 with chi1 on the proof factor is obtained
    from the purification-overlap maximizer; with the split u0 = I,
    u1 = that unitary, the committed state is the normalized superposition

        psi_max ∝ (u0^dag ⊗ I)|chi0> + e^{-i arg c} (u1^dag ⊗ I)|chi1>,

    where c is the overlap of the two terms (real and nonnegative here by
    the phase convention of the maximizer; the phase factor degrades
    gracefully to 1 when c vanishes).  Both |<chi_b|(u_b ⊗ I)|psi_max>|^2
    then equal (1 + F)/2.
    """
    aligned = max_parallel_overlap(p.chi1, p.chi0, act_on="proof")
    u0 = np.eye(p.dim_proof, dtype=np.complex128)
    u1 = aligned.maximizing_unitary
    phi1 = apply_to_proof(u1.conj().T, p.chi1).amplitudes
    vec, overlap = phase_aligned_sum(p.chi0.amplitudes, phi1)
    psi_max = bipartite(p.dim_proof, p.dim_token, vec)
    return CheatKit(psi_max, u0, u1, (1.0 + overlap) / 2.0)


# --------------------------------------------------------------------------
# Born-rule sampling


def born_sample(state: PureState, projectors: Sequence[np.ndarray], rng) -> int:
    """Sample an outcome index of a projective measurement on a pure state.

    The projectors must sum to the identity and be mutually orthogonal
    (tolerance ``MEASUREMENT_TOL``); exactly one uniform draw is consumed.
    """
    dim = state.dim
    total = np.zeros((dim, dim), dtype=np.complex128)
    for proj in projectors:
        if proj.shape != (dim, dim):
            raise NotAMeasurement(f"projector shape {proj.shape} does not match dim {dim}")
        total = total + proj
    if np.max(np.abs(total - np.eye(dim))) > MEASUREMENT_TOL:
        raise NotAMeasurement("projectors do not sum to the identity")
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            if np.max(np.abs(projectors[i] @ projectors[j])) > MEASUREMENT_TOL:
                raise NotAMeasurement(f"projectors {i} and {j} are not orthogonal")

    vec = state.amplitudes
    probs = np.array([max(0.0, np.vdot(vec, proj @ vec).real) for proj in projectors])
    draw = rng.random()
    cumulative = np.cumsum(probs)
    for index, edge in enumerate(cumulative):
        if draw < edge:
            return index
    return len(projectors) - 1


# --------------------------------------------------------------------------
# the Monte Carlo engine: exact strategy tables, sampled per run or in bulk

# Runs drawn per chunk by the bulk sampler; peak memory is O(chunk).
MC_CHUNK_RUNS = 1 << 16


@dataclass(frozen=True)
class StrategyTables:
    """Exact per-configuration probabilities for one strategy pairing.

    ``commit_weights`` is the distribution of Alice's commitment context
    (two entries for honest Alice, one for the cheat state).
    ``est_prob0[c]`` is the chance a measuring Bob sees estimate 0 given
    context c (absent when he abstains).  ``out_cum[c, e, t]`` holds the
    cumulative final-outcome probabilities (P(0), P(0 or 1)) when Alice
    stands behind bit t.

    A run lands in one cell (commitment context, estimate, target,
    outcome) of shape ``out_cum.shape[:3] + (3,)``; an abstaining Bob's
    estimate is 0.  Single runs (the ``draw_*`` methods) take one uniform
    per step played, bulk runs (:meth:`sample_cells`) a block of four;
    both apply the same rules: a bit is ``u >= 1/2``, an estimate
    ``u >= est_prob0[c]``, and an outcome counts the cumulative edges at or
    below ``u``.  :meth:`cell_probabilities` gives the exact mass of each
    cell, so a sampled rate and its prediction are the same sum of cells.
    """

    alice_honest: bool
    fixed_bit: int | None
    bob_cheats: bool
    commit_weights: np.ndarray
    est_prob0: np.ndarray | None
    out_cum: np.ndarray

    def draw_commit(self, rng) -> int:
        """Commitment context of one run; a uniform is drawn only for an unfixed honest bit."""
        if self.alice_honest and self.fixed_bit is None:
            return int(rng.random() >= 0.5)
        return self.fixed_bit or 0

    def draw_estimate(self, commit: int, rng) -> int:
        """Measuring Bob's holding-phase estimate given the commitment context."""
        return int(rng.random() >= self.est_prob0[commit])

    def draw_outcome(self, commit: int, estimate: int, target: int, rng) -> Outcome:
        """Final verification outcome when Alice stands behind ``target``."""
        edges = self.out_cum[commit, estimate, target]
        draw = rng.random()
        return Outcome(int(draw >= edges[0]) + int(draw >= edges[1]))

    def sample_cells(self, n_runs: int, seed: int, against_guess: bool = False) -> np.ndarray:
        """Run counts per cell over ``n_runs`` bulk-sampled runs.

        Run i consumes the four uniforms at offset 4*i of a Philox counter
        stream keyed by ``seed`` (columns: committed bit, coin, holding-phase
        estimate, final outcome).  The stream is drawn in order in chunks of
        ``MC_CHUNK_RUNS`` runs, so memory does not grow with ``n_runs`` and
        the counts equal those of a single ``(n_runs, 4)`` block.  Alice
        stands behind the coin, or with ``against_guess`` (the coin toss,
        where the coin is Bob's guess) behind its complement.
        """
        if n_runs < 1:
            raise ValueError(f"the run count must be >= 1, got {n_runs}")
        shape = self.out_cum.shape[:3] + (3,)
        edges = self.out_cum.reshape(-1, 2)
        rng = np.random.Generator(np.random.Philox(seed))
        counts = np.zeros(np.prod(shape), dtype=np.int64)
        for start in range(0, n_runs, MC_CHUNK_RUNS):
            u = rng.random((min(MC_CHUNK_RUNS, n_runs - start), 4))
            # Each run's flat cell index ((c * n_e + e) * 2 + t) * 3 + o grows
            # in place; before the outcome it is the run's row of ``edges``.
            if self.alice_honest and self.fixed_bit is None:
                cell = (u[:, 0] >= 0.5).astype(np.intp)
            else:
                cell = np.full(len(u), self.fixed_bit or 0, dtype=np.intp)
            if self.bob_cheats:
                estimate = u[:, 2] >= self.est_prob0.take(cell)
                cell *= 2
                cell += estimate
            cell *= 2
            cell += (u[:, 1] >= 0.5) != against_guess
            draw = u[:, 3]
            outcome = (draw >= edges[:, 0].take(cell)).astype(np.intp)
            outcome += draw >= edges[:, 1].take(cell)
            cell *= 3
            cell += outcome
            counts += np.bincount(cell, minlength=counts.size)
        return counts.reshape(shape)

    def cell_probabilities(self) -> np.ndarray:
        """Exact probability of each cell of :meth:`sample_cells` (the target is a fair bit)."""
        if self.bob_cheats:
            est_w = np.column_stack([self.est_prob0, 1.0 - self.est_prob0])
        else:
            est_w = np.ones((len(self.commit_weights), 1))
        context = self.commit_weights[:, None] * est_w * 0.5
        # P(0), P(1), P(fail): the steps between the edges 0, P(0), P(0 or 1), 1.
        outcome = np.concatenate([self.out_cum, np.ones_like(self.out_cum[..., :1])], axis=-1)
        outcome[..., 1:] -= self.out_cum
        return context[:, :, None, None] * outcome


def strategy_tables(
    p: PurificationProtocol, alice: AliceStrategy, bob: BobStrategy
) -> StrategyTables:
    """Exact tables of a strategy pairing; shared by every sampler.

    Both optimal cheats are fixed by the protocol, so the table of a
    pairing is built on its first call and kept by ``p`` (at most eight per
    protocol, freed with it); later calls return the same object.  Its
    arrays are read-only, because every caller shares them.
    """
    store, key = p._table_store, (alice, bob)
    if key not in store:
        store[key] = _build_strategy_tables(p, alice, bob)
    return store[key]


def _build_strategy_tables(
    p: PurificationProtocol, alice: AliceStrategy, bob: BobStrategy
) -> StrategyTables:
    """Build the exact tables of a strategy pairing.

    Both cheats are one-sided, so every step is a product with the stack of
    commitment matrices A (commitment context, proof, token): Bob's
    Helstrom collapse onto estimate e is A P_e^T, Alice's steering toward
    target t is u_t A, and verification reads |<chi_b|A>|^2.  No operator
    on the whole proof ⊗ token space is formed.
    """
    alice_honest = isinstance(alice, HonestAlice)
    bob_cheats = isinstance(bob, HelstromBob)
    chi = np.array([p.chi0.as_matrix(), p.chi1.as_matrix()])

    if alice_honest:
        committed = chi
        if alice.bit is None:
            commit_weights = np.array([0.5, 0.5])
        else:
            commit_weights = np.array([1.0 - alice.bit, float(alice.bit)])
    else:
        kit = optimal_cheat_kit(p)
        committed = kit.psi_max.as_matrix()[None]
        commit_weights = np.array([1.0])

    est_prob0 = None
    branches = committed[:, None]  # (commit, estimate, proof, token)
    if bob_cheats:
        measurement = helstrom(*honest_reduced_states(p))
        token_projs = np.array([measurement.projector0, measurement.projector1])
        prob0 = np.einsum("cpt,ts,cps->c", committed.conj(), token_projs[0], committed).real
        est_prob0 = np.clip(prob0, 0.0, 1.0)
        collapsed = branches @ np.swapaxes(token_projs, -2, -1)
        norms = np.linalg.norm(collapsed, axis=(-2, -1), keepdims=True)
        # A branch of probability ~0 is never sampled; it stays zero.
        branches = np.divide(collapsed, norms, out=np.zeros_like(collapsed), where=norms >= 1e-12)

    if not alice_honest:  # she steers toward target t with u_t on the proof
        branches = np.array([kit.u0, kit.u1]) @ branches[:, :, None]
    out_cum = np.abs(np.einsum("bpt,...pt->...b", chi.conj(), branches)) ** 2
    out_cum[..., 1] = np.minimum(1.0, out_cum[..., 0] + out_cum[..., 1])  # P(0), P(0 or 1)
    if alice_honest:  # she unveils her commitment whatever the target
        out_cum = np.repeat(out_cum[:, :, None], 2, axis=2)

    for array in (commit_weights, est_prob0, out_cum):
        if array is not None:
            array.flags.writeable = False
    return StrategyTables(
        alice_honest=alice_honest,
        fixed_bit=alice.bit if alice_honest else None,
        bob_cheats=bob_cheats,
        commit_weights=commit_weights,
        est_prob0=est_prob0,
        out_cum=out_cum,
    )


def simulate_run(
    p: PurificationProtocol,
    alice: AliceStrategy,
    bob: BobStrategy,
    target_bit: int,
    rng,
) -> RunRecord:
    """Play one full protocol run and return the transcript.

    Draw order: honest Alice with an unspecified bit consumes one uniform
    for her commitment; a cheating Bob consumes one for his holding-phase
    measurement (which collapses the token by normalized projection); the
    final verification measurement always consumes one.  ``target_bit`` is
    the bit a cheating Alice steers toward and is ignored by honest Alice.
    """
    target_bit = _checked_bit(target_bit, "target_bit")
    tables = strategy_tables(p, alice, bob)
    commit = tables.draw_commit(rng)
    estimate = tables.draw_estimate(commit, rng) if tables.bob_cheats else None
    outcome = tables.draw_outcome(commit, estimate or 0, target_bit, rng)
    committed = commit if tables.alice_honest else None
    return RunRecord(alice, bob, committed, target_bit, estimate, outcome)


# --------------------------------------------------------------------------
# bulk statistics


@dataclass(frozen=True)
class StatisticsReport:
    """Empirical estimate/unveil rates with binomial standard errors.

    ``p_estimate`` is the fraction of runs where Bob's estimate matched the
    bit Alice stood behind (her commitment when honest, her target when
    cheating); an abstaining honest Bob is scored 0.5 by definition with
    zero standard error.  ``p_unveil`` is the fraction of runs whose final
    outcome equalled the drawn target bit.
    """

    p_estimate: float
    p_estimate_stderr: float
    p_unveil: float
    p_unveil_stderr: float
    n_runs: int


def binomial_stderr(p_hat: float, n: int) -> float:
    return float(np.sqrt(max(0.0, p_hat * (1.0 - p_hat)) / n))


def _game_rates(tables: StrategyTables, mass: np.ndarray, total: float) -> tuple[float, float]:
    """(p_estimate, p_unveil) of the commitment game, summed over the cells of ``tables``.

    ``mass`` holds run counts (``total`` = the run count) or exact
    probabilities (``total`` = 1).  A run is unveiled when its outcome is
    its target; it is estimated when Bob's estimate is the committed bit
    (honest Alice) or the target (cheating Alice).  An abstaining Bob
    scores 0.5 by definition.
    """
    commit, estimate, target, outcome = np.indices(mass.shape, sparse=True)
    p_unveil = float(mass.sum(where=outcome == target) / total)
    if not tables.bob_cheats:
        return 0.5, p_unveil
    reference = commit if tables.alice_honest else target
    return float(mass.sum(where=estimate == reference) / total), p_unveil


def exact_statistics(
    p: PurificationProtocol, alice: AliceStrategy, bob: BobStrategy
) -> tuple[float, float]:
    """Exact (p_estimate, p_unveil) expectations for a strategy pairing.

    These are the numbers the Monte Carlo of :func:`estimate_statistics`
    converges to: the same rule, read from the cell probabilities of the
    strategy tables instead of sampled counts.
    """
    tables = strategy_tables(p, alice, bob)
    return _game_rates(tables, tables.cell_probabilities(), 1.0)


def estimate_statistics(
    p: PurificationProtocol,
    alice: AliceStrategy,
    bob: BobStrategy,
    n_runs: int,
    seed: int,
) -> StatisticsReport:
    """Monte Carlo estimate of Bob's guess rate and Alice's unveil rate.

    Per-run probabilities are computed exactly once per configuration; the
    runs are counted per table cell by
    :meth:`StrategyTables.sample_cells`, vectorized and streamed in bounded
    memory.  Run i consumes the fixed-width block of four uniforms at
    offset 4*i of a Philox counter stream keyed by ``seed`` (columns:
    committed bit, target bit, holding-phase estimate, final outcome), so
    results are reproducible and independent of any execution order.
    Target bits are drawn uniformly; honest Alice with ``bit=None`` also
    draws her committed bit uniformly per run (equal priors), which is the
    setting in which the closed forms p_estimate = (1 + D)/2 and
    p_unveil = (1 + F)/2 apply.
    """
    tables = strategy_tables(p, alice, bob)
    p_estimate, p_unveil = _game_rates(tables, tables.sample_cells(n_runs, seed), n_runs)
    return StatisticsReport(
        p_estimate=p_estimate,
        p_estimate_stderr=binomial_stderr(p_estimate, n_runs) if tables.bob_cheats else 0.0,
        p_unveil=p_unveil,
        p_unveil_stderr=binomial_stderr(p_unveil, n_runs),
        n_runs=n_runs,
    )


# --------------------------------------------------------------------------
# desk-scale optimality search


@dataclass(frozen=True)
class CheatSearchResult:
    best_value: float
    candidates_evaluated: int


def random_cheat_search(
    p: PurificationProtocol,
    n_candidates: int,
    seed: int,
    refine_fraction: float = 0.2,
) -> CheatSearchResult:
    """Search over cheating strategies (state, unitary pair) for Alice.

    Each candidate is a committed state |psi> with proof-side unveiling
    unitaries (v0, v1); its value is the average acceptance probability
    (|<chi0|(v0 ⊗ I)|psi>|^2 + |<chi1|(v1 ⊗ I)|psi>|^2) / 2.  Most of the
    budget goes to independent uniform draws; the remainder is spent on
    alternating best-response ascent from random starts (optimal unitaries
    for the current state via the orthogonal-Procrustes solution, then the
    optimal state for the current unitaries), each iterate counted as one
    candidate.  Independent of the closed-form construction in
    :func:`optimal_cheat_kit`, which it is used to cross-check.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    rng = np.random.default_rng(seed)
    dp, dt = p.dim_proof, p.dim_token
    dim = dp * dt
    a0 = p.chi0.as_matrix()
    a1 = p.chi1.as_matrix()

    refine_budget = int(n_candidates * refine_fraction)
    n_raw = n_candidates - refine_budget

    best = 0.0

    if n_raw > 0:
        psi = rng.standard_normal((n_raw, dim)) + 1j * rng.standard_normal((n_raw, dim))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        a_psi = psi.reshape(n_raw, dp, dt)
        values = np.zeros(n_raw)
        for a_chi in (a0, a1):
            z = rng.standard_normal((n_raw, dp, dp)) + 1j * rng.standard_normal((n_raw, dp, dp))
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r, axis1=1, axis2=2)
            haar = q * (diag / np.abs(diag))[:, None, :]
            amp = np.einsum("pt,npq,nqt->n", a_chi.conj(), haar, a_psi)
            values += 0.5 * np.abs(amp) ** 2
        best = float(values.max())

    iters_per_start = 20
    n_starts = max(1, refine_budget // iters_per_start) if refine_budget > 0 else 0
    for _ in range(n_starts):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        a_psi = (vec / np.linalg.norm(vec)).reshape(dp, dt)
        for _ in range(iters_per_start):
            v0, v1 = (polar_unitary(a_psi @ a_chi.conj().T)[0] for a_chi in (a0, a1))
            merged, overlap = phase_aligned_sum(
                (v0.conj().T @ a0).reshape(-1), (v1.conj().T @ a1).reshape(-1)
            )
            best = max(best, float((1.0 + overlap) / 2.0))
            a_psi = merged.reshape(dp, dt)

    return CheatSearchResult(best, n_raw + n_starts * iters_per_start)
