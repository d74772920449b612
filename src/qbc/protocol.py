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
root of a reduction.  Qubit tokens take elementwise closed forms with no
LAPACK call; larger tokens take one ``eigvalsh`` and one ``svd`` call per
stack.  A single report and a whole family sweep take the same route.

Both optimal strategies are constructed explicitly and can be run through
a Born-rule Monte Carlo, either one transcript at a time
(:func:`simulate_run`) or in bulk (:func:`estimate_statistics`).  Both
read the exact per-configuration :class:`StrategyTables`, which the coin
toss samples too.  A protocol keeps four cached values, each built only
when first read, by its own builder: the security report, from the core
on a stack of one; the token reductions, from one ``token_reductions``
call; the cheat kit, from one ``aligned_superposition`` call; and the
tables of all eight strategy pairings, from the kit, the reductions and
their Helstrom measurement.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .distinguish import aligned_superposition, helstrom
from .errors import DimMismatch, NotAMeasurement, NotOrthogonal, ParamOutOfRange, QbcError
from .linalg import (
    TOL,
    BipartiteState,
    DensityOperator,
    PureState,
    _checked_entries,
    _checked_integer,
    _is_integer,
    _seeded_generator,
    bipartite,
    check_spectra,
    normalize_states,
    qubit_token_core,
    random_pure_state,
    token_reductions,
)


@dataclass(frozen=True)
class PurificationProtocol:
    """Validated pair of orthogonal commitment states on proof ⊗ token; the dims are chi0's."""

    chi0: BipartiteState
    chi1: BipartiteState

    def __post_init__(self):
        (p0, t0), (p1, t1) = ((chi.dim_proof, chi.dim_token) for chi in (self.chi0, self.chi1))
        if (p0, t0) != (p1, t1):
            raise DimMismatch(f"commitment state dims {p0}x{t0} != {p1}x{t1}")
        checked_stacks(self.as_matrices()[:, None])

    @property
    def dim_proof(self) -> int:
        return self.chi0.dim_proof

    @property
    def dim_token(self) -> int:
        return self.chi0.dim_token

    def chi(self, bit: int) -> BipartiteState:
        return self.chi1 if bit else self.chi0

    def as_matrices(self) -> np.ndarray:
        """chi0 and chi1 as one (2, dim_proof, dim_token) array: a stack of one, less its n axis."""
        return np.array([self.chi0.as_matrix(), self.chi1.as_matrix()])

    @cached_property
    def _report(self) -> SecurityReport:
        """The security report, from :func:`distance_fidelity` on first use.

        No cached value is a field, so equality and repr ignore them; a frozen
        dataclass allows them, as ``cached_property`` writes the instance ``__dict__``.
        """
        (d,), (f,) = distance_fidelity(self.as_matrices()[:, None])
        return SecurityReport(float(d), float(f))

    @cached_property
    def _reductions(self) -> tuple[DensityOperator, DensityOperator]:
        """The token reductions (rho0, rho1), from one ``token_reductions`` call on first use."""
        return tuple(DensityOperator(rho) for rho in token_reductions(self.as_matrices()))

    @cached_property
    def _kit(self) -> CheatKit:
        """The cheat kit of :func:`optimal_cheat_kit`, from one ``aligned_superposition`` call."""
        u1, vec, overlap = aligned_superposition(self.chi0.as_matrix(), self.chi1.as_matrix())
        u0 = np.eye(self.dim_proof, dtype=np.complex128)
        u0.flags.writeable = u1.flags.writeable = False
        psi_max = bipartite(self.dim_proof, self.dim_token, vec)
        return CheatKit(psi_max, u0, u1, (1.0 + min(float(overlap), 1.0)) / 2.0)

    @cached_property
    def _tables(self) -> dict:
        """The :class:`StrategyTables` of the eight pairings, keyed (alice, bob), on first use.

        They read the cached kit and reductions and make the one Helstrom
        measurement of the reductions, which serves the tables only.  Both
        cheats are one-sided, so every step of the eight tables is a product
        with the stack of commitment matrices A (context, proof, token) =
        (chi0, chi1, psi_max): Bob's Helstrom collapse onto estimate e is A
        P_e^T, steering toward target t is S_ct A (the kit's u_t in the cheat
        context, the identity u0 in the honest ones, where Alice unveils her
        commitment whatever the target), and verification reads |<chi_b|A>|^2.
        No operator on the whole proof ⊗ token space is formed.
        """
        chi = self.as_matrices()
        measurement = helstrom(*self._reductions)
        u0, u1 = self._kit.u0, self._kit.u1
        committed = np.concatenate([chi, [self._kit.psi_max.as_matrix()]])
        steer = np.array([[u0, u0], [u0, u0], [u0, u1]])  # (context, target, proof, proof)

        token_projs = np.array([measurement.projector0, measurement.projector1])
        prob0 = np.einsum("cpt,ts,cps->c", committed.conj(), token_projs[0], committed).real
        est_prob0 = np.clip(prob0, 0.0, 1.0)
        collapsed = committed[:, None] @ np.swapaxes(token_projs, -2, -1)
        norms = np.linalg.norm(collapsed, axis=(-2, -1), keepdims=True)
        # A branch of probability ~0 is never sampled; it stays zero.
        collapsed = np.divide(collapsed, norms, out=np.zeros_like(collapsed), where=norms >= 1e-12)

        tables = {}
        for bob, est, branches in (  # branches: (context, estimate, proof, token)
            (HonestBob(), None, committed[:, None]), (HelstromBob(), est_prob0, collapsed)
        ):
            steered = steer[:, None] @ branches[:, :, None]  # one more axis: the target
            out_cum = np.abs(np.einsum("bpt,...pt->...b", chi.conj(), steered)) ** 2
            out_cum[..., 1] += out_cum[..., 0]  # P(0), P(0 or 1), each capped at 1 against rounding
            np.minimum(out_cum, 1.0, out=out_cum)
            out_cum.flags.writeable = est_prob0.flags.writeable = False
            for alice, (first, count) in _ALICE_CONTEXTS.items():
                tables[alice, bob] = StrategyTables(first, count, est, out_cum)
        return tables


def checked_stacks(a: np.ndarray) -> np.ndarray:
    """Validate n protocols given as one (2, n, dim_proof, dim_token) array, chi0 at index 0.

    ``a`` is copied through the entry rule of :func:`~qbc.linalg._checked_entries`.
    Any other shape, or a zero dim, is a ``DimMismatch``.  Each state must pass the
    norm rule of :func:`~qbc.linalg.normalize_states` (and may be renormalized), and no
    pair may overlap by more than ``TOL`` (``NotOrthogonal``); a
    :class:`PurificationProtocol` is checked by the same call with n = 1.
    Returns a validated complex copy; the caller's array is never written.
    """
    stacks = _checked_entries(a, "protocol stack")
    if stacks.ndim != 4 or stacks.shape[0] != 2 or 0 in stacks.shape[2:]:
        raise DimMismatch(f"protocol stack shape {stacks.shape} is not (2, n, dim_proof, dim_token)")
    normalize_states(stacks.reshape(-1, stacks.shape[-2] * stacks.shape[-1]))
    overlap = float(np.abs(np.einsum("npt,npt->n", stacks[0].conj(), stacks[1])).max(initial=0.0))
    if overlap > TOL:
        raise NotOrthogonal(f"|<chi0|chi1>| = {overlap} exceeds {TOL}")
    return stacks


def random_protocol(dim_proof: int, dim_token: int, seed) -> PurificationProtocol:
    """Random protocol: Haar chi0, chi1 Gram-Schmidt-orthogonalized against it.

    ``seed`` and the dims are checked as by :func:`~qbc.linalg.random_pure_state`; dims
    whose product is below 2, too few for two orthogonal states, are refused before any draw.
    """
    dim = _checked_integer(dim_proof, "dim_proof", 1, DimMismatch)
    dim *= _checked_integer(dim_token, "dim_token", 1, DimMismatch)
    if dim < 2:
        raise DimMismatch(f"dim_proof * dim_token must be >= 2 for an orthogonal pair, got {dim}")
    rng = _seeded_generator(seed)
    chi0 = random_pure_state(dim, rng)
    raw = random_pure_state(dim, rng).amplitudes
    raw = raw - np.vdot(chi0.amplitudes, raw) * chi0.amplitudes
    norm = np.linalg.norm(raw)
    if norm < 1e-8:
        raise QbcError("degenerate draw while orthogonalizing chi1")
    chi1 = PureState(raw / norm)
    return PurificationProtocol(
        BipartiteState(dim_proof, dim_token, chi0),
        BipartiteState(dim_proof, dim_token, chi1),
    )


# --------------------------------------------------------------------------
# strategies and records


def _checked_bit(value, name: str) -> int:
    """``value`` as the int 0 or 1; a bool or a non-integral value is refused."""
    if not _is_integer(value) or value not in (0, 1):
        raise ParamOutOfRange(f"{name} must be the integer 0 or 1, got {value!r}")
    return int(value)


def _check_generator(rng) -> None:
    """Refuse any ``rng`` but a ``numpy.random.Generator``: a seed per call would replay one run."""
    if not isinstance(rng, np.random.Generator):
        raise ParamOutOfRange(f"rng must be a numpy.random.Generator, got {rng!r}")


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

# Commitment contexts: 0 and 1 are chi0 and chi1, CHEAT_CONTEXT the kit's
# psi_max.  Each Alice commits one of ``count`` contexts from ``first`` on.
CHEAT_CONTEXT = 2
_ALICE_CONTEXTS = {  # alice: (first, count)
    HonestAlice(): (0, 2),
    HonestAlice(0): (0, 1),
    HonestAlice(1): (1, 1),
    CheatingAlice(): (CHEAT_CONTEXT, 1),
}


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
    """Exact one-shot security figures of a protocol instance: D, F, g_max = D/2, c_max = F/2."""

    trace_distance: float
    fidelity: float

    @property
    def g_max(self) -> float:
        return self.trace_distance / 2.0

    @property
    def c_max(self) -> float:
        return self.fidelity / 2.0


@dataclass(frozen=True, eq=False)
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
    """Token-side reductions (rho0, rho1) of the honest commitment states, kept by the protocol."""
    return p._reductions


def distance_fidelity(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace distances and fidelities of the token reductions of a stack of protocols.

    ``a`` holds the amplitude matrices A_b of n protocols as one (2, n,
    dim_proof, dim_token) array, chi0 at index 0 and chi1 at index 1, as
    :func:`checked_stacks` returns it.  The reductions rho_b = A_b^T A_b^*
    (:func:`~qbc.linalg.token_reductions`), written with rho0 - rho1 into one
    (3, n, dim_token, dim_token) buffer, pass the density rule of
    :func:`~qbc.linalg.check_spectra`, as in :class:`DensityOperator`; then

        D = (1/2) sum |eigenvalues of rho0 - rho1|
        F = sum of singular values of A1 A0^dag      (Uhlmann's theorem)

    each capped at 1.  For dim_token = 2 the spectra, D and F have closed
    forms (:func:`~qbc.linalg.qubit_token_core`), and the stack costs no
    LAPACK call; for larger tokens it costs one ``eigvalsh`` and one ``svd``
    call.  F takes no square root of a reduction on either path, so it
    stays exact where a reduction has eigenvalues far below rounding noise
    (F = 1e-7 at an eigenvalue of 1e-14).
    """
    _, n, _, dim_token = a.shape
    rho = np.empty((3, n, dim_token, dim_token), dtype=np.complex128)
    # A bit at a time: both bits' temporaries at once are fresh pages on every sweep chunk.
    rho[0] = token_reductions(a[0])
    rho[1] = token_reductions(a[1])
    np.subtract(rho[0], rho[1], out=rho[2])
    if dim_token == 2:
        eigenvalues, d, f = qubit_token_core(rho, a)
    else:
        eigenvalues = np.linalg.eigvalsh(rho)
        d = 0.5 * np.abs(eigenvalues[2]).sum(axis=-1)
        f = np.linalg.svd(a[1] @ a[0].mT.conj(), compute_uv=False).sum(axis=-1)
    check_spectra(eigenvalues[:2])
    return np.minimum(d, 1.0), np.minimum(f, 1.0)


def security_report(p: PurificationProtocol) -> SecurityReport:
    """D and F of the protocol, from :func:`distance_fidelity` on a stack of one.

    This is the sweep's own call; the protocol keeps its result, and no
    other cached value is built for it.
    """
    return p._report


def optimal_cheat_kit(p: PurificationProtocol) -> CheatKit:
    """Alice's optimal cheating strategy; its unitaries are read-only.

    :func:`~qbc.distinguish.aligned_superposition` of the chi pair gives
    the proof-side unitary u1 aligning chi1 with chi0; with u0 = I, Alice
    commits the normalized superposition

        psi_max ∝ (u0^dag ⊗ I)|chi0> + e^{-i arg c} (u1^dag ⊗ I)|chi1>,

    c being the overlap of the two terms (real and nonnegative by the
    alignment; the phase is 1 when c vanishes).  Both
    |<chi_b|(u_b ⊗ I)|psi_max>|^2 then equal (1 + F)/2.  ``per_bit_success``
    is that float with c capped at 1, as :func:`~qbc.distinguish.max_fidelity_sq_sum`
    caps it, so rounding at F = 1 cannot give a probability above 1.
    """
    return p._kit


# --------------------------------------------------------------------------
# Born-rule sampling


def born_sample(state: PureState, projectors: Sequence[np.ndarray], rng) -> int:
    """Sample an outcome index of a projective measurement on a pure state.

    The projectors must sum to the identity and be mutually orthogonal to
    within ``TOL``, the slack of every identity check; a projector that
    NumPy cannot read as complex numbers (a string, a ragged nesting) is
    refused with ``NotAMeasurement`` too.  Exactly one uniform
    draw is consumed from ``rng``, a ``numpy.random.Generator``
    (``ParamOutOfRange`` otherwise).
    """
    _check_generator(rng)
    dim = state.dim
    try:
        projectors = [np.asarray(proj, dtype=np.complex128) for proj in projectors]
    except (TypeError, ValueError, OverflowError) as exc:
        raise NotAMeasurement(f"projector is not an array of numbers: {exc}") from None
    for proj in projectors:
        if proj.shape != (dim, dim):
            raise NotAMeasurement(f"projector shape {proj.shape} does not match dim {dim}")
    if not np.max(np.abs(sum(projectors) - np.eye(dim))) <= TOL:  # a NaN compares False
        raise NotAMeasurement("projectors do not sum to the identity")
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            if not np.max(np.abs(projectors[i] @ projectors[j])) <= TOL:
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

# Runs drawn per chunk by the bulk sampler, and the most chunks it counts at
# once: its peak memory, about 1.6 MiB per worker, is bounded on any host.
MC_CHUNK_RUNS = 1 << 15
MC_MAX_WORKERS = 8


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _philox_words(seed: int, step: int, n_steps: int) -> np.ndarray:
    """The 64-bit words of Philox counter steps ``step`` to ``step + n_steps``, four per step.

    The stream is keyed by ``seed``.  This is the one draw layer of the bulk
    sampler and the cheat search; ``Generator.random`` would make the
    uniform (w >> 11) * 2**-53 of a word w.
    """
    bit_generator = np.random.Philox(seed)
    bit_generator.advance(step)
    return bit_generator.random_raw(4 * n_steps)


FAIR_THRESHOLD = 1 << 52  # ceil(0.5 * 2**53): a fair bit is m >= 2**52


@dataclass(frozen=True, eq=False)
class StrategyTables:
    """Exact per-configuration probabilities for one strategy pairing.

    Alice commits one of the ``count`` contexts from ``first`` on, drawn
    uniformly (see ``CHEAT_CONTEXT``).  ``est_prob0[c]`` is the chance a
    measuring Bob sees estimate 0 given context c (absent when he
    abstains).  ``out_cum[c, e, t]`` holds the cumulative final-outcome
    probabilities (P(0), P(0 or 1)) when Alice stands behind bit t.  Both
    arrays cover all three contexts and are shared by the four Alices
    facing the same Bob.

    A run lands in one cell (commitment context, estimate, target,
    outcome) of shape ``out_cum.shape[:3] + (3,)``; an abstaining Bob's
    estimate is 0.  Single runs (the ``draw_*`` methods) take one uniform
    per step played, bulk runs (:meth:`sample_cells`) the four 64-bit words
    of one Philox counter step; both apply the same rules: a bit is
    ``u >= 1/2``, an estimate ``u >= est_prob0[c]``, and an outcome counts
    the cumulative edges at or below ``u``.  A bulk run applies them to
    the top 53 bits m of its words, as ``m >= ceil(p * 2**53)``: bit for
    bit the rule on u = m * 2**-53 (:attr:`_thresholds`).
    :meth:`cell_probabilities` gives the exact mass of each cell, so a
    sampled rate and its prediction are the same sum of cells.
    """

    first: int
    count: int
    est_prob0: np.ndarray | None
    out_cum: np.ndarray
    _thresholds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # k = ceil(p * 2**53) of est_prob0 and the out_cum edges: m >= k exactly
        # when u = m * 2**-53 >= p, as the scaling is exact and m an integer.
        # Set at construction, not on first use: no pool worker fills it, and
        # an attribute added later would slow every attribute read of the table.
        est = self.est_prob0
        if est is not None:
            est = np.ceil(est * 2.0**53).astype(np.uint64)
        edges = np.ceil(self.out_cum.reshape(-1, 2) * 2.0**53).astype(np.uint64)
        object.__setattr__(self, "_thresholds", (est, edges))

    @property
    def bob_cheats(self) -> bool:
        """Whether Bob measures the token: exactly when the table has ``est_prob0``."""
        return self.est_prob0 is not None

    def draw_commit(self, rng) -> int:
        """Commitment context of one run; a uniform is drawn only between two contexts."""
        if self.count == 2:
            return self.first + int(rng.random() >= 0.5)
        return self.first

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

        Run i consumes the four 64-bit words of counter step i of a Philox
        stream keyed by ``seed`` (columns: committed bit, coin, holding-phase
        estimate, final outcome), from :func:`_philox_words`, which the cheat
        search shares; a rule ``u >= p`` compares a word's top 53 bits with
        ``ceil(p * 2**53)``, bit for bit.  Alice stands behind the coin, or
        with ``against_guess`` (the coin toss, where the coin is Bob's
        guess) behind its complement.

        The runs are cut into chunks of ``MC_CHUNK_RUNS``, each counted by
        :meth:`_chunk_counts` from its own generator advanced to the chunk's
        first run, and the integer counts are summed.  ``workers`` threads
        count chunks, one per available CPU, at most one per chunk and
        ``MC_MAX_WORKERS`` in all: the caller's thread and a pool of
        ``workers - 1`` threads, made and shut down within the call (no pool
        for one worker).  Each takes the next chunk from one lock-guarded
        counter and adds its counts into an array of its own.  Once a chunk
        fails or the caller is interrupted, no thread takes another chunk,
        so at most ``workers - 1`` chunks start after it.  Counts are
        therefore those of a single ``(n_runs, 4)`` block whatever the core
        count or the order in which chunks finish, and memory (about 1.6 MiB
        per worker, the caller included) does not grow with ``n_runs``.  A
        bool, non-integral or negative ``seed`` is refused with
        ``ParamOutOfRange``.
        """
        n_runs = _checked_integer(n_runs, "the run count", 1)
        seed = _checked_integer(seed, "the seed", 0)
        workers = min(_available_cpus(), -(-n_runs // MC_CHUNK_RUNS), MC_MAX_WORKERS)
        shape = self.out_cum.shape[:3] + (3,)
        lock = threading.Lock()
        next_start = 0  # a Python int: any run count is reached

        def count_chunks(pool=None):
            # The loop of every counting thread.  Given the pool, the caller
            # also starts its threads, holding the lock so that no chunk starts
            # while an interrupt could cut a thread start short, and adds in
            # their arrays.  A thread that leaves, at the end or by an exception
            # (an interrupt included), moves the counter to the end: no thread
            # takes another chunk.
            nonlocal next_start
            counts = np.zeros(np.prod(shape), dtype=np.int64)
            try:
                with lock:
                    helpers = [pool.submit(count_chunks) for _ in range(workers - 1) if pool]
                while True:
                    with lock:
                        start, next_start = next_start, next_start + MC_CHUNK_RUNS
                    if start >= n_runs:
                        return counts + sum(helper.result() for helper in helpers)
                    size = min(MC_CHUNK_RUNS, n_runs - start)
                    counts += self._chunk_counts(seed, start, size, against_guess)
            finally:
                with lock:
                    next_start = n_runs

        if workers == 1:
            return count_chunks().reshape(shape)
        # Imported here, so that commands which never sample never import it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:
            return count_chunks(pool).reshape(shape)

    def _chunk_counts(self, seed: int, start: int, count: int, against_guess: bool) -> np.ndarray:
        """Flat cell counts of runs ``start`` to ``start + count`` of the stream keyed by ``seed``.

        Run i is the four words of counter step i; each rule compares their
        top 53 bits m with :attr:`_thresholds`.
        """
        est_thresholds, edges = self._thresholds
        m = _philox_words(seed, start, count).reshape(count, 4)
        m >>= 11
        # Each run's flat cell index ((c * n_e + e) * 2 + t) * 3 + o grows
        # in place; before the outcome it is the run's row of ``edges``.
        if self.count == 2:
            cell = np.add(m[:, 0] >= FAIR_THRESHOLD, self.first, dtype=np.intp)
        else:
            cell = np.full(count, self.first, dtype=np.intp)
        if self.bob_cheats:
            estimate = m[:, 2] >= est_thresholds.take(cell)
            cell *= 2
            cell += estimate
        cell *= 2
        cell += (m[:, 1] >= FAIR_THRESHOLD) != against_guess
        draw = m[:, 3]
        outcome = (draw >= edges[:, 0].take(cell)).view(np.uint8)
        outcome += draw >= edges[:, 1].take(cell)
        cell *= 3
        cell += outcome
        return np.bincount(cell, minlength=3 * len(edges))

    def cell_probabilities(self) -> np.ndarray:
        """Exact probability of each cell of :meth:`sample_cells` (the target is a fair bit)."""
        context = np.zeros((len(self.out_cum), 1))  # Alice's context and the fair target
        context[self.first : self.first + self.count] = 0.5 / self.count
        if self.bob_cheats:
            context = context * np.column_stack([self.est_prob0, 1.0 - self.est_prob0])
        # P(0), P(1), P(fail): the steps between the edges 0, P(0), P(0 or 1), 1.
        outcome = np.concatenate([self.out_cum, np.ones_like(self.out_cum[..., :1])], axis=-1)
        outcome[..., 1:] -= self.out_cum
        return context[:, :, None, None] * outcome


def strategy_tables(
    p: PurificationProtocol, alice: AliceStrategy, bob: BobStrategy
) -> StrategyTables:
    """Exact tables of a strategy pairing; shared by every sampler.

    Both optimal cheats are fixed by the protocol, so it keeps the tables of
    all eight pairings (four Alices, two Bobs), built on the first call;
    every call returns the same objects.  Their arrays are read-only, because
    every caller shares them.  Any other pairing is refused with ``ParamOutOfRange``.
    """
    try:
        return p._tables[alice, bob]
    except (KeyError, TypeError):  # TypeError: an unhashable strategy
        raise ParamOutOfRange(f"unknown strategy pairing: alice={alice!r}, bob={bob!r}") from None


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
    Any ``rng`` but a ``numpy.random.Generator`` is refused before any draw.
    """
    target_bit = _checked_bit(target_bit, "target_bit")
    _check_generator(rng)
    tables = strategy_tables(p, alice, bob)
    commit = tables.draw_commit(rng)
    estimate = tables.draw_estimate(commit, rng) if tables.bob_cheats else None
    outcome = tables.draw_outcome(commit, estimate or 0, target_bit, rng)
    committed = None if commit == CHEAT_CONTEXT else commit
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
    (an honest context) or the target (the cheat context).  An abstaining
    Bob scores 0.5 by definition.
    """
    commit, estimate, target, outcome = np.indices(mass.shape, sparse=True)
    p_unveil = float(mass.sum(where=outcome == target) / total)
    if not tables.bob_cheats:
        return 0.5, p_unveil
    reference = np.where(commit == CHEAT_CONTEXT, target, commit)
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
    :meth:`StrategyTables.sample_cells`, vectorized and streamed in chunks
    (about 1.6 MiB per worker), on every available core: the caller's thread
    counts chunks beside a pool of ``workers - 1`` threads, and at most
    ``workers - 1`` chunks start after a chunk fails or the caller is
    interrupted.  Run i consumes the four
    64-bit words of counter step i of a Philox stream keyed by ``seed``
    (columns: committed bit, target bit, holding-phase estimate, final
    outcome), so results are reproducible and independent of any execution
    order.  A rule ``u >= p`` compares a word's top 53 bits with
    ``ceil(p * 2**53)``, bit for bit; the cheat search shares the draw
    helper.  Target bits are drawn uniformly;
    honest Alice with ``bit=None`` also draws her committed bit uniformly
    per run (equal priors), which is the setting in which the closed forms
    p_estimate = (1 + D)/2 and p_unveil = (1 + F)/2 apply.  A bool,
    non-integral or negative ``seed`` is refused with ``ParamOutOfRange``.
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


# Iterates of one ascent, and ascent starts run per stack, so the search's
# memory is bounded whatever its budget.
ASCENT_ITERATES = 20
ASCENT_STACK = 512
# Philox counter step of ascent start 0's draws.
_SEARCH_STEP = 1 << 128


def random_cheat_search(p: PurificationProtocol, n_candidates: int, seed: int) -> CheatSearchResult:
    """Search over cheating strategies (state, unitary pair) for Alice.

    A candidate is a committed state |psi> with proof-side unveiling
    unitaries (v0, v1), valued at the average acceptance probability
    (|<chi0|(v0 ⊗ I)|psi>|^2 + |<chi1|(v1 ⊗ I)|psi>|^2) / 2.  Every
    candidate is an iterate of an alternating best-response ascent from a
    random start: optimal unitaries for the current state (orthogonal
    Procrustes), then the optimal state for those unitaries.  With it =
    min(``ASCENT_ITERATES``, ``n_candidates``), the budget buys
    ``n_candidates // it`` ascents of ``it`` iterates and one last ascent of
    the ``n_candidates % it`` left, from the next start: exactly
    ``n_candidates`` candidates.  Independent of the closed form of
    :func:`optimal_cheat_kit`, which it cross-checks.

    The chi pair is factored once, A_b = Q_b R_b with R_b of shape
    (k, dim_token), k = min(dim_proof, dim_token), so an iterate is one
    ``svd`` call on k x dim_proof matrices for the whole stack of starts and
    both bits, and a few products of k x k Gram blocks with its factors
    (:func:`_ascent_values`).  Start i draws a fixed-width block
    of a Philox stream keyed by ``seed`` at its own offset
    (:func:`_complex_normals`), and ascents run in stacks of
    ``ASCENT_STACK`` starts.  So the result is a pure function of
    ``(protocol, n_candidates, seed)`` whatever the stack size, and memory
    does not grow with the budget.  A bool, non-integral or negative
    ``seed`` is refused with ``ParamOutOfRange``.
    """
    n_candidates = _checked_integer(n_candidates, "n_candidates", 1)
    seed = _checked_integer(seed, "the seed", 0)
    r = np.linalg.qr(p.as_matrices(), mode="r")

    iterates = min(ASCENT_ITERATES, n_candidates)
    n_full, rest = divmod(n_candidates, iterates)
    stacks = [
        (first, min(ASCENT_STACK, n_full - first), iterates)
        for first in range(0, n_full, ASCENT_STACK)
    ]
    if rest:
        stacks.append((n_full, 1, rest))
    best = max(float(_ascent_values(r, p.dim_proof, seed, *stack).max()) for stack in stacks)
    return CheatSearchResult(best, n_candidates)


def _complex_normals(seed: int, first: int, count: int, width: int) -> np.ndarray:
    """Standard complex normals, ``width`` for each item ``first`` to ``first + count``.

    Item i takes the ceil(width / 2) Philox counter steps (four words each)
    from step ``_SEARCH_STEP + i * ceil(width / 2)`` of the stream keyed
    by ``seed``.  A word w is the uniform (w >> 11) * 2**-53, as from
    ``Generator.random``, and each pair (u, v) gives the normal
    sqrt(-ln(1 - u)) e^{2 pi i v}.  Every item takes the same number of
    steps, so its normals do not depend on which items are drawn with it.
    """
    steps = -(-width // 2)
    u = _philox_words(seed, _SEARCH_STEP + first * steps, count * steps) >> 11
    u = (u * 2.0**-53).reshape(count, 2 * steps, 2)[:, :width]  # frees the words
    return np.sqrt(-np.log1p(-u[..., 0])) * np.exp(2j * np.pi * u[..., 1])


def _best_response_factors(m: np.ndarray) -> np.ndarray:
    """H_b = W_b V_b^dag for each M_b = W_b S_b V_b^dag of a (..., k, dim_proof) stack.

    H_b^dag is the :func:`~qbc.distinguish.polar_unitary` of M_b, from one
    ``svd`` call for the whole stack.  With M_b = R_b A_psi^dag, H_b^dag R_b
    = v_b^dag A_b for the proof unitary v_b best against chi_b for the state
    A_psi: the orthogonal-Procrustes step of the full polar of A_psi A_b^dag.
    """
    w, _, vh = np.linalg.svd(m, full_matrices=False)
    return w @ vh


def _ascent_values(
    r: np.ndarray, dp: int, seed: int, first: int, count: int, iterates: int
) -> np.ndarray:
    """Best iterate value of each ascent from starts ``first`` to ``first + count``, stacked.

    The best responses to a state psi are phi_b = H_b^dag R_b, with H_b the
    :func:`_best_response_factors` of M_b = R_b psi^dag, and the ascent
    carries H_b, not the state.  With the Gram blocks G_bc = R_b R_c^dag,
    the responses overlap by c = <phi0|phi1> = Tr(H0 H1^dag G10).  The next
    state phi0 + (c/|c|)^* phi1 (phase 1 where |c| <= 1e-12, the rule of
    :func:`~qbc.distinguish.phase_aligned_sum`) has M_b = G_b0 H0 + G_b1 H1
    once H1 is scaled by c/|c|.  The polar factor does not depend on the
    scale of M, so that state is never formed or normalized; only the first
    M, R_b A_psi^dag, is formed from the start's draws.
    """
    k, dt = r.shape[1:]
    z = _complex_normals(seed, first, count, dp * dt)
    a_psi = (z / np.linalg.norm(z, axis=-1, keepdims=True)).reshape(count, 1, dp, dt)
    gram = r[:, None] @ r.mT.conj()  # gram[b, c] = G_bc
    g10, row = gram[1, 0], np.concatenate((gram[:, 0], gram[:, 1]), axis=-1)  # row b: [G_b0 | G_b1]
    m = r @ a_psi.mT.conj()
    overlaps = []
    for _ in range(iterates):
        h = _best_response_factors(m)  # (count, 2, k, dp)
        c = np.vecdot(h[:, 1].reshape(count, -1), (g10 @ h[:, 0]).reshape(count, -1))
        overlap = np.abs(c)
        h[:, 1] *= np.divide(c, overlap, out=np.ones_like(c), where=overlap > 1e-12)[:, None, None]
        overlaps.append(overlap)
        m = row @ h.reshape(count, 1, 2 * k, dp)
    return (1.0 + np.minimum(np.max(overlaps, axis=0), 1.0)) / 2.0  # as optimal_cheat_kit caps it
