"""Tests of the shared Monte Carlo engine behind commitment and coin toss.

* Transcripts: ``simulate_run`` and ``simulate_toss`` read the strategy
  tables; a straightforward Born-rule replay (``born_sample`` on explicit
  Helstrom-extended and verification projectors) is the reference they
  must agree with, draw for draw.
* Bulk statistics: values pinned from the single-block sampler, at sizes
  below, across and well past one chunk of the streamed Philox draws; the
  counts are the same on 1, 2 and 3 workers, and equal a count made here
  from one block of doubles by the documented rules on u.  The sampler's
  integer rule on the top 53 bits of a word is that rule on u, checked at
  the edges of the thresholds.
* Cells: the joint counts of the bulk sampler over (commitment context,
  estimate, target, outcome) agree with the exact cell probabilities, each
  within 6 sigma and all of a pairing's or a toss's at once by a Pearson
  chi-square; a cell of probability 0 holds no run.
* Memory and threads: at a million runs the bulk samplers' peak
  allocation stays within 16 bytes per run (one block of all the uniforms
  would take 32) and at most one chunk's per worker at 1e6 and 4e6 runs
  alike; no pool thread outlives a call, even one whose chunk fails.
  After a failing chunk or an interrupt, at most ``workers - 1`` further
  chunks start, and eight threads on tiny chunks still count every run once.
* Cached values: a protocol keeps four, each built on first read by its
  own builder: the report (``security_report``, from the D/F core), the
  reductions (``honest_reduced_states``), the cheat kit
  (``optimal_cheat_kit``) and the tables of all eight pairings
  (``strategy_tables``), which read the kit and the reductions and make
  the one Helstrom measurement.  A reader builds only what it reads.  The
  protocol keeps them read-only, serves every reader and sampler from them
  without a decomposition and refuses any other pairing.
"""

from __future__ import annotations

import _thread
import collections
import dataclasses
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import qbc
from conftest import EDGE_PROTOCOLS, KNOWN_ANSWER_CLASSES, known_answer_amplitudes, known_answer_spectra
from conftest import ENGINE_PROTOCOLS as PROTOCOLS
from qbc import (
    CheatingAlice,
    CoinTossProtocol,
    HelstromBob,
    HonestAlice,
    HonestBob,
    Outcome,
    PureState,
    RunRecord,
    TossResult,
    PurificationProtocol,
    born_sample,
    estimate_statistics,
    exact_statistics,
    helstrom,
    honest_reduced_states,
    optimal_cheat_kit,
    projector,
    security_report,
    simulate_run,
    simulate_toss,
    toss_statistics,
)
from qbc.protocol import (
    CHEAT_CONTEXT,
    FAIR_THRESHOLD,
    MC_CHUNK_RUNS,
    MC_MAX_WORKERS,
    StrategyTables,
    strategy_tables,
)

DRAWS = 2000
ALICES = (HonestAlice(), HonestAlice(0), HonestAlice(1), CheatingAlice())
BOBS = (HonestBob(), HelstromBob())
TOSS_KINDS = ((False, False), (True, False), (False, True))


class BornReplay:
    """Transcripts played by Born sampling on explicit projectors."""

    def __init__(self, p):
        self.p = p
        self.kit = optimal_cheat_kit(p)
        measurement = helstrom(*honest_reduced_states(p))
        eye_proof = np.eye(p.dim_proof, dtype=np.complex128)
        self.extended = [
            np.kron(eye_proof, measurement.projector0),
            np.kron(eye_proof, measurement.projector1),
        ]
        p0, p1 = projector(p.chi0.state), projector(p.chi1.state)
        self.final = [p0, p1, np.eye(p.dim_proof * p.dim_token) - p0 - p1]

    def steer(self, vec, target):
        matrix = vec.reshape(self.p.dim_proof, self.p.dim_token)
        return ((self.kit.u0, self.kit.u1)[target] @ matrix).reshape(-1)

    def run(self, alice, bob, target_bit, rng) -> RunRecord:
        if isinstance(alice, HonestAlice):
            committed = alice.bit if alice.bit is not None else int(rng.random() >= 0.5)
            vec = (self.p.chi0, self.p.chi1)[committed].amplitudes
        else:
            committed = None
            vec = self.kit.psi_max.amplitudes
        estimate = None
        if isinstance(bob, HelstromBob):
            estimate = born_sample(PureState(vec), self.extended, rng)
            vec = self.extended[estimate] @ vec
            vec = vec / np.linalg.norm(vec)
        if committed is None:
            vec = self.steer(vec, target_bit)
        outcome = Outcome(born_sample(PureState(vec), self.final, rng))
        return RunRecord(alice, bob, committed, target_bit, estimate, outcome)

    def toss(self, alice_cheats, bob_cheats, rng) -> TossResult:
        if not alice_cheats:
            committed = int(rng.random() >= 0.5)
            if bob_cheats:
                guess = born_sample((self.p.chi0, self.p.chi1)[committed].state, self.extended, rng)
            else:
                guess = int(rng.random() >= 0.5)
            return TossResult("bob" if guess == committed else "alice", alice_caught=False)
        target = 1 - int(rng.random() >= 0.5)
        steered = self.steer(self.kit.psi_max.amplitudes, target)
        outcome = Outcome(born_sample(PureState(steered), self.final, rng))
        if outcome == target:
            return TossResult("alice", alice_caught=False)
        return TossResult("bob", alice_caught=(outcome == Outcome.FAIL))


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_transcripts_match_born_replay(name):
    p = PROTOCOLS[name]()
    replay = BornReplay(p)
    ct = CoinTossProtocol(p)
    for k, (alice, bob) in enumerate(itertools.product(ALICES, BOBS)):
        ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
        for i in range(DRAWS):
            assert simulate_run(p, alice, bob, i % 2, ours) == replay.run(alice, bob, i % 2, theirs)
    for k, (alice_cheats, bob_cheats) in enumerate(TOSS_KINDS):
        ours, theirs = np.random.default_rng(100 + k), np.random.default_rng(100 + k)
        for _ in range(DRAWS):
            assert simulate_toss(ct, alice_cheats, bob_cheats, ours) == replay.toss(
                alice_cheats, bob_cheats, theirs
            )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_engine_forms_no_full_dimension_operator(name, monkeypatch):
    """Both cheats are one-sided, so the engine never needs an operator on
    the whole proof x token space: building the tables of every pairing,
    transcripts and bulk runs all work with Kronecker products refused."""
    p = PROTOCOLS[name]()
    ct = CoinTossProtocol(p)

    def refuse(*args, **kwargs):
        raise AssertionError("formed an operator on the whole proof x token space")

    monkeypatch.setattr(np, "kron", refuse)
    rng = np.random.default_rng(0)
    for alice, bob in itertools.product(ALICES, BOBS):
        strategy_tables(p, alice, bob)
        simulate_run(p, alice, bob, 1, rng)
        estimate_statistics(p, alice, bob, 1000, 0)
    for alice_cheats, bob_cheats in TOSS_KINDS:
        simulate_toss(ct, alice_cheats, bob_cheats, rng)
    for cheater in ("none", "alice", "bob"):
        toss_statistics(ct, cheater, 1000, 0)


# Recorded from the sampler that drew one (n, 4) block of uniforms per
# call: estimate_statistics on Commuting3D(0.3), seed 7, keyed by
# (n, index into ALICES, index into BOBS); toss_statistics, seed 11.
ESTIMATE_PINS = {
    (1, 0, 0): (0.5, 0.0, 1.0, 0.0, 1),
    (1, 0, 1): (1.0, 0.0, 1.0, 0.0, 1),
    (1, 1, 0): (0.5, 0.0, 1.0, 0.0, 1),
    (1, 1, 1): (1.0, 0.0, 1.0, 0.0, 1),
    (1, 2, 0): (0.5, 0.0, 0.0, 0.0, 1),
    (1, 2, 1): (0.0, 0.0, 0.0, 0.0, 1),
    (1, 3, 0): (0.5, 0.0, 1.0, 0.0, 1),
    (1, 3, 1): (1.0, 0.0, 1.0, 0.0, 1),
    (65537, 0, 0): (0.5, 0.0, 0.4986496177731663, 0.0019531029758781955, 65537),
    (65537, 0, 1): (0.6463066664632192, 0.0018676241289979003, 0.3940369562232022, 0.0019087465642816355, 65537),
    (65537, 1, 0): (0.5, 0.0, 0.5007858156461236, 0.0019531076868925378, 65537),
    (65537, 1, 1): (1.0, 0.0, 0.5007858156461236, 0.0019531076868925378, 65537),
    (65537, 2, 0): (0.5, 0.0, 0.49921418435387643, 0.0019531076868925378, 65537),
    (65537, 2, 1): (0.3004257137189679, 0.0017907798175049463, 0.2912553214214871, 0.0017747556250940198, 65537),
    (65537, 3, 0): (0.5, 0.0, 0.8499320994247525, 0.0013950595309832976, 65537),
    (65537, 3, 1): (0.5002670247341197, 0.0019531098204871868, 0.7269939118360621, 0.0017402365037790053, 65537),
    (1000003, 0, 0): (0.5, 0.0, 0.49946050161849515, 0.0004999989589435357, 1000003),
    (1000003, 0, 1): (0.6499040502878491, 0.0004769990493942505, 0.3942998171005487, 0.00048869904323086, 1000003),
    (1000003, 1, 0): (0.5, 0.0, 0.500222499332502, 0.0004999992004958064, 1000003),
    (1000003, 1, 1): (1.0, 0.0, 0.500222499332502, 0.0004999992004958064, 1000003),
    (1000003, 2, 0): (0.5, 0.0, 0.499777500667498, 0.0004999992004958064, 1000003),
    (1000003, 2, 1): (0.299671100986697, 0.00045811319847501665, 0.28954913135260596, 0.0004535524388161892, 1000003),
    (1000003, 3, 0): (0.5, 0.0, 0.8499544501366496, 0.0003571155278548589, 1000003),
    (1000003, 3, 1): (0.5002994991015027, 0.0004999991603021022, 0.7266998199005403, 0.00044565299935855375, 1000003),
}
TOSS_PINS = {
    ("fair", 1, "none"): (0.0, 1.0, 0.0, 0.0, 1),
    ("fair", 1, "alice"): (0.0, 1.0, 1.0, 0.0, 1),
    ("fair", 1, "bob"): (0.0, 1.0, 0.0, 0.0, 1),
    ("fair", 65537, "none"): (0.5014114164517753, 0.49858858354822466, 0.0, 0.0019531023174266372, 65537),
    ("fair", 65537, "alice"): (0.7507362253383585, 0.2492637746616415, 0.2089354105314555, 0.0016897793216022806, 65537),
    ("fair", 65537, "bob"): (0.24859239818728351, 0.7514076018127165, 0.0, 0.0016882565196081696, 65537),
    ("fair", 1000003, "none"): (0.4992755021734935, 0.5007244978265065, 0.0, 0.0004999987251050987, 1000003),
    ("fair", 1000003, "alice"): (0.7491337525987422, 0.25086624740125785, 0.20927437217688347, 0.00043351102583514547, 1000003),
    ("fair", 1000003, "bob"): (0.2493552519342442, 0.7506447480657558, 0.0, 0.0004326391669013655, 1000003),
    ("pure-pair", 1, "none"): (0.0, 1.0, 0.0, 0.0, 1),
    ("pure-pair", 1, "alice"): (1.0, 0.0, 0.0, 0.0, 1),
    ("pure-pair", 1, "bob"): (0.0, 1.0, 0.0, 0.0, 1),
    ("pure-pair", 65537, "none"): (0.5014114164517753, 0.49858858354822466, 0.0, 0.0019531023174266372, 65537),
    ("pure-pair", 65537, "alice"): (0.9602209438942887, 0.03977905610571131, 0.03977905610571128, 0.0007634305682417367, 65537),
    ("pure-pair", 65537, "bob"): (0.30265346292933765, 0.6973465370706624, 0.0, 0.001794543000689534, 65537),
    ("pure-pair", 1000003, "none"): (0.4992755021734935, 0.5007244978265065, 0.0, 0.0004999987251050987, 1000003),
    ("pure-pair", 1000003, "alice"): (0.9604261187216439, 0.03957388127835615, 0.03957388127835616, 0.00019495557231302005, 1000003),
    ("pure-pair", 1000003, "bob"): (0.30448008655974035, 0.6955199134402597, 0.0, 0.00046018618855233907, 1000003),
}


def test_chunk_size_is_crossed_by_the_pinned_sizes():
    for n in (65_537, 1_000_003):  # each spans full chunks and ends in a partial one
        assert 1 < MC_CHUNK_RUNS < n and n % MC_CHUNK_RUNS != 0


@pytest.mark.parametrize("key", sorted(ESTIMATE_PINS))
def test_estimate_statistics_pins(key):
    n, i, j = key
    p = qbc.family_protocol(qbc.Commuting3D(0.3))
    report = estimate_statistics(p, ALICES[i], BOBS[j], n, 7)
    assert dataclasses.astuple(report) == ESTIMATE_PINS[key]


@pytest.mark.parametrize("key", sorted(TOSS_PINS))
def test_toss_statistics_pins(key):
    base, n, cheater = key
    if base == "fair":
        ct = qbc.fair_toss_protocol()
    else:
        ct = CoinTossProtocol(qbc.family_protocol(qbc.PurePair(0.4)))
    assert dataclasses.astuple(toss_statistics(ct, cheater, n, 11)) == TOSS_PINS[key]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_sampled_cells_follow_cell_probabilities(name):
    """Every pairing, and the coin toss's cells against Bob's guess: the
    counts of each joint cell are within 6 sigma of its exact probability."""
    n = 200_003
    p = PROTOCOLS[name]()
    cases = [(alice, bob, False) for alice, bob in itertools.product(ALICES, BOBS)]
    cases.append((CheatingAlice(), HonestBob(), True))
    for alice, bob, against_guess in cases:
        tables = strategy_tables(p, alice, bob)
        probs = tables.cell_probabilities()
        counts = tables.sample_cells(n, 5, against_guess)
        assert counts.shape == probs.shape == tables.out_cum.shape[:3] + (3,)
        assert counts.sum() == n
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert not counts[probs <= 0.0].any()
        sigma = np.sqrt(np.clip(probs, 0.0, 1.0) * (1.0 - np.clip(probs, 0.0, 1.0)) / n)
        assert np.all(np.abs(counts / n - probs) <= 6.0 * sigma + 1e-15), (alice, bob, against_guess)


def known_answer_protocol(kind: str) -> PurificationProtocol:
    """One protocol of a known-answer class, at token dim 3 and a fixed seed."""
    rng = np.random.default_rng(17)
    a, _, _ = known_answer_amplitudes(*known_answer_spectra(kind, 3, rng), rng)
    return PurificationProtocol(*(qbc.bipartite(6, 3, m.reshape(-1)) for m in a))


CHI2_RUNS = 100_000
CHI2_PROTOCOLS = {
    "fair": lambda: qbc.fair_toss_protocol().base,
    "random8x8": lambda: qbc.random_protocol(8, 8, 88),
    "random3x2": lambda: qbc.random_protocol(3, 2, 5),
    **{f"known-answer-{kind}": lambda kind=kind: known_answer_protocol(kind) for kind in KNOWN_ANSWER_CLASSES},
}


def assert_cells_fit(counts: np.ndarray, probs: np.ndarray) -> None:
    """Sampled cell counts against their exact probabilities, cell by cell.

    A cell of probability 0 must hold no run.  The rest get a Pearson
    chi-square against ``n * probs``: cells expected to hold fewer than 5
    runs are merged into one, which is folded into the smallest other cell
    if it too falls short of 5.  The statistic must stay within
    ``dof + 8 sqrt(2 dof)``, eight of its standard deviations above its mean.
    """
    counts, probs = counts.ravel(), probs.ravel()
    assert not counts[probs <= 0.0].any()
    expected = counts.sum() * probs
    small = expected < 5.0
    observed, merged = counts[~small].astype(float), expected[~small]
    if expected[small].sum() < 5.0:
        smallest = merged.argmin()
        observed[smallest] += counts[small].sum()
        merged[smallest] += expected[small].sum()
    else:
        observed = np.append(observed, counts[small].sum())
        merged = np.append(merged, expected[small].sum())
    chi2, dof = float(((observed - merged) ** 2 / merged).sum()), len(merged) - 1
    assert dof >= 1 and chi2 <= dof + 8.0 * np.sqrt(2.0 * dof), (chi2, dof)


@pytest.mark.parametrize("name", sorted(CHI2_PROTOCOLS))
def test_each_pairing_passes_a_cell_chi_square(name):
    """A fault that moves runs between cells of the same game rates, such as
    swapping the wrong-bit and FAIL outcomes, leaves both rates as they
    were; the cells show it."""
    p = CHI2_PROTOCOLS[name]()
    for alice, bob in itertools.product(ALICES, BOBS):
        tables = strategy_tables(p, alice, bob)
        assert_cells_fit(tables.sample_cells(CHI2_RUNS, 11), tables.cell_probabilities())


@pytest.mark.parametrize("cheater", ["none", "alice", "bob"])
@pytest.mark.parametrize("name", ["fair", "random3x2"])
def test_each_toss_mode_passes_a_cell_chi_square(name, cheater, monkeypatch):
    """The cells that ``toss_statistics`` itself counts, recorded on their way out."""
    recorded = []
    sample_cells = StrategyTables.sample_cells

    def recording(tables, *args, **kwargs):
        recorded.append((tables, sample_cells(tables, *args, **kwargs)))
        return recorded[-1][1]

    monkeypatch.setattr(StrategyTables, "sample_cells", recording)
    toss_statistics(CoinTossProtocol(CHI2_PROTOCOLS[name]()), cheater, CHI2_RUNS, 12)
    ((tables, counts),) = recorded
    assert_cells_fit(counts, tables.cell_probabilities())


def test_bulk_peak_bytes_per_run():
    n = 1_000_000
    p = qbc.random_protocol(8, 8, 88)
    calls = (
        lambda: estimate_statistics(p, CheatingAlice(), HelstromBob(), n, 3),
        lambda: estimate_statistics(p, HonestAlice(), HelstromBob(), n, 3),
        lambda: toss_statistics(CoinTossProtocol(p), "alice", n, 3),
        lambda: toss_statistics(CoinTossProtocol(p), "bob", n, 3),
    )
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak / n <= 16.0
    finally:
        tracemalloc.stop()


# Probabilities at the edges of the integer rule.  ``out_cum[..., 0]`` is
# not clipped, so an edge can exceed 1 by an ulp.
EDGE_PROBABILITIES = np.array(
    [0.0, 2.0**-1074, 2.0**-53, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53, 1.0, np.nextafter(1.0, 2.0)]
)


def test_integer_thresholds_are_the_rule_on_doubles():
    """``m >= ceil(p * 2**53)`` on the top 53 bits m of a word is ``u >= p``
    on the uniform u = m * 2**-53 that ``Generator.random`` makes of it."""
    words = np.random.Philox(4).random_raw(64)
    uniforms = np.random.Generator(np.random.Philox(4)).random(64)
    assert ((words >> 11) * 2.0**-53 == uniforms).all()

    p = EDGE_PROBABILITIES
    out_cum = np.repeat(p, 2).reshape(len(p), 1, 1, 2)
    thresholds, edges = StrategyTables(0, 1, p, out_cum)._thresholds
    assert (edges == thresholds[:, None]).all()
    assert thresholds[p == 0.5] == FAIR_THRESHOLD
    for p_i, k in zip(p, thresholds):
        for m in {int(k) - 1, int(k), int(k) + 1, 0, 2**53 - 1}:
            if 0 <= m < 2**53:
                assert (np.uint64(m) >= k) == (m * 2.0**-53 >= p_i), (p_i, m)


@pytest.mark.parametrize("name", sorted(PROTOCOLS) + sorted(EDGE_PROTOCOLS))
def test_table_edges_are_finite(name):
    """The integer thresholds are casts to uint64, undefined for NaN; the
    edges are probabilities, so no cell and no predicted rate leaves [0, 1],
    even where rounding lifts an overlap above 1 (``EDGE_PROTOCOLS``)."""
    p = {**PROTOCOLS, **EDGE_PROTOCOLS}[name]()
    for alice, bob in itertools.product(ALICES, BOBS):
        tables = strategy_tables(p, alice, bob)
        assert np.isfinite(tables.out_cum).all()
        assert tables.est_prob0 is None or np.isfinite(tables.est_prob0).all()
        assert (tables.out_cum <= 1.0).all()
        assert (tables.cell_probabilities() >= 0.0).all()
        assert all(0.0 <= rate <= 1.0 for rate in exact_statistics(p, alice, bob))


def reference_cells(tables, n, seed, against_guess):
    """Cells of runs 0 to n - 1, counted from one ``(n, 4)`` block of
    ``Generator.random`` doubles by the rules on u that ``StrategyTables``
    documents."""
    u = np.random.Generator(np.random.Philox(seed)).random((n, 4))
    commit = tables.first + (u[:, 0] >= 0.5) * (tables.count == 2)
    estimate = np.zeros(n, dtype=int)
    if tables.bob_cheats:
        estimate += u[:, 2] >= tables.est_prob0[commit]
    target = ((u[:, 1] >= 0.5) != against_guess).astype(int)
    edges = tables.out_cum[commit, estimate, target]
    outcome = (u[:, 3] >= edges[:, 0]).astype(int) + (u[:, 3] >= edges[:, 1])
    counts = np.zeros(tables.out_cum.shape[:3] + (3,), dtype=np.int64)
    np.add.at(counts, (commit, estimate, target, outcome), 1)
    return counts


WORKER_SIZES = (1, MC_CHUNK_RUNS, MC_CHUNK_RUNS + 1, 65_537, 1_000_003)


def test_counts_do_not_depend_on_the_worker_count(monkeypatch):
    """Every pairing and the coin toss's cells against Bob's guess count the
    same runs on 1, 2 and 3 workers, and the runs a count made from doubles
    by the documented rules gives."""
    p = PROTOCOLS["random8x8"]()
    cases = [(alice, bob, False) for alice, bob in itertools.product(ALICES, BOBS)]
    cases.append((CheatingAlice(), HonestBob(), True))
    for alice, bob, against_guess in cases:
        tables = strategy_tables(p, alice, bob)
        for n in WORKER_SIZES:
            counts = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(qbc.protocol, "_available_cpus", lambda: workers)
                counts.append(tables.sample_cells(n, 21, against_guess))
            assert (counts[0] == counts[1]).all() and (counts[0] == counts[2]).all()
            if n < 100_000:
                reference = reference_cells(tables, n, 21, against_guess)
                assert (counts[0] == reference).all(), (alice, bob, against_guess, n)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_bulk_peak_is_flat_in_runs(workers, monkeypatch):
    """The peak allocation is at most one chunk's per worker, at 1e6 and 4e6
    runs alike."""
    monkeypatch.setattr(qbc.protocol, "_available_cpus", lambda: workers)
    tables = strategy_tables(PROTOCOLS["random8x8"](), CheatingAlice(), HelstromBob())
    tables.sample_cells(2 * MC_CHUNK_RUNS, 0)  # the pool's first use imports its module
    tracemalloc.start()
    try:
        peaks = []
        for n in (MC_CHUNK_RUNS, 1_000_000, 4_000_000):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tables.sample_cells(n, 3)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    one_chunk = peaks[0]
    assert one_chunk <= 2 * 2**20
    for peak in peaks[1:]:
        assert peak <= workers * one_chunk + 64 * 2**10


def test_no_thread_outlives_a_call(monkeypatch):
    baseline = threading.active_count()
    p = PROTOCOLS["commuting3d"]()
    for workers in (None, 3):
        if workers:
            monkeypatch.setattr(qbc.protocol, "_available_cpus", lambda: workers)
        estimate_statistics(p, CheatingAlice(), HelstromBob(), 200_003, 1)
        toss_statistics(CoinTossProtocol(p), "alice", 200_003, 1)
        assert threading.active_count() == baseline


def test_workers_are_capped(monkeypatch):
    """However many CPUs the process may use, at most ``MC_MAX_WORKERS``
    threads count chunks, so the peak memory is bounded on any host."""
    original = qbc.protocol.StrategyTables._chunk_counts
    threads = set()

    def record_thread(self, *chunk):
        threads.add(threading.get_ident())
        return original(self, *chunk)

    monkeypatch.setattr(qbc.protocol.StrategyTables, "_chunk_counts", record_thread)
    monkeypatch.setattr(qbc.protocol, "_available_cpus", lambda: 64)
    p = PROTOCOLS["commuting3d"]()
    estimate_statistics(p, CheatingAlice(), HelstromBob(), 100 * MC_CHUNK_RUNS, 4)
    assert 1 < len(threads) <= MC_MAX_WORKERS


@pytest.mark.parametrize("workers", [1, 2])
def test_huge_run_counts_reach_the_chunks(workers, monkeypatch):
    """The chunks of 1e30 runs are counted arithmetically, not by ``len`` of
    a range, which overflows a C ssize_t above about 3e23 runs."""

    class Sentinel(Exception):
        pass

    def refuse(self, *chunk):
        raise Sentinel

    monkeypatch.setattr(qbc.protocol.StrategyTables, "_chunk_counts", refuse)
    monkeypatch.setattr(qbc.protocol, "_available_cpus", lambda: workers)
    p = PROTOCOLS["commuting3d"]()
    with pytest.raises(Sentinel):
        estimate_statistics(p, CheatingAlice(), HelstromBob(), 10**30, 0)
    with pytest.raises(Sentinel):
        toss_statistics(CoinTossProtocol(p), "alice", 10**30, 0)


def test_a_failing_chunk_fails_the_call(monkeypatch):
    """An exception in one chunk reaches the caller, and the pool's threads
    are gone when it does."""
    original = qbc.protocol.StrategyTables._chunk_counts

    def fail_in_chunk_5(self, seed, start, count, against_guess):
        if start == 5 * MC_CHUNK_RUNS:
            raise RuntimeError("chunk 5 failed")
        return original(self, seed, start, count, against_guess)

    monkeypatch.setattr(qbc.protocol.StrategyTables, "_chunk_counts", fail_in_chunk_5)
    baseline = threading.active_count()
    p = PROTOCOLS["commuting3d"]()
    for workers in (1, 2, 3):
        monkeypatch.setattr(qbc.protocol, "_available_cpus", lambda: workers)
        with pytest.raises(RuntimeError, match="chunk 5 failed"):
            estimate_statistics(p, HonestAlice(), HelstromBob(), 1_000_003, 2)
        assert threading.active_count() == baseline


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_chunk_stops_every_thread(workers, monkeypatch):
    """After a chunk raises, at most ``workers - 1`` further chunks start:
    no thread takes a chunk once the failing one has left its loop."""
    original = qbc.protocol.StrategyTables._chunk_counts
    failed = threading.Event()
    started_after = []

    def fail_in_chunk_5(self, seed, start, count, against_guess):
        started_after.append(failed.is_set())
        if start == 5 * MC_CHUNK_RUNS:
            failed.set()
            raise RuntimeError("chunk 5 failed")
        return original(self, seed, start, count, against_guess)

    monkeypatch.setattr(qbc.protocol.StrategyTables, "_chunk_counts", fail_in_chunk_5)
    monkeypatch.setattr(qbc.protocol, "_available_cpus", lambda: workers)
    p = PROTOCOLS["commuting3d"]()
    with pytest.raises(RuntimeError, match="chunk 5 failed"):
        estimate_statistics(p, HonestAlice(), HelstromBob(), 1_000_003, 2)
    assert sum(started_after) <= workers - 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_interrupt_stops_every_thread(workers, monkeypatch):
    """A ``KeyboardInterrupt`` sent to the caller from inside a chunk reaches
    it, no thread outlives the call, and at most ``workers - 1`` further
    chunks start.  The interrupt is sent from a chunk on the caller's own
    thread, which raises it at once; sent from a pool thread, it would wait
    for the caller's next bytecode, however long that takes to come."""
    original = qbc.protocol.StrategyTables._chunk_counts
    interrupted = threading.Event()
    started_after = []

    def interrupt_from_chunk_5_on(self, seed, start, count, against_guess):
        started_after.append(interrupted.is_set())
        caller = threading.current_thread() is threading.main_thread()
        if caller and start >= 5 * MC_CHUNK_RUNS and not interrupted.is_set():
            interrupted.set()
            _thread.interrupt_main()
        return original(self, seed, start, count, against_guess)

    monkeypatch.setattr(qbc.protocol.StrategyTables, "_chunk_counts", interrupt_from_chunk_5_on)
    monkeypatch.setattr(qbc.protocol, "_available_cpus", lambda: workers)
    baseline = threading.active_count()
    p = PROTOCOLS["commuting3d"]()
    with pytest.raises(KeyboardInterrupt):
        estimate_statistics(p, HonestAlice(), HelstromBob(), 1_000_003, 2)
    assert threading.active_count() == baseline
    assert sum(started_after) <= workers - 1


def test_the_chunk_counter_loses_no_update(monkeypatch):
    """Eight threads on tiny chunks, switching as often as the interpreter
    lets them, count every run once: a chunk taken twice or skipped would
    move the counts off the one-worker counts."""
    tables = strategy_tables(PROTOCOLS["random8x8"](), CheatingAlice(), HelstromBob())
    monkeypatch.setattr(qbc.protocol, "_available_cpus", lambda: 1)
    expected = tables.sample_cells(100_003, 17)
    monkeypatch.setattr(qbc.protocol, "_available_cpus", lambda: MC_MAX_WORKERS)
    monkeypatch.setattr(qbc.protocol, "MC_CHUNK_RUNS", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert (tables.sample_cells(100_003, 17) == expected).all()
    finally:
        sys.setswitchinterval(interval)


def test_tables_are_built_once_per_pairing():
    p = PROTOCOLS["commuting3d"]()
    for alice, bob in itertools.product(ALICES, BOBS):
        assert strategy_tables(p, alice, bob) is strategy_tables(p, alice, bob)
    for bob in BOBS:
        drawn, fixed = strategy_tables(p, HonestAlice(), bob), strategy_tables(p, HonestAlice(0), bob)
        assert drawn is not fixed
        contexts = [(t.first, t.count) for t in (strategy_tables(p, a, bob) for a in ALICES)]
        assert contexts == [(0, 2), (0, 1), (1, 1), (CHEAT_CONTEXT, 1)]


def test_primed_protocol_samples_without_decompositions(monkeypatch):
    """Once every pairing is built, no sampler decomposes a matrix again;
    a new protocol with the same amplitudes still builds its own tables."""
    p = PROTOCOLS["random8x8"]()
    ct = CoinTossProtocol(p)
    for alice, bob in itertools.product(ALICES, BOBS):
        strategy_tables(p, alice, bob)

    def refuse(*args, **kwargs):
        raise AssertionError("decomposed a matrix after the tables were built")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(0)
    for alice, bob in itertools.product(ALICES, BOBS):
        simulate_run(p, alice, bob, 1, rng)
        exact_statistics(p, alice, bob)
        estimate_statistics(p, alice, bob, 1000, 0)
    for alice_cheats, bob_cheats in TOSS_KINDS:
        simulate_toss(ct, alice_cheats, bob_cheats, rng)
    for cheater in ("none", "alice", "bob"):
        toss_statistics(ct, cheater, 1000, 0)

    fresh = dataclasses.replace(p)
    for alice, bob in ((HonestAlice(), HelstromBob()), (CheatingAlice(), HonestBob())):
        with pytest.raises(AssertionError, match="decomposed"):
            strategy_tables(fresh, alice, bob)


def test_stored_tables_are_read_only():
    p = PROTOCOLS["pure-pair"]()
    tables = strategy_tables(p, HonestAlice(), HelstromBob())
    kit = optimal_cheat_kit(p)
    for array in (tables.out_cum, tables.est_prob0, kit.u0, kit.u1):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    for alice in ALICES:  # the four Alices facing one Bob share his arrays
        shared = strategy_tables(p, alice, HelstromBob())
        assert shared.out_cum is tables.out_cum and shared.est_prob0 is tables.est_prob0


def test_table_store_is_not_a_field():
    p = PROTOCOLS["qubit-pure-mixed"]()
    names = [f.name for f in dataclasses.fields(PurificationProtocol)]
    assert names == ["chi0", "chi1"]
    before = repr(p)
    security_report(p)
    for alice, bob in itertools.product(ALICES, BOBS):
        strategy_tables(p, alice, bob)
    assert repr(p) == before


# The readers of a protocol's four cached values, each with the values it builds on a
# fresh protocol: its own, and for the tables also the reductions and the kit they read.
READERS = (
    (security_report, {"_report"}),
    (honest_reduced_states, {"_reductions"}),
    (optimal_cheat_kit, {"_kit"}),
    (lambda p: strategy_tables(p, CheatingAlice(), HelstromBob()), {"_reductions", "_kit", "_tables"}),
)


def test_each_cached_value_is_built_once_by_its_own_builder(monkeypatch):
    """Each cached value is built on its first read, by its own builder, and only then.

    Whatever the order of the first reads, a reader builds only the values it
    reads, none of them twice, and each value makes a fixed number of LAPACK
    calls: the report two (none at token dim 2, where D and F have closed
    forms), the reductions two ``eigvalsh``, the kit one ``svd`` and the tables
    one ``eigh``, in their one Helstrom measurement.  Only the kit calls
    ``aligned_superposition`` and only the tables call ``helstrom``.  Once all
    four are built, no read makes a LAPACK call, and every call returns the same kit.
    """
    calls = collections.Counter()

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(qbc.protocol, "aligned_superposition")
    counting(qbc.protocol, "helstrom")
    kernels = ("eigh", "eigvalsh", "svd", "qr")
    for name in kernels:
        counting(np.linalg, name)

    for name, report_lapack in (("random8x8", 2), ("pure-pair", 0)):
        lapack = {"_report": report_lapack, "_reductions": 2, "_kit": 1, "_tables": 1}
        for order in itertools.permutations(READERS):
            p = PROTOCOLS[name]()
            built = set()
            for reader, reads in order:
                calls.clear()
                reader(p)
                new = reads - built
                built |= reads
                assert set(vars(p)) - {"chi0", "chi1"} == built, reader
                assert calls["aligned_superposition"] == int("_kit" in new)
                assert calls["helstrom"] == int("_tables" in new)
                assert sum(calls[k] for k in kernels) == sum(lapack[value] for value in new)
            calls.clear()
            for reader, _ in READERS:
                reader(p)
            for alice, bob in itertools.product(ALICES, BOBS):
                strategy_tables(p, alice, bob)
            assert not calls
            assert optimal_cheat_kit(p) is optimal_cheat_kit(p)


@pytest.mark.parametrize(
    "alice, bob",
    [
        ("cheat", HonestBob()),
        (None, HelstromBob()),
        (HonestBob(), HonestBob()),
        (HonestAlice(), "x"),
        ([], HonestBob()),
    ],
    ids=["string-alice", "none-alice", "bob-as-alice", "string-bob", "unhashable-alice"],
)
def test_unknown_pairings_are_refused(alice, bob):
    p = PROTOCOLS["commuting3d"]()
    calls = (
        lambda: strategy_tables(p, alice, bob),
        lambda: exact_statistics(p, alice, bob),
        lambda: estimate_statistics(p, alice, bob, 1000, 0),
        lambda: simulate_run(p, alice, bob, 0, np.random.default_rng(0)),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unknown strategy pairing"):
            call()
    assert set(p._tables) == set(itertools.product(ALICES, BOBS))
