"""Tests of the shared Monte Carlo engine behind commitment and coin toss.

* Transcripts: ``simulate_run`` and ``simulate_toss`` read the strategy
  tables; a straightforward Born-rule replay (``born_sample`` on explicit
  Helstrom-extended and verification projectors) is the reference they
  must agree with, draw for draw.
* Bulk statistics: values pinned from the single-block sampler, at sizes
  below, across and well past one chunk of the streamed Philox draws.
* Cells: the joint counts of the bulk sampler over (commitment context,
  estimate, target, outcome) agree with the exact cell probabilities.
* Memory: at a million runs the bulk samplers' peak allocation stays
  within 16 bytes per run; one block of all the uniforms would take 32.
* Table store: each protocol builds the table of a pairing once, keeps it
  read-only and serves every sampler from it without a decomposition.
"""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import qbc
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
    simulate_run,
    simulate_toss,
    tensor_product,
    toss_statistics,
)
from qbc.protocol import MC_CHUNK_RUNS, strategy_tables

DRAWS = 2000
ALICES = (HonestAlice(), HonestAlice(0), HonestAlice(1), CheatingAlice())
BOBS = (HonestBob(), HelstromBob())
TOSS_KINDS = ((False, False), (True, False), (False, True))
PROTOCOLS = {
    "commuting3d": lambda: qbc.family_protocol(qbc.Commuting3D(0.3)),
    "qubit-pure-mixed": lambda: qbc.family_protocol(qbc.QubitPureMixed(0.4)),
    "pure-pair": lambda: qbc.family_protocol(qbc.PurePair(0.7)),
    "random8x8": lambda: qbc.random_protocol(8, 8, 88),
}


class BornReplay:
    """Transcripts played by Born sampling on explicit projectors."""

    def __init__(self, p):
        self.p = p
        self.kit = optimal_cheat_kit(p)
        measurement = helstrom(*honest_reduced_states(p))
        eye_proof = np.eye(p.dim_proof, dtype=np.complex128)
        self.extended = [
            tensor_product(eye_proof, measurement.projector0),
            tensor_product(eye_proof, measurement.projector1),
        ]
        p0, p1 = projector(p.chi0.state), projector(p.chi1.state)
        self.final = [p0, p1, np.eye(p.dim_proof * p.dim_token) - p0 - p1]

    def steer(self, vec, target):
        matrix = vec.reshape(self.p.dim_proof, self.p.dim_token)
        return (self.kit.unveil_unitary(target) @ matrix).reshape(-1)

    def run(self, alice, bob, target_bit, rng) -> RunRecord:
        if isinstance(alice, HonestAlice):
            committed = alice.bit if alice.bit is not None else int(rng.random() >= 0.5)
            vec = self.p.chi(committed).amplitudes
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
                guess = born_sample(self.p.chi(committed).state, self.extended, rng)
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
    monkeypatch.setattr(qbc.linalg, "tensor_product", refuse)
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
    assert 1 < MC_CHUNK_RUNS < 65_537 < 2 * MC_CHUNK_RUNS < 1_000_003


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


def test_tables_are_built_once_per_pairing():
    p = PROTOCOLS["commuting3d"]()
    for alice, bob in itertools.product(ALICES, BOBS):
        assert strategy_tables(p, alice, bob) is strategy_tables(p, alice, bob)
    for bob in BOBS:
        drawn, fixed = strategy_tables(p, HonestAlice(), bob), strategy_tables(p, HonestAlice(0), bob)
        assert drawn is not fixed
        assert (drawn.fixed_bit, fixed.fixed_bit) == (None, 0)


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
    for array in (tables.out_cum, tables.est_prob0, tables.commit_weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    assert strategy_tables(p, HonestAlice(), HelstromBob()).commit_weights.tolist() == [0.5, 0.5]


def test_table_store_is_not_a_field():
    p = PROTOCOLS["qubit-pure-mixed"]()
    names = [f.name for f in dataclasses.fields(PurificationProtocol)]
    assert names == ["dim_proof", "dim_token", "chi0", "chi1"]
    before = repr(p)
    for alice, bob in itertools.product(ALICES, BOBS):
        strategy_tables(p, alice, bob)
    assert repr(p) == before
