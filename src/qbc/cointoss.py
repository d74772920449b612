"""Coin tossing built on a purification bit-commitment protocol.

Flow: Alice commits a bit, Bob announces a guess g, Alice unveils, and Bob
wins exactly when his guess matches the unveiled bit.  One-sided cheating
only; the cheats are the optimal commitment cheats:

* Cheating Bob measures the token (Helstrom) and guesses his estimate,
  winning with probability (1 + D)/2, so his bias is beta = g_max.
* Cheating Alice commits the aligned superposition, waits for g, and
  steers toward 1 - g, winning with probability (1 + F)/2, so her bias is
  alpha = c_max.

Scoring convention for a caught cheater: when cheating Alice's unveiling
fails verification, the toss is awarded to Bob.  The protocol itself does
not assign a payoff to that outcome; awarding it to Bob is the
conservative choice and makes Alice's winning probability exactly her
unveiling success probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import BothCheat, ParamOutOfRange
from .protocol import (
    CheatingAlice,
    HelstromBob,
    HonestAlice,
    HonestBob,
    Outcome,
    PurificationProtocol,
    _check_generator,
    binomial_stderr,
    security_report,
    strategy_tables,
)
from .tradeoff import Commuting3D, family_protocol


@dataclass(frozen=True)
class CoinTossProtocol:
    base: PurificationProtocol


@dataclass(frozen=True)
class BiasReport:
    """Maximal biases: alpha = c_max for Alice, beta = g_max for Bob.

    Both lie in [0, 1/2], as the core caps D and F at 1, and their sum is
    at least 1/2, as D + F >= 1; the sum hits 1/2 exactly on bases whose
    reductions satisfy D + F = 1.
    """

    alpha: float
    beta: float


@dataclass(frozen=True)
class TossResult:
    winner: Literal["alice", "bob"]
    alice_caught: bool


def biases(ct: CoinTossProtocol) -> BiasReport:
    """Maximal one-sided biases of the derived coin toss."""
    report = security_report(ct.base)
    return BiasReport(alpha=report.c_max, beta=report.g_max)


def fair_toss_protocol() -> CoinTossProtocol:
    """The fair toss with both biases equal to 0.25 (Commuting3D at lam = 1/2)."""
    return CoinTossProtocol(family_protocol(Commuting3D(0.5)))


_FLAG_TYPES = (bool, np.bool_)


def simulate_toss(
    ct: CoinTossProtocol, alice_cheats: bool, bob_cheats: bool, rng
) -> TossResult:
    """Play one coin toss; at most one party may cheat.

    Honest Alice's unveiling always verifies, so the winner is settled by
    comparing Bob's guess with her committed bit.  Cheating Alice's
    unveiling is a genuine Born trial on the steered state; a Fail outcome
    marks her caught and hands the toss to Bob.

    Draw order: honest Alice consumes one uniform for her bit, then Bob one
    for his guess (his Helstrom estimate when he cheats); against cheating
    Alice, Bob consumes one for his guess and her unveiling one more.
    A cheat flag that is not a ``bool`` (NumPy's included), or an ``rng``
    that is not a ``numpy.random.Generator``, is refused with
    ``ParamOutOfRange`` before any draw.
    """
    if not isinstance(alice_cheats, _FLAG_TYPES):
        raise ParamOutOfRange(f"alice_cheats must be a bool, got {alice_cheats!r}")
    if not isinstance(bob_cheats, _FLAG_TYPES):
        raise ParamOutOfRange(f"bob_cheats must be a bool, got {bob_cheats!r}")
    _check_generator(rng)
    if alice_cheats and bob_cheats:
        raise BothCheat("one-sided cheating only")
    p = ct.base

    if not alice_cheats:
        committed = int(rng.random() >= 0.5)
        if bob_cheats:
            guess = strategy_tables(p, HonestAlice(), HelstromBob()).draw_estimate(committed, rng)
        else:
            guess = int(rng.random() >= 0.5)
        return TossResult("bob" if guess == committed else "alice", alice_caught=False)

    guess = int(rng.random() >= 0.5)
    target = 1 - guess
    tables = strategy_tables(p, CheatingAlice(), HonestBob())
    outcome = tables.draw_outcome(tables.first, 0, target, rng)
    if outcome == target:
        return TossResult("alice", alice_caught=False)
    return TossResult("bob", alice_caught=(outcome == Outcome.FAIL))


@dataclass(frozen=True)
class TossStatistics:
    alice_win_rate: float
    bob_win_rate: float
    alice_caught_rate: float
    alice_win_stderr: float
    n_tosses: int


def toss_statistics(
    ct: CoinTossProtocol,
    cheater: Literal["none", "alice", "bob"],
    n_tosses: int,
    seed: int,
) -> TossStatistics:
    """Vectorized Monte Carlo over many tosses.

    The tosses are commitment runs counted per cell by
    :meth:`~qbc.protocol.StrategyTables.sample_cells`: toss i consumes the
    four 64-bit words of counter step i of a Philox stream keyed by
    ``seed`` (columns: commit bit, guess bit, estimate, unveiling outcome),
    so results are seed-reproducible and independent of execution order.
    Each rule compares a word's top 53 bits m with ``ceil(p * 2**53)``, bit
    for bit the rule ``u >= p`` on the uniform u = m * 2**-53 of
    ``Generator.random``, through the draw helper the cheat search shares;
    a bool, non-integral or negative ``seed`` is refused with ``ParamOutOfRange``.
    Bob's guess is the guess bit, or his estimate when he cheats; cheating
    Alice targets 1 - guess.
    """
    if cheater not in ("none", "alice", "bob"):
        raise ParamOutOfRange(f"cheater must be 'none', 'alice' or 'bob', got {cheater!r}")
    if cheater == "alice":
        counts = strategy_tables(ct.base, CheatingAlice(), HonestBob()).sample_cells(
            n_tosses, seed, against_guess=True
        )
        _, _, target, outcome = np.indices(counts.shape, sparse=True)
        wins = counts.sum(where=outcome == target)
        caught = counts[..., Outcome.FAIL].sum()
    else:  # honest Alice wins when Bob's guess misses her bit and is never caught
        bob = HelstromBob() if cheater == "bob" else HonestBob()
        counts = strategy_tables(ct.base, HonestAlice(), bob).sample_cells(n_tosses, seed)
        commit, estimate, coin, _ = np.indices(counts.shape, sparse=True)
        wins = counts.sum(where=(estimate if cheater == "bob" else coin) != commit)
        caught = 0

    rate = float(wins / n_tosses)
    return TossStatistics(
        alice_win_rate=rate,
        bob_win_rate=1.0 - rate,
        alice_caught_rate=float(caught / n_tosses),
        alice_win_stderr=binomial_stderr(rate, n_tosses),
        n_tosses=n_tosses,
    )
