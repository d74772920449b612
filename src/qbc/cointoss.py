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
# The (Alice, Bob) pairing of each toss: who cheats, and with which commitment cheat.
_TOSS_PAIRINGS = {
    "none": (HonestAlice(), HonestBob()),
    "alice": (CheatingAlice(), HonestBob()),
    "bob": (HonestAlice(), HelstromBob()),
}


def simulate_toss(
    ct: CoinTossProtocol, alice_cheats: bool, bob_cheats: bool, rng
) -> TossResult:
    """Play one coin toss; at most one party may cheat.

    The winner follows the rule of :func:`toss_statistics`.  Honest Alice's
    unveiling always verifies; cheating Alice's is a genuine Born trial on
    the steered state, and a Fail outcome marks her caught.

    Draw order: honest Alice consumes one uniform for her bit, then Bob one
    for his guess (his Helstrom estimate when he cheats); against cheating
    Alice, Bob consumes one for his guess and her unveiling one more.  A
    toss in which nobody cheats draws two uniforms and builds no tables.
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

    if alice_cheats:
        guess = int(rng.random() >= 0.5)
        tables = strategy_tables(ct.base, *_TOSS_PAIRINGS["alice"])
        unveiled = tables.draw_outcome(tables.first, 0, 1 - guess, rng)
    elif bob_cheats:
        unveiled = int(rng.random() >= 0.5)
        guess = strategy_tables(ct.base, *_TOSS_PAIRINGS["bob"]).draw_estimate(unveiled, rng)
    else:
        unveiled, guess = int(rng.random() >= 0.5), int(rng.random() >= 0.5)
    caught = unveiled == Outcome.FAIL
    return TossResult("bob" if caught or guess == unveiled else "alice", alice_caught=caught)


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

    The toss's convention, in every mode: column 1 of a run is a fair bit
    g, Bob's guess, and Alice stands behind 1 - g; a cheating Bob guesses
    his Helstrom estimate in place of g, and honest Alice unveils her
    commitment whatever she stands behind.  Alice wins where Bob's guess
    misses the bit she unveils: in the cells where the estimate misses her
    commitment when Bob measures, and where her unveiling is 1 - g
    otherwise.  A failed unveiling goes to Bob and marks cheating Alice
    caught.

    The tosses are commitment runs of the mode's pairing in
    ``_TOSS_PAIRINGS``, counted per cell by
    :meth:`~qbc.protocol.StrategyTables.sample_cells`: toss i consumes the
    four 64-bit words of counter step i of a Philox stream keyed by
    ``seed`` (columns: commit bit, guess bit, estimate, unveiling outcome),
    so results are seed-reproducible and independent of execution order.
    Each rule compares a word's top 53 bits m with ``ceil(p * 2**53)``, bit
    for bit the rule ``u >= p`` on the uniform u = m * 2**-53 of
    ``Generator.random``, through the draw helper the cheat search shares;
    a bool, non-integral or negative ``seed`` is refused with ``ParamOutOfRange``.
    """
    try:
        alice, bob = _TOSS_PAIRINGS[cheater]
    except (KeyError, TypeError):  # TypeError: an unhashable cheater
        raise ParamOutOfRange(f"cheater must be 'none', 'alice' or 'bob', got {cheater!r}") from None
    counts = strategy_tables(ct.base, alice, bob).sample_cells(n_tosses, seed, against_guess=True)
    commit, estimate, target, outcome = np.indices(counts.shape, sparse=True)
    wins = counts.sum(where=estimate != commit if cheater == "bob" else outcome == target)
    caught = counts[..., Outcome.FAIL].sum() if cheater == "alice" else 0

    rate = float(wins / n_tosses)
    return TossStatistics(
        alice_win_rate=rate,
        bob_win_rate=1.0 - rate,
        alice_caught_rate=float(caught / n_tosses),
        alice_win_stderr=binomial_stderr(rate, n_tosses),
        n_tosses=n_tosses,
    )
