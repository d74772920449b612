"""Known-answer protocols: every route to D and F against answers known by construction.

Each protocol comes from :func:`conftest.known_answer_amplitudes`: commuting
spectra on orthogonal proof blocks, rotated by Haar unitaries on the token
and on the proof, so D = (1/2) sum |p - q| and F = sum sqrt(p q) are exact
sums over the spectra.  Five classes of hard case at token dims 2-5
(:func:`conftest.known_answer_spectra`): generic, near-identical (D ~ 1e-8),
tiny eigenvalues (1e-14), near-orthogonal with one pure reduction
(F = 5e-8) and rank-deficient (one eigenvalue of exactly 0 in each).  On
3000 cases of the first four the stacked core's D was within 1.44e-15 and
its F within 1.11e-15, and Helstrom success and ``per_bit_success`` within
4.4e-16 of their closed forms; each gate is ten times that.  The cheat
search, the Monte Carlo engine and the square-root route of
``qbc.fidelity`` are checked against the same answers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import KNOWN_ANSWER_CLASSES, known_answer_amplitudes, known_answer_spectra

import qbc
from qbc.linalg import SQRT_NOISE_FLOOR, bipartite
from qbc.protocol import (
    CheatingAlice,
    HelstromBob,
    HonestAlice,
    HonestBob,
    PurificationProtocol,
    checked_stacks,
    distance_fidelity,
    estimate_statistics,
)

D_TOL = 1.44e-14
F_TOL = 1.11e-14
SUCCESS_TOL = 4.4e-15
# The ascents at budget 200 fell short of (1 + F)/2 by at most 7.8e-9, on the
# tiny-eigenvalue class.
SEARCH_SHORTFALL_TOL = 1e-7
# qbc.fidelity zeroes eigenvalues below SQRT_NOISE_FLOOR; against the F of the
# spectra so floored it was within 2.4e-15 on every class (800 cases each).
FLOORED_F_TOL = 2e-14
MC_RUNS = 100_000
MC_SEED = 2001
MC_Z_BOUND = 5.0

CLASSES_AND_DIMS = [(kind, dim) for kind in KNOWN_ANSWER_CLASSES for dim in range(2, 6)]


def known_answers(kind: str, dim: int, n: int):
    """(A, D, F) of ``n`` known-answer protocols, A a (2, n, dim_proof, dim_token) stack,
    at a seed fixed per class and dim."""
    rng = np.random.default_rng([KNOWN_ANSWER_CLASSES.index(kind), dim])
    cases = [known_answer_amplitudes(*known_answer_spectra(kind, dim, rng), rng) for _ in range(n)]
    a, d, f = zip(*cases)
    return np.stack(a, axis=1), np.array(d), np.array(f)


def protocols(a: np.ndarray):
    dim_proof, dim_token = a.shape[2:]
    for m0, m1 in zip(*a):
        yield PurificationProtocol(
            bipartite(dim_proof, dim_token, m0.reshape(-1)),
            bipartite(dim_proof, dim_token, m1.reshape(-1)),
        )


@pytest.mark.parametrize("kind, dim", CLASSES_AND_DIMS)
def test_distance_fidelity(kind, dim):
    a, d_exact, f_exact = known_answers(kind, dim, 50)
    if kind == "near-identical":
        assert np.allclose(d_exact, 5e-9, rtol=1e-6, atol=0.0)
    if kind == "near-orthogonal-pure":
        assert np.allclose(f_exact, 5e-8, rtol=1e-6, atol=0.0)
    d, f = distance_fidelity(checked_stacks(a))
    assert np.abs(d - d_exact).max() <= D_TOL
    assert np.abs(f - f_exact).max() <= F_TOL


@pytest.mark.parametrize("kind, dim", CLASSES_AND_DIMS)
def test_helstrom_and_cheat_kit(kind, dim):
    a, d_exact, f_exact = known_answers(kind, dim, 10)
    for p, d, f in zip(protocols(a), d_exact, f_exact):
        helstrom = qbc.helstrom(*qbc.honest_reduced_states(p))
        assert abs(helstrom.success_probability - (1.0 + d) / 2.0) <= SUCCESS_TOL
        assert abs(qbc.optimal_cheat_kit(p).per_bit_success - (1.0 + f) / 2.0) <= SUCCESS_TOL


@pytest.mark.parametrize("kind, dim", CLASSES_AND_DIMS)
def test_cheat_search_never_beats_the_kit(kind, dim):
    a, _, f_exact = known_answers(kind, dim, 2)
    for p, f in zip(protocols(a), f_exact):
        best = qbc.random_cheat_search(p, 200, 7).best_value
        assert best <= (1.0 + f) / 2.0 + SUCCESS_TOL
        assert best >= (1.0 + f) / 2.0 - SEARCH_SHORTFALL_TOL


def z_score(rate: float, predicted: float, n: int) -> float:
    """(rate - predicted) over the prediction's binomial sigma sqrt(p (1 - p) / n).

    Where that sigma is below 1/n, a prediction within about 1/n of 0 or 1
    (as (1 + D)/2 is at D ~ 1 and (1 + F)/2 at F ~ 1), it is floored at 1/n,
    one run's share of the rate: |z| <= 5 then allows five runs off the
    prediction, where the unfloored sigma would fail one.
    """
    sigma = max(math.sqrt(predicted * (1.0 - predicted) / n), 1.0 / n)
    return (rate - predicted) / sigma


@pytest.mark.parametrize("kind, dim", CLASSES_AND_DIMS)
def test_monte_carlo_rates(kind, dim):
    """Sampled rates of both optimal cheats, in the commitment and in the coin
    toss, against (1 + F)/2 for Alice and (1 + D)/2 for Bob.  The toss takes
    its own seed: on the commitment's seed it counts the same cells."""
    a, d_exact, f_exact = known_answers(kind, dim, 1)
    (p,), alice, bob = protocols(a), (1.0 + f_exact[0]) / 2.0, (1.0 + d_exact[0]) / 2.0
    toss = qbc.CoinTossProtocol(p)
    rates = {
        "unveil": (estimate_statistics(p, CheatingAlice(), HonestBob(), MC_RUNS, MC_SEED).p_unveil, alice),
        "estimate": (estimate_statistics(p, HonestAlice(), HelstromBob(), MC_RUNS, MC_SEED).p_estimate, bob),
        "alice-toss": (qbc.toss_statistics(toss, "alice", MC_RUNS, MC_SEED + 1).alice_win_rate, alice),
        "bob-toss": (qbc.toss_statistics(toss, "bob", MC_RUNS, MC_SEED + 1).bob_win_rate, bob),
    }
    z = {name: z_score(rate, predicted, MC_RUNS) for name, (rate, predicted) in rates.items()}
    assert all(abs(value) <= MC_Z_BOUND for value in z.values()), z


@pytest.mark.parametrize("kind, dim", CLASSES_AND_DIMS)
def test_square_root_fidelity(kind, dim):
    """``qbc.fidelity`` takes square roots of the density matrices, which
    zero every eigenvalue below ``SQRT_NOISE_FLOOR``: it gives the F of the
    spectra with those eigenvalues zeroed, so it lies below F by at most
    sqrt(w0) + sqrt(w1), w_b the weight zeroed.  That is 2e-7 on the
    tiny-eigenvalue class and all of F = 5e-8 on the near-orthogonal-pure
    one; an exact zero loses nothing.  With no floor, the rounding of a zero
    eigenvalue (~1e-17) would enter as its square root instead: up to 2.3e-8
    off on the rank-deficient class and 2.3e-9 on the tiny-eigenvalue one."""
    rng = np.random.default_rng([KNOWN_ANSWER_CLASSES.index(kind), dim, 1])
    for _ in range(10):
        p, q = known_answer_spectra(kind, dim, rng)
        a, _, f = known_answer_amplitudes(p, q, rng)
        (protocol,) = protocols(a[:, None])
        fidelity = qbc.fidelity(*qbc.honest_reduced_states(protocol))
        kept = (p >= SQRT_NOISE_FLOOR) & (q >= SQRT_NOISE_FLOOR)
        assert abs(fidelity - math.fsum(np.sqrt(p[kept] * q[kept]))) <= FLOORED_F_TOL
        zeroed = math.sqrt(p[p < SQRT_NOISE_FLOOR].sum()) + math.sqrt(q[q < SQRT_NOISE_FLOOR].sum())
        assert f - fidelity <= zeroed + FLOORED_F_TOL
