"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Every tolerance is pinned here; the statistical checks use
fixed seeds, so the whole suite is deterministic.
"""

from __future__ import annotations

import numpy as np

import qbc
from conftest import random_density_pair, random_protocols
from qbc.cointoss import CoinTossProtocol, biases, fair_toss_protocol, toss_statistics
from qbc.distinguish import (
    bloch_fidelity_sq,
    bloch_trace_distance,
    check_inequalities,
    fidelity,
    max_fidelity_sq_sum,
    max_parallel_overlap,
    qubit_bloch,
    trace_distance,
)
from qbc.linalg import BipartiteState, density_from_pure, partial_trace, random_density, random_pure_state
from qbc.protocol import (
    CheatingAlice,
    HelstromBob,
    HonestAlice,
    HonestBob,
    estimate_statistics,
    optimal_cheat_kit,
    random_cheat_search,
    security_report,
    simulate_run,
)
from qbc.tradeoff import Commuting3D, Curve, PurePair, QubitPureMixed, fair_point, sweep, uniform_grid

GRID = 101


def binomial_sigma(p: float, n: int) -> float:
    return np.sqrt(max(p * (1.0 - p), 0.0) / n)


def test_criterion_1_family_closed_forms():
    worst = 0.0
    for lam in uniform_grid(Commuting3D, GRID):
        report = security_report(qbc.family_protocol(Commuting3D(lam)))
        worst = max(worst, abs(report.trace_distance - lam), abs(report.fidelity - (1 - lam)))
    for lam in uniform_grid(QubitPureMixed, GRID):
        report = security_report(qbc.family_protocol(QubitPureMixed(lam)))
        worst = max(worst, abs(report.trace_distance - (1 - lam)), abs(report.fidelity - np.sqrt(lam)))
    for phi in uniform_grid(PurePair, GRID):
        report = security_report(qbc.family_protocol(PurePair(phi)))
        worst = max(worst, abs(report.fidelity - abs(np.cos(phi))), abs(report.trace_distance - np.sin(phi)))
    assert worst <= 1e-9
    print(f"ACCEPTANCE PASS 1: family closed forms on {GRID}-point grids (max residual {worst:.2e})")


def test_criterion_2_tradeoff_curves():
    worst_curve = 0.0
    worst_bound = np.inf
    sweeps = {
        "II": (sweep(Commuting3D, uniform_grid(Commuting3D, GRID)), lambda g, c: g + c - 0.5),
        "III": (sweep(QubitPureMixed, uniform_grid(QubitPureMixed, GRID)), lambda g, c: g + 2 * c * c - 0.5),
        "IV": (sweep(PurePair, uniform_grid(PurePair, GRID)), lambda g, c: g * g + c * c - 0.25),
    }
    for _, (points, residual) in sweeps.items():
        for pt in points:
            worst_curve = max(worst_curve, abs(residual(pt.g_max, pt.c_max)))
            worst_bound = min(worst_bound, 2 * pt.g_max + np.sqrt(2 * pt.c_max) - 1.0)
    assert worst_curve <= 1e-9
    assert worst_bound >= -1e-9
    print(
        "ACCEPTANCE PASS 2: sweep points satisfy their curve equations "
        f"(max residual {worst_curve:.2e}) and the universal bound (min slack {worst_bound:.2e})"
    )


def test_criterion_3_fair_points():
    expected = {
        Curve.I: (3 - np.sqrt(5)) / 4,
        Curve.II: 0.25,
        Curve.III: (np.sqrt(5) - 1) / 4,
        Curve.IV: 1 / (2 * np.sqrt(2)),
    }
    values = []
    for curve, target in expected.items():
        g = fair_point(curve)
        assert abs(g - target) <= 1e-12
        assert abs(qbc.curve_value(curve, g) - g) <= 1e-12
        values.append(g)
    assert all(a < b for a, b in zip(values, values[1:]))
    printable = ", ".join(f"{v:.5f}" for v in values)
    print(f"ACCEPTANCE PASS 3: fair points {printable} in closed form, strictly increasing")


def test_criterion_4_optimal_cheat_statistics():
    protocols = [fair_toss_protocol().base, *random_protocols(10, seed=2024)]
    n = 100_000
    for i, p in enumerate(protocols):
        report = security_report(p)
        p_unveil_expected = (1 + report.fidelity) / 2
        stats = estimate_statistics(p, CheatingAlice(), HonestBob(), n, seed=10_000 + i)
        assert abs(stats.p_unveil - p_unveil_expected) <= 3 * binomial_sigma(p_unveil_expected, n)

        p_estimate_expected = (1 + report.trace_distance) / 2
        stats = estimate_statistics(p, HonestAlice(), HelstromBob(), n, seed=20_000 + i)
        assert abs(stats.p_estimate - p_estimate_expected) <= 3 * binomial_sigma(p_estimate_expected, n)

    rng = np.random.default_rng(99)
    fair = protocols[0]
    for _ in range(10_000):
        record = simulate_run(fair, HonestAlice(), HonestBob(), 0, rng)
        assert record.outcome == record.committed_bit
    for p in protocols[1:]:
        for _ in range(30):
            record = simulate_run(p, HonestAlice(), HonestBob(), 0, rng)
            assert record.outcome == record.committed_bit
    print(
        "ACCEPTANCE PASS 4: optimal cheats hit (1+F)/2 and (1+D)/2 within 3 sigma at 1e5 runs "
        "on the fair protocol and 10 random protocols; honest runs verified in 100% of 1e4 runs"
    )


def test_criterion_5_cheat_search_optimality():
    worst_over = -np.inf
    worst_gap = -np.inf
    for i, p in enumerate(random_protocols(20, seed=4096)):
        closed_form = optimal_cheat_kit(p).per_bit_success
        result = random_cheat_search(p, 10_000, seed=30_000 + i)
        worst_over = max(worst_over, result.best_value - closed_form)
        worst_gap = max(worst_gap, closed_form - result.best_value)
        assert result.best_value <= closed_form + 5e-3
        assert result.best_value >= closed_form - 5e-3
    print(
        "ACCEPTANCE PASS 5: 1e4-candidate cheat search on 20 random protocols never beats the "
        f"closed form (max excess {worst_over:.2e}) and reaches it (max shortfall {worst_gap:.2e})"
    )


def test_criterion_6_inequality_suite():
    def assert_class(pairs, require=(), equality=None):
        for rho, sigma in pairs:
            report = check_inequalities(rho, sigma)
            assert report.all_satisfied()
            for name in require:
                check = next(c for c in report.checks if c.name == name)
                assert check.applicable and check.satisfied
            if equality is not None:
                assert abs(equality(report.trace_distance, report.fidelity)) <= 1e-9

    count = 1000
    assert_class(
        (random_density_pair(2 + i % 7, 50_000 + i) for i in range(count)),
    )
    assert_class(
        (
            (density_from_pure(random_pure_state(2 + i % 4, 60_000 + i)), random_density(2 + i % 4, 1 + i % (2 + i % 4), 61_000 + i))
            for i in range(count)
        ),
        require=("squared_fidelity_lower_bound",),
    )
    assert_class(
        (
            (
                density_from_pure(random_pure_state(2 + i % 4, 70_000 + i)),
                density_from_pure(random_pure_state(2 + i % 4, 71_000 + i)),
            )
            for i in range(count)
        ),
        require=("pure_pair_equality", "squared_fidelity_lower_bound"),
        equality=lambda d, f: d - np.sqrt(max(0.0, 1 - f * f)),
    )
    for i in range(count):
        rho, sigma = random_density_pair(2, 80_000 + i)
        report = check_inequalities(rho, sigma)
        assert report.all_satisfied()
        strong = next(c for c in report.checks if c.name == "squared_fidelity_lower_bound")
        assert strong.applicable and strong.satisfied
        assert report.trace_distance + report.fidelity**2 >= 1 - 1e-9

    worst_bloch = 0.0
    for i in range(count):
        rho, sigma = random_density_pair(2, 90_000 + i)
        r, s = qubit_bloch(rho), qubit_bloch(sigma)
        worst_bloch = max(
            worst_bloch,
            abs(bloch_trace_distance(r, s) - trace_distance(rho, sigma)),
            abs(bloch_fidelity_sq(r, s) - fidelity(rho, sigma) ** 2),
        )
    assert worst_bloch <= 1e-9
    print(
        "ACCEPTANCE PASS 6: distance/fidelity inequalities hold over 1e3 pairs per class; "
        f"Bloch and matrix formulas agree to {worst_bloch:.2e} on 1e3 qubit pairs"
    )


def test_criterion_7_purification_oracles():
    worst_overlap = 0.0
    rng = np.random.default_rng(7)
    for _ in range(200):
        dp, dt = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        psi = BipartiteState(dp, dt, random_pure_state(dp * dt, rng))
        chi = BipartiteState(dp, dt, random_pure_state(dp * dt, rng))
        res = max_parallel_overlap(psi, chi)
        f = fidelity(partial_trace(psi, "token"), partial_trace(chi, "token"))
        worst_overlap = max(worst_overlap, abs(res.overlap - f))
    assert worst_overlap <= 1e-8

    sigma, omega = random_density_pair(2, 777)
    value, achiever = max_fidelity_sq_sum(sigma, omega)
    attained = fidelity(achiever, sigma) ** 2 + fidelity(achiever, omega) ** 2
    assert abs(attained - value) <= 1e-6
    best = 0.0
    search_rng = np.random.default_rng(778)
    for i in range(10_000):
        rho = random_density(2, 1 + i % 2, search_rng)
        candidate = fidelity(rho, sigma) ** 2 + fidelity(rho, omega) ** 2
        assert candidate <= value + 1e-9
        best = max(best, candidate)
    assert best >= value - 5e-3
    search_shortfall = value - best

    for dim, seed in ((3, 800), (4, 801)):
        sigma, omega = random_density_pair(dim, seed)
        value, achiever = max_fidelity_sq_sum(sigma, omega)
        attained = fidelity(achiever, sigma) ** 2 + fidelity(achiever, omega) ** 2
        assert abs(attained - value) <= 1e-6
    print(
        "ACCEPTANCE PASS 7: purification overlap equals reduced fidelity on 200 pairs "
        f"(max deviation {worst_overlap:.2e}); the fidelity-sum maximum bounds 1e4 random states "
        f"and is attained (search shortfall {search_shortfall:.2e})"
    )


def test_criterion_8_coin_tossing():
    fair = fair_toss_protocol()
    report = biases(fair)
    assert abs(report.alpha - 0.25) <= 1e-12
    assert abs(report.beta - 0.25) <= 1e-12

    n = 100_000
    stats = toss_statistics(fair, "alice", n, seed=42)
    assert abs(stats.alice_win_rate - 0.75) <= 3 * binomial_sigma(0.75, n)
    stats = toss_statistics(fair, "bob", n, seed=43)
    assert abs(stats.bob_win_rate - 0.75) <= 3 * binomial_sigma(0.75, n)
    stats = toss_statistics(fair, "none", n, seed=44)
    assert stats.alice_caught_rate == 0.0

    worst_sum = 0.0
    for lam in uniform_grid(Commuting3D, GRID):
        rep = biases(CoinTossProtocol(qbc.family_protocol(Commuting3D(lam))))
        worst_sum = max(worst_sum, abs(rep.alpha + rep.beta - 0.5))
    assert worst_sum <= 1e-9

    for i, base in enumerate(random_protocols(10, seed=4242)):
        ct = CoinTossProtocol(base)
        rep = biases(ct)
        m = 20_000
        alice_stats = toss_statistics(ct, "alice", m, seed=50_000 + i)
        expected = 0.5 + rep.alpha
        assert abs(alice_stats.alice_win_rate - expected) <= 3 * binomial_sigma(expected, m)
        bob_stats = toss_statistics(ct, "bob", m, seed=60_000 + i)
        expected = 0.5 + rep.beta
        assert abs(bob_stats.bob_win_rate - expected) <= 3 * binomial_sigma(expected, m)
    print(
        "ACCEPTANCE PASS 8: fair toss biases (0.25, 0.25); cheater win rates within 3 sigma at "
        f"1e5 tosses; alpha + beta = 1/2 across the commuting family (max deviation {worst_sum:.2e})"
    )
