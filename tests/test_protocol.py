"""Tests for the protocol engine: reports, cheats, sampling, statistics."""

from __future__ import annotations

import numpy as np
import pytest

import qbc
from conftest import random_protocols
from qbc.errors import DimMismatch, NotAMeasurement, NotNormalized, NotOrthogonal
from qbc.linalg import DensityOperator, PureState, apply_to_proof, basis_state, bipartite
from qbc.protocol import (
    CheatingAlice,
    HelstromBob,
    HonestAlice,
    HonestBob,
    Outcome,
    born_sample,
    checked_stacks,
    distance_fidelity,
    estimate_statistics,
    exact_statistics,
    honest_reduced_states,
    make_protocol,
    optimal_cheat_kit,
    random_cheat_search,
    random_protocol,
    security_report,
    simulate_run,
)


def product_protocol():
    chi0 = bipartite(2, 2, np.kron(basis_state(2, 0).amplitudes, basis_state(2, 0).amplitudes))
    chi1 = bipartite(2, 2, np.kron(basis_state(2, 1).amplitudes, basis_state(2, 1).amplitudes))
    return make_protocol(chi0, chi1)


class TestMakeProtocol:
    def test_orthogonal_product_states(self):
        p = product_protocol()
        assert (p.dim_proof, p.dim_token) == (2, 2)

    def test_rejects_equal_states(self):
        chi = bipartite(2, 2, np.kron(basis_state(2, 0).amplitudes, basis_state(2, 0).amplitudes))
        with pytest.raises(NotOrthogonal):
            make_protocol(chi, chi)

    def test_rejects_dim_mismatch(self):
        chi0 = bipartite(2, 2, qbc.random_pure_state(4, 0).amplitudes)
        chi1 = bipartite(4, 1, qbc.random_pure_state(4, 1).amplitudes)
        with pytest.raises(DimMismatch):
            make_protocol(chi0, chi1)

    def test_family_states_orthogonal(self):
        p = qbc.family_protocol(qbc.Commuting3D(0.5))
        assert abs(np.vdot(p.chi0.amplitudes, p.chi1.amplitudes)) <= 1e-12

    def test_random_protocol_valid_and_deterministic(self):
        a = random_protocol(3, 2, 1)
        b = random_protocol(3, 2, 1)
        assert np.array_equal(a.chi0.amplitudes, b.chi0.amplitudes)
        assert abs(np.vdot(a.chi0.amplitudes, a.chi1.amplitudes)) <= 1e-12


class TestHonestReducedStates:
    def test_product_protocol(self):
        rho0, rho1 = honest_reduced_states(product_protocol())
        assert np.allclose(rho0.matrix, np.diag([1.0, 0.0]))
        assert np.allclose(rho1.matrix, np.diag([0.0, 1.0]))

    def test_commuting_family(self):
        rho0, rho1 = honest_reduced_states(qbc.family_protocol(qbc.Commuting3D(0.3)))
        assert np.allclose(rho0.matrix, np.diag([0.3, 0.7, 0.0]), atol=1e-12)
        assert np.allclose(rho1.matrix, np.diag([0.0, 0.7, 0.3]), atol=1e-12)

    def test_qubit_family(self):
        rho0, rho1 = honest_reduced_states(qbc.family_protocol(qbc.QubitPureMixed(0.4)))
        assert np.allclose(rho0.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(rho1.matrix, np.diag([0.4, 0.6]), atol=1e-12)


class TestSecurityReport:
    def test_orthogonal_reductions(self):
        report = security_report(qbc.family_protocol(qbc.PurePair(np.pi / 2)))
        assert report.g_max == pytest.approx(0.5, abs=1e-12)
        assert report.c_max == pytest.approx(0.0, abs=1e-12)

    def test_identical_reductions(self):
        report = security_report(qbc.family_protocol(qbc.PurePair(0.0)))
        assert report.g_max == pytest.approx(0.0, abs=1e-12)
        assert report.c_max == pytest.approx(0.5, abs=1e-12)

    def test_commuting_family(self):
        report = security_report(qbc.family_protocol(qbc.Commuting3D(0.3)))
        assert report.g_max == pytest.approx(0.15, abs=1e-12)
        assert report.c_max == pytest.approx(0.35, abs=1e-12)

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            qbc.SecurityReport(0.4, 0.6, g_max=0.3, c_max=0.3)

    def test_bounds_hold_on_random_protocols(self):
        for p in random_protocols(50, seed=11):
            report = security_report(p)
            d, f = report.trace_distance, report.fidelity
            assert report.g_max >= d / 2 - 1e-12
            assert report.c_max >= f * f / 2 - 1e-12
            assert 2 * report.g_max + np.sqrt(2 * report.c_max) >= 1 - 1e-9


class TestStackedCore:
    def stacks(self, count=5, seed=3):
        protocols = [random_protocol(3, 4, seed + i) for i in range(count)]
        a0 = np.stack([p.chi0.as_matrix() for p in protocols])
        a1 = np.stack([p.chi1.as_matrix() for p in protocols])
        return protocols, a0, a1

    def test_stack_equals_single_reports(self):
        protocols, a0, a1 = self.stacks()
        d, f = distance_fidelity(a0, a1)
        for i, p in enumerate(protocols):
            report = security_report(p)
            assert (d[i], f[i]) == (report.trace_distance, report.fidelity)

    def test_checked_stacks_keeps_valid_amplitudes(self):
        _, a0, a1 = self.stacks()
        c0, c1 = checked_stacks(a0, a1)
        assert np.array_equal(c0, a0) and np.array_equal(c1, a1)

    def test_checked_stacks_renormalizes_within_tolerance(self):
        _, a0, a1 = self.stacks()
        a0[2] *= 1.0 + 1e-10
        c0, _ = checked_stacks(a0, a1)
        assert abs(np.linalg.norm(c0[2]) - 1.0) <= 1e-15

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, np.nan])
    def test_checked_stacks_rejects_bad_norm(self, scale):
        _, a0, a1 = self.stacks()
        a1[4] *= scale
        with pytest.raises(NotNormalized):
            checked_stacks(a0, a1)

    @pytest.mark.parametrize(
        "offset",
        [5e-13, -5e-13, 2e-12, -2e-12, 9e-10, -9e-10, 1.1e-9, -1.1e-9, "nan", "inf", "-inf", "1e200", "-1e200"],
    )
    def test_norm_rule_shared_with_pure_state(self, offset):
        """One norm rule: both raise NotNormalized, or both keep or renormalize to the same bits."""
        _, a0, a1 = self.stacks()
        if isinstance(offset, str):
            a1[4, 0, 0] = float(offset)  # one NaN, infinite or overflowing amplitude
        else:
            a1[4] *= 1.0 + offset  # the norm is off 1 by offset
        state = a1[4].reshape(-1)
        if isinstance(offset, str) or abs(offset) > 1e-9:
            for check in (lambda: PureState(state), lambda: checked_stacks(a0, a1)):
                with pytest.raises(NotNormalized):
                    check()
        else:
            expected = PureState(state).amplitudes
            assert checked_stacks(a0, a1)[1][4].reshape(-1).tobytes() == expected.tobytes()
            assert (expected.tobytes() == state.tobytes()) == (abs(offset) <= 1e-12)

    def test_checked_stacks_rejects_overlap(self):
        _, a0, a1 = self.stacks()
        a1[1] = a0[1]
        with pytest.raises(NotOrthogonal):
            checked_stacks(a0, a1)

    def test_core_rejects_reduction_off_unit_trace(self):
        """One density rule: a trace off 1 by 2e-9 fails the core and DensityOperator alike."""
        _, a0, a1 = self.stacks()
        a0 *= np.sqrt(1 + 2e-9)
        with pytest.raises(NotNormalized):
            distance_fidelity(a0, a1)
        with pytest.raises(NotNormalized):
            DensityOperator(a0[0].T @ a0[0].conj())


class TestOptimalCheatKit:
    def test_identical_reductions_full_control(self):
        kit = optimal_cheat_kit(qbc.family_protocol(qbc.PurePair(0.0)))
        assert kit.per_bit_success == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_reductions_no_advantage(self):
        kit = optimal_cheat_kit(qbc.family_protocol(qbc.PurePair(np.pi / 2)))
        assert kit.per_bit_success == pytest.approx(0.5, abs=1e-12)

    def test_kit_invariants(self):
        for p in random_protocols(20, seed=21):
            kit = optimal_cheat_kit(p)
            report = security_report(p)
            aligned = qbc.max_parallel_overlap(p.chi1, p.chi0, act_on="proof")
            assert np.max(np.abs(kit.u0 @ kit.u1 - aligned.maximizing_unitary)) <= 1e-8
            assert kit.per_bit_success == pytest.approx((1 + report.fidelity) / 2, abs=1e-8)
            assert np.linalg.norm(kit.psi_max.amplitudes) == pytest.approx(1.0, abs=1e-12)
            for bit in (0, 1):
                steered = apply_to_proof(kit.unveil_unitary(bit), kit.psi_max)
                accept = abs(np.vdot(p.chi(bit).amplitudes, steered.amplitudes)) ** 2
                assert accept == pytest.approx(kit.per_bit_success, abs=1e-8)

    def test_c_max_consistent_with_overlap(self):
        for p in random_protocols(100, seed=31):
            report = security_report(p)
            overlap = qbc.max_parallel_overlap(p.chi0, p.chi1, act_on="proof").overlap
            assert report.c_max == pytest.approx(overlap / 2, abs=1e-8)

    def test_search_confirms_optimality(self):
        p = random_protocol(3, 3, 77)
        kit = optimal_cheat_kit(p)
        result = random_cheat_search(p, 10_000, seed=78)
        assert result.best_value <= kit.per_bit_success + 5e-3
        assert result.best_value >= kit.per_bit_success - 5e-3


class TestBornSample:
    def test_eigenstate_is_deterministic(self):
        rng = np.random.default_rng(0)
        state = basis_state(2, 0)
        projs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert all(born_sample(state, projs, rng) == 0 for _ in range(50))

    def test_equal_superposition_frequencies(self):
        rng = np.random.default_rng(1)
        state = qbc.PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        projs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        n = 20_000
        zeros = sum(born_sample(state, projs, rng) == 0 for _ in range(n))
        sigma = np.sqrt(0.25 / n)
        assert abs(zeros / n - 0.5) <= 3 * sigma

    def test_general_frequencies_match_born_rule(self):
        rng = np.random.default_rng(2)
        state = qbc.random_pure_state(3, 9)
        vectors = np.linalg.qr(
            np.random.default_rng(10).standard_normal((3, 3))
            + 1j * np.random.default_rng(11).standard_normal((3, 3))
        )[0]
        projs = [np.outer(vectors[:, k], vectors[:, k].conj()) for k in range(3)]
        exact = [float(np.vdot(state.amplitudes, proj @ state.amplitudes).real) for proj in projs]
        n = 20_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[born_sample(state, projs, rng)] += 1
        for k in range(3):
            sigma = np.sqrt(exact[k] * (1 - exact[k]) / n)
            assert abs(counts[k] / n - exact[k]) <= 3 * sigma + 1e-12

    def test_consumes_one_draw(self):
        class CountingRng:
            def __init__(self):
                self.calls = 0

            def random(self):
                self.calls += 1
                return 0.3

        rng = CountingRng()
        born_sample(basis_state(2, 0), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], rng)
        assert rng.calls == 1

    def test_rejects_incomplete_measurement(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NotAMeasurement):
            born_sample(basis_state(2, 0), [np.diag([1.0, 0.0])], rng)

    def test_rejects_non_orthogonal(self):
        rng = np.random.default_rng(0)
        projs = [np.diag([1.0, 0.5]), np.diag([0.0, 0.5])]
        with pytest.raises(NotAMeasurement):
            born_sample(basis_state(2, 0), projs, rng)


class TestSimulateRun:
    def test_honest_runs_always_verify(self):
        rng = np.random.default_rng(5)
        protocols = [
            qbc.family_protocol(qbc.Commuting3D(0.3)),
            qbc.family_protocol(qbc.QubitPureMixed(0.7)),
            *random_protocols(3, seed=55),
        ]
        for p in protocols:
            for _ in range(100):
                record = simulate_run(p, HonestAlice(), HonestBob(), 0, rng)
                assert record.outcome == record.committed_bit
                assert record.bob_estimate is None

    def test_fixed_bit_is_respected(self):
        rng = np.random.default_rng(6)
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        record = simulate_run(p, HonestAlice(1), HonestBob(), 0, rng)
        assert record.committed_bit == 1 and record.outcome == Outcome.ONE

    @pytest.mark.parametrize("bit", [1.0, True, np.True_, 0.5, 2, -1, np.int64(2), "1"])
    def test_bits_must_be_the_integers_0_or_1(self, bit):
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        with pytest.raises(ValueError, match="bit must be the integer 0 or 1"):
            HonestAlice(bit)
        with pytest.raises(ValueError, match="target_bit must be the integer 0 or 1"):
            simulate_run(p, CheatingAlice(), HonestBob(), bit, np.random.default_rng(0))

    def test_numpy_integer_bits_become_int(self):
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        alice = HonestAlice(np.int64(1))
        assert type(alice.bit) is int and alice == HonestAlice(1)
        record = simulate_run(p, alice, HonestBob(), np.int64(0), np.random.default_rng(0))
        assert type(record.target_bit) is int
        assert record.committed_bit == 1 and record.outcome == Outcome.ONE

    def test_cheating_alice_orthogonal_reductions(self):
        # No usable overlap: each unveiling succeeds half the time, the
        # rest land in Fail (never the opposite bit).
        rng = np.random.default_rng(7)
        p = qbc.family_protocol(qbc.PurePair(np.pi / 2))
        n = 2000
        hits = 0
        for i in range(n):
            target = i % 2
            record = simulate_run(p, CheatingAlice(), HonestBob(), target, rng)
            assert record.outcome in (target, Outcome.FAIL)
            hits += record.outcome == target
        sigma = np.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) <= 3 * sigma

    def test_helstrom_bob_estimates(self):
        rng = np.random.default_rng(8)
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        n = 2000
        hits = sum(
            (rec := simulate_run(p, HonestAlice(), HelstromBob(), 0, rng)).bob_estimate
            == rec.committed_bit
            for _ in range(n)
        )
        sigma = np.sqrt(0.65 * 0.35 / n)
        assert abs(hits / n - 0.65) <= 3 * sigma


class TestEstimateStatistics:
    def test_deterministic_per_seed(self):
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        a = estimate_statistics(p, CheatingAlice(), HelstromBob(), 5000, seed=1)
        b = estimate_statistics(p, CheatingAlice(), HelstromBob(), 5000, seed=1)
        c = estimate_statistics(p, CheatingAlice(), HelstromBob(), 5000, seed=2)
        assert a == b
        assert a != c

    def test_honest_baseline(self):
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        stats = estimate_statistics(p, HonestAlice(), HonestBob(), 100_000, seed=3)
        assert stats.p_estimate == 0.5 and stats.p_estimate_stderr == 0.0
        assert abs(stats.p_unveil - 0.5) <= 3 * np.sqrt(0.25 / stats.n_runs)

    def test_cheating_alice_rate(self):
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        stats = estimate_statistics(p, CheatingAlice(), HonestBob(), 100_000, seed=4)
        sigma = np.sqrt(0.85 * 0.15 / stats.n_runs)
        assert abs(stats.p_unveil - 0.85) <= 3 * sigma

    def test_helstrom_bob_rate(self):
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        stats = estimate_statistics(p, HonestAlice(), HelstromBob(), 100_000, seed=5)
        sigma = np.sqrt(0.65 * 0.35 / stats.n_runs)
        assert abs(stats.p_estimate - 0.65) <= 3 * sigma

    def test_concealing_protocol_blinds_bob(self):
        p = qbc.family_protocol(qbc.PurePair(0.0))
        stats = estimate_statistics(p, HonestAlice(), HelstromBob(), 50_000, seed=6)
        assert abs(stats.p_estimate - 0.5) <= 3 * np.sqrt(0.25 / stats.n_runs)

    def test_fixed_bit_conditional_rate(self):
        # Commuting3D tie rule sends the zero eigenspace to projector0, so
        # estimate 0 is certain under rho0 while P(est=1|rho1) = lam.
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        stats0 = estimate_statistics(p, HonestAlice(0), HelstromBob(), 20_000, seed=7)
        assert stats0.p_estimate == pytest.approx(1.0, abs=1e-12)
        stats1 = estimate_statistics(p, HonestAlice(1), HelstromBob(), 20_000, seed=8)
        sigma = np.sqrt(0.3 * 0.7 / stats1.n_runs)
        assert abs(stats1.p_estimate - 0.3) <= 3 * sigma

    def test_exact_estimate_rate_matches_helstrom_formula(self):
        # Complex-amplitude protocols exercise the conjugation in the
        # probability tables; the exact rate must equal the Helstrom
        # success probability, not that of a transposed measurement.
        for seed in (17, 18, 19):
            p = random_protocol(3, 3, seed)
            measurement = qbc.helstrom(*honest_reduced_states(p))
            exact_e, _ = exact_statistics(p, HonestAlice(), HelstromBob())
            assert exact_e == pytest.approx(measurement.success_probability, abs=1e-10)

    @pytest.mark.parametrize(
        "alice,bob",
        [
            (HonestAlice(), HonestBob()),
            (HonestAlice(), HelstromBob()),
            (HonestAlice(1), HelstromBob()),
            (CheatingAlice(), HonestBob()),
            (CheatingAlice(), HelstromBob()),
        ],
    )
    def test_monte_carlo_tracks_exact_values(self, alice, bob):
        p = random_protocol(3, 2, 123)
        exact_e, exact_u = exact_statistics(p, alice, bob)
        stats = estimate_statistics(p, alice, bob, 50_000, seed=9)
        tol_e = 4 * np.sqrt(max(exact_e * (1 - exact_e), 1e-12) / stats.n_runs)
        tol_u = 4 * np.sqrt(max(exact_u * (1 - exact_u), 1e-12) / stats.n_runs)
        assert abs(stats.p_estimate - exact_e) <= max(tol_e, 1e-12)
        assert abs(stats.p_unveil - exact_u) <= max(tol_u, 1e-12)


class TestCheatSearch:
    def test_never_beats_closed_form(self):
        for i, p in enumerate(random_protocols(5, seed=41)):
            kit = optimal_cheat_kit(p)
            result = random_cheat_search(p, 2000, seed=100 + i)
            assert result.best_value <= kit.per_bit_success + 5e-3
            assert result.candidates_evaluated <= 2000

    def test_pure_random_mode(self):
        p = random_protocol(2, 2, 3)
        kit = optimal_cheat_kit(p)
        result = random_cheat_search(p, 1000, seed=5, refine_fraction=0.0)
        assert result.best_value <= kit.per_bit_success + 5e-3
