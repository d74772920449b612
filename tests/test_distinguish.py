"""Tests for distance/fidelity measures and their constructive optimizers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import qbc
from conftest import ENGINE_PROTOCOLS, random_density_pair, random_protocols
from qbc.distinguish import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    aligned_superposition,
    bloch_fidelity_sq,
    bloch_trace_distance,
    check_inequalities,
    combined_support_rank,
    inequalities_at,
    fidelity,
    helstrom,
    is_pure,
    max_fidelity_sq_sum,
    max_parallel_overlap,
    phase_aligned_sum,
    polar_unitary,
    qubit_bloch,
    trace_distance,
)
from qbc.errors import DimMismatch, NotQubit
from qbc.linalg import (
    BipartiteState,
    DensityOperator,
    density_from_pure,
    partial_trace,
    random_density,
    random_pure_state,
)


def family_reductions(family):
    return qbc.honest_reduced_states(qbc.family_protocol(family))


class TestTraceDistance:
    def test_identical(self):
        rho = random_density(3, 2, 0)
        assert trace_distance(rho, rho) == 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.6, 1.0])
    def test_commuting_family(self, lam):
        rho0, rho1 = family_reductions(qbc.Commuting3D(lam))
        assert trace_distance(rho0, rho1) == pytest.approx(lam, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
    def test_qubit_family(self, lam):
        rho0, rho1 = family_reductions(qbc.QubitPureMixed(lam))
        assert trace_distance(rho0, rho1) == pytest.approx(1.0 - lam, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            trace_distance(random_density(2, 2, 0), random_density(3, 2, 0))


class TestFidelity:
    def test_identical(self):
        rho = random_density(4, 4, 1)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.4, 0.9, 1.0])
    def test_qubit_family(self, lam):
        rho0, rho1 = family_reductions(qbc.QubitPureMixed(lam))
        assert fidelity(rho0, rho1) == pytest.approx(np.sqrt(lam), abs=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.3, np.pi / 4, np.pi / 2])
    def test_pure_pair(self, phi):
        zero = density_from_pure(qbc.PureState(np.eye(2)[0]))
        rotated = density_from_pure(qbc.PureState([np.cos(phi), np.sin(phi)]))
        assert fidelity(zero, rotated) == pytest.approx(abs(np.cos(phi)), abs=1e-12)

    def test_symmetric(self):
        for seed in range(20):
            rho, sigma = random_density_pair(3, seed)
            assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-9)

    @pytest.mark.parametrize("lam, exact", [(1e-14, 1e-7), (1e-13, np.sqrt(1e-13))])
    def test_square_root_floor_drops_tiny_eigenvalues(self, lam, exact):
        """``sqrt_psd`` zeroes eigenvalues below ``SQRT_NOISE_FLOOR``, so this
        route reads 0 where ``security_report``'s Uhlmann route keeps sqrt(lam)."""
        assert qbc.linalg.SQRT_NOISE_FLOOR == 1e-13
        rho0, rho1 = family_reductions(qbc.QubitPureMixed(lam))
        assert fidelity(rho0, rho1) == 0.0
        report = qbc.security_report(qbc.family_protocol(qbc.QubitPureMixed(lam)))
        assert report.fidelity == pytest.approx(exact, rel=1e-9)


class TestHelstrom:
    def test_indistinguishable(self):
        rho = random_density(3, 3, 2)
        assert helstrom(rho, rho).success_probability == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_pure(self):
        rho0 = density_from_pure(qbc.PureState(np.eye(2)[0]))
        rho1 = density_from_pure(qbc.PureState(np.eye(2)[1]))
        assert helstrom(rho0, rho1).success_probability == pytest.approx(1.0, abs=1e-12)

    def test_commuting_family(self):
        rho0, rho1 = family_reductions(qbc.Commuting3D(0.3))
        assert helstrom(rho0, rho1).success_probability == pytest.approx(0.65, abs=1e-12)

    def test_measurement_invariants_and_success(self):
        for seed in range(200):
            dim = 2 + seed % 3
            rho0, rho1 = random_density_pair(dim, 1000 + seed)
            m = helstrom(rho0, rho1)
            eye = np.eye(dim)
            assert np.max(np.abs(m.projector0 + m.projector1 - eye)) <= 1e-8
            for proj in (m.projector0, m.projector1):
                assert np.max(np.abs(proj - proj.conj().T)) <= 1e-8
                assert np.max(np.abs(proj @ proj - proj)) <= 1e-8
            expected = 0.5 + trace_distance(rho0, rho1) / 2
            assert m.success_probability == pytest.approx(expected, abs=1e-9)

    def test_orthogonal_reductions_succeed_with_probability_at_most_1(self):
        """chi_b = phi_b ⊗ t_b with orthonormal t_b has D = 1; the success is
        (1 + D)/2 with D clipped, so its last bit cannot pass 1."""
        rng = np.random.default_rng(14)
        for index in range(2000):
            dp, dt = 1 + index % 3, 2 + (index // 3) % 4
            z = rng.standard_normal(2 * dp + 2 * dt) + 1j * rng.standard_normal(2 * dp + 2 * dt)
            t, _ = np.linalg.qr(z[: 2 * dt].reshape(dt, 2))
            phi = z[2 * dt :].reshape(2, dp)
            chi = [np.kron(phi[b] / np.linalg.norm(phi[b]), t[:, b]) for b in (0, 1)]
            p = qbc.PurificationProtocol(*(qbc.bipartite(dp, dt, amplitudes) for amplitudes in chi))
            rho0, rho1 = qbc.honest_reduced_states(p)
            success = helstrom(rho0, rho1).success_probability
            assert success <= 1.0
            assert abs(success - (1.0 + trace_distance(rho0, rho1)) / 2.0) <= 1e-12


class TestMaxParallelOverlap:
    def test_identical_purifications(self):
        psi = BipartiteState(3, 3, random_pure_state(9, 5))
        res = max_parallel_overlap(psi, psi)
        assert res.overlap == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_reductions(self):
        p = qbc.family_protocol(qbc.PurePair(np.pi / 2))
        res = max_parallel_overlap(p.chi0, p.chi1)
        assert res.overlap == pytest.approx(0.0, abs=1e-10)

    def test_equals_reduced_fidelity(self):
        for seed in range(30):
            dp, dt = 2 + seed % 3, 2 + (seed // 3) % 3
            psi = BipartiteState(dp, dt, random_pure_state(dp * dt, 300 + seed))
            chi = BipartiteState(dp, dt, random_pure_state(dp * dt, 600 + seed))
            res = max_parallel_overlap(psi, chi)
            f = fidelity(partial_trace(psi, "token"), partial_trace(chi, "token"))
            assert res.overlap == pytest.approx(f, abs=1e-8)

    def test_achieved_overlap_real_nonnegative(self):
        psi = BipartiteState(3, 2, random_pure_state(6, 7))
        chi = BipartiteState(3, 2, random_pure_state(6, 8))
        res = max_parallel_overlap(psi, chi)
        achieved = np.vdot(psi.amplitudes, (res.maximizing_unitary @ chi.as_matrix()).reshape(-1))
        assert abs(achieved.imag) <= 1e-9
        assert achieved.real == pytest.approx(res.overlap, abs=1e-8)

    def test_haar_search_never_beats_maximum(self):
        # Independent lower-bound oracle: no sampled unitary exceeds the
        # claimed maximum, and the best sample comes close for small dims.
        psi = BipartiteState(3, 3, random_pure_state(9, 21))
        chi = BipartiteState(3, 3, random_pure_state(9, 22))
        res = max_parallel_overlap(psi, chi)
        rng = np.random.default_rng(23)
        z = rng.standard_normal((10_000, 3, 3)) + 1j * rng.standard_normal((10_000, 3, 3))
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=1, axis2=2)
        unitaries = q * (diag / np.abs(diag))[:, None, :]
        overlaps = np.abs(
            np.einsum("pt,npq,qt->n", psi.as_matrix().conj(), unitaries, chi.as_matrix())
        )
        assert overlaps.max() <= res.overlap + 1e-9

    def test_dim_mismatch(self):
        psi = BipartiteState(2, 2, random_pure_state(4, 0))
        chi = BipartiteState(2, 3, random_pure_state(6, 0))
        with pytest.raises(DimMismatch):
            max_parallel_overlap(psi, chi)


class TestAlignmentKernels:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 4), (4, 2), (2, 5)])
    def test_polar_unitary_reaches_nuclear_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        rows, cols = shape
        for _ in range(20):
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            u, nuclear = polar_unitary(m)
            assert u.shape == (cols, rows)
            # Orthonormal columns when rows <= cols, orthonormal rows when rows >= cols.
            if rows <= cols:
                assert np.max(np.abs(u.conj().T @ u - np.eye(rows))) <= 1e-12
            if rows >= cols:
                assert np.max(np.abs(u @ u.conj().T - np.eye(cols))) <= 1e-12
            gram = m @ m.conj().T if rows <= cols else m.conj().T @ m
            expected = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None)).sum()
            achieved = np.trace(u @ m)
            assert nuclear == pytest.approx(expected, rel=1e-12)
            assert abs(achieved.imag) <= 1e-12 * nuclear
            assert achieved.real == pytest.approx(nuclear, rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (4, 2), (2, 5)])
    def test_aligned_superposition(self, shape):
        rng = np.random.default_rng(100 + sum(shape))
        for _ in range(20):
            a0, a1 = rng.standard_normal((2, *shape)) + 1j * rng.standard_normal((2, *shape))
            a0, a1 = a0 / np.linalg.norm(a0), a1 / np.linalg.norm(a1)
            u, vec, overlap = aligned_superposition(a0, a1)
            _, nuclear = polar_unitary(a0 @ a1.conj().T)
            assert u.shape == (shape[0], shape[0])
            assert overlap == pytest.approx(nuclear, abs=1e-12)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            aligned = np.vdot(a0, u.conj().T @ a1)
            assert abs(aligned.imag) <= 1e-12
            assert aligned.real >= 0.0
            assert aligned.real == pytest.approx(overlap, abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (4, 2), (2, 5)])
    def test_polar_unitary_stack_is_bit_for_bit_per_matrix(self, shape):
        rng = np.random.default_rng(200 + sum(shape))
        stack = rng.standard_normal((3, 4, *shape)) + 1j * rng.standard_normal((3, 4, *shape))
        unitaries, nuclear = polar_unitary(stack)
        assert unitaries.shape == (3, 4, shape[1], shape[0])
        assert nuclear.shape == (3, 4)
        for index in np.ndindex(3, 4):
            u, norm = polar_unitary(stack[index])
            assert np.array_equal(unitaries[index], u)
            assert nuclear[index] == norm

    def test_phase_aligned_sum_stack_is_bit_for_bit_per_row(self):
        rng = np.random.default_rng(300)
        phi0, phi1 = rng.standard_normal((2, 7, 6)) + 1j * rng.standard_normal((2, 7, 6))
        phi1[3] -= np.vdot(phi0[3], phi1[3]) / np.vdot(phi0[3], phi0[3]) * phi0[3]
        vecs, overlaps = phase_aligned_sum(phi0, phi1)
        assert overlaps[3] <= 1e-12  # the row that takes phase one
        for row in range(7):
            vec, overlap = phase_aligned_sum(phi0[row], phi1[row])
            assert np.array_equal(vecs[row], vec)
            assert overlaps[row] == overlap

    def test_phase_aligned_sum_of_orthogonal_states_uses_phase_one(self):
        phi0 = random_pure_state(6, 1).amplitudes
        raw = random_pure_state(6, 2).amplitudes
        raw = raw - np.vdot(phi0, raw) * phi0
        phi1 = raw / np.linalg.norm(raw)
        vec, overlap = phase_aligned_sum(phi0, phi1)
        assert overlap <= 1e-15
        assert np.max(np.abs(vec - (phi0 + phi1) / np.sqrt(2.0))) <= 1e-15
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)

    def test_phase_aligned_sum_adds_in_step(self):
        for seed in range(20):
            phi0 = random_pure_state(5, 10 + seed).amplitudes
            phi1 = random_pure_state(5, 50 + seed).amplitudes
            vec, overlap = phase_aligned_sum(phi0, phi1)
            assert overlap == abs(np.vdot(phi0, phi1))
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)
            for phi in (phi0, phi1):
                assert abs(np.vdot(phi, vec)) ** 2 == pytest.approx((1.0 + overlap) / 2.0, abs=1e-14)


def single_polar_unitary(m):
    """The one-matrix polar kernel the stacked one replaced: its bits are the reference."""
    w, s, vh = np.linalg.svd(m, full_matrices=False)
    return vh.conj().T @ w.conj().T, float(s.sum())


def single_phase_aligned_sum(phi0, phi1):
    """The one-vector phase-aligned sum the row-wise one replaced."""
    c = np.vdot(phi0, phi1)
    phase = 1.0 if abs(c) <= 1e-12 else np.exp(-1j * np.angle(c))
    vec = phi0 + phase * phi1
    return vec / np.linalg.norm(vec), abs(c)


def test_stacked_kernels_keep_the_bits_of_their_callers(monkeypatch):
    protocols = [make() for make in ENGINE_PROTOCOLS.values()] + random_protocols(20, seed=77)

    def outputs(p):
        kit = qbc.optimal_cheat_kit(p)
        parallel = max_parallel_overlap(p.chi0, p.chi1)
        value, achiever = max_fidelity_sq_sum(*qbc.honest_reduced_states(p))
        return (
            kit.psi_max.amplitudes,
            kit.u1,
            kit.per_bit_success,
            parallel.overlap,
            parallel.maximizing_unitary,
            value,
            achiever.matrix,
        )

    stacked = [outputs(p) for p in protocols]
    monkeypatch.setattr(qbc.distinguish, "polar_unitary", single_polar_unitary)
    monkeypatch.setattr(qbc.distinguish, "phase_aligned_sum", single_phase_aligned_sum)
    for p, now in zip(protocols, stacked):
        for got, reference in zip(now, outputs(p)):
            assert np.array_equal(got, reference)


class TestMaxFidelitySqSum:
    def test_coinciding_targets(self):
        sigma = random_density(3, 2, 4)
        value, achiever = max_fidelity_sq_sum(sigma, sigma)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert fidelity(achiever, sigma) == pytest.approx(1.0, abs=1e-7)

    def test_orthogonal_pure_targets(self):
        sigma = density_from_pure(qbc.PureState(np.eye(2)[0]))
        omega = density_from_pure(qbc.PureState(np.eye(2)[1]))
        value, achiever = max_fidelity_sq_sum(sigma, omega)
        assert value == pytest.approx(1.0, abs=1e-12)
        attained = fidelity(achiever, sigma) ** 2 + fidelity(achiever, omega) ** 2
        assert attained == pytest.approx(value, abs=1e-6)

    def test_achiever_attains_value(self):
        for seed in range(10):
            dim = 2 + seed % 3
            sigma, omega = random_density_pair(dim, 40 + seed)
            value, achiever = max_fidelity_sq_sum(sigma, omega)
            assert value == pytest.approx(1.0 + fidelity(sigma, omega), abs=1e-12)
            attained = fidelity(achiever, sigma) ** 2 + fidelity(achiever, omega) ** 2
            assert attained == pytest.approx(value, abs=1e-6)

    def test_random_search_bounded_and_close(self):
        # Random-search oracle on qubits: 10^4 samples never exceed the
        # claimed maximum and the best sample lands within 5e-3 of it.
        sigma, omega = random_density_pair(2, 77)
        value, _ = max_fidelity_sq_sum(sigma, omega)
        rng = np.random.default_rng(78)
        best = 0.0
        for i in range(10_000):
            rho = random_density(2, 1 + i % 2, rng)
            candidate = fidelity(rho, sigma) ** 2 + fidelity(rho, omega) ** 2
            assert candidate <= value + 1e-9
            best = max(best, candidate)
        assert best >= value - 5e-3


class TestBloch:
    def test_equal_vectors(self):
        r = BlochVector(0.3, -0.2, 0.4)
        assert bloch_trace_distance(r, r) == 0.0
        assert bloch_fidelity_sq(r, r) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_unit_vectors(self):
        r = BlochVector(0.0, 0.0, 1.0)
        s = BlochVector(0.0, 0.0, -1.0)
        assert bloch_trace_distance(r, s) == pytest.approx(1.0, abs=1e-12)
        assert bloch_fidelity_sq(r, s) == pytest.approx(0.0, abs=1e-12)

    def test_matches_matrix_formulas(self):
        for seed in range(1000):
            rho, sigma = random_density_pair(2, 5000 + seed)
            r, s = qubit_bloch(rho), qubit_bloch(sigma)
            assert bloch_trace_distance(r, s) == pytest.approx(
                trace_distance(rho, sigma), abs=1e-9
            )
            assert bloch_fidelity_sq(r, s) == pytest.approx(
                fidelity(rho, sigma) ** 2, abs=1e-9
            )

    def test_round_trip(self):
        rho = random_density(2, 2, 3)
        r = qubit_bloch(rho)
        rebuilt = (np.eye(2) + r.x * PAULI_X + r.y * PAULI_Y + r.z * PAULI_Z) / 2.0
        assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-12

    def test_not_qubit(self):
        with pytest.raises(NotQubit):
            qubit_bloch(random_density(3, 2, 0))
        with pytest.raises(NotQubit):
            BlochVector(1.0, 1.0, 1.0)
        with pytest.raises(NotQubit):
            BlochVector(float("nan"), 0.0, 0.0)


class TestInequalities:
    def test_pure_pair_saturates_upper_bound(self):
        for seed in range(50):
            rho = density_from_pure(random_pure_state(3, seed))
            sigma = density_from_pure(random_pure_state(3, 500 + seed))
            report = check_inequalities(rho, sigma)
            equality = next(c for c in report.checks if c.name == "pure_pair_equality")
            assert equality.applicable and equality.satisfied
            assert report.trace_distance == pytest.approx(
                np.sqrt(1 - report.fidelity**2), abs=1e-9
            )

    def test_equal_pure_states_satisfy_every_check(self):
        """D = 0 and F = 1 up to rounding: the squared upper bound reads noise, not a violation."""
        for seed in range(20):
            rho = density_from_pure(random_pure_state(5, 300 + seed))
            report = check_inequalities(rho, rho)
            assert all(c.applicable for c in report.checks)
            assert report.all_satisfied(), report

    def test_upper_bound_slacks_are_squared(self):
        """Slacks of the upper bound and the equality are 1 - F^2 - D^2 and its negated size."""
        pure = density_from_pure(qbc.PureState(np.eye(2)[0]))
        slacks = {c.name: c.slack for c in inequalities_at(1e-8, 1.0, pure, pure).checks}
        assert slacks["fidelity_upper_bound"] == slacks["pure_pair_equality"] == -(1e-8 * 1e-8)
        slacks = {c.name: c.slack for c in inequalities_at(0.6, 0.6, pure, pure).checks}
        assert slacks["fidelity_upper_bound"] == 1.0 - 0.36 - 0.36
        assert slacks["pure_pair_equality"] == -abs(1.0 - 0.36 - 0.36)

    def test_commuting_family_saturates_lower_bound(self):
        rho0, rho1 = family_reductions(qbc.Commuting3D(0.35))
        report = check_inequalities(rho0, rho1)
        assert report.trace_distance + report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.all_satisfied()

    def test_qubit_family_saturates_strong_bound(self):
        rho0, rho1 = family_reductions(qbc.QubitPureMixed(0.4))
        report = check_inequalities(rho0, rho1)
        strong = next(c for c in report.checks if c.name == "squared_fidelity_lower_bound")
        assert strong.applicable
        assert report.trace_distance + report.fidelity**2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_random_mixed_pairs(self, dim):
        for seed in range(50):
            rho, sigma = random_density_pair(dim, 9000 + dim * 100 + seed)
            report = check_inequalities(rho, sigma)
            assert report.all_satisfied(), report

    def test_one_pure_strong_bound(self):
        for seed in range(100):
            rho = density_from_pure(random_pure_state(4, 200 + seed))
            sigma = random_density(4, 3, 700 + seed)
            report = check_inequalities(rho, sigma)
            strong = next(c for c in report.checks if c.name == "squared_fidelity_lower_bound")
            assert strong.applicable and strong.satisfied

    def test_qubit_pairs_strong_bound(self):
        for seed in range(100):
            rho, sigma = random_density_pair(2, 400 + seed)
            report = check_inequalities(rho, sigma)
            strong = next(c for c in report.checks if c.name == "squared_fidelity_lower_bound")
            assert strong.applicable and strong.satisfied
            assert report.trace_distance + report.fidelity**2 >= 1.0 - 1e-9

    @pytest.mark.parametrize(
        "slack, satisfied", [(-1e-9, True), (-1.0000001e-9, False), (float("nan"), False)]
    )
    def test_verdict_is_derived_from_slack(self, slack, satisfied):
        """Every check holds exactly when its slack is at least -TOL; NaN fails."""
        pure = density_from_pure(qbc.PureState(np.eye(2)[0]))
        report = inequalities_at(0.5, 0.5, pure, pure)
        assert [c.applicable for c in report.checks] == [True] * 4
        for check in report.checks:
            edge = dataclasses.replace(check, slack=slack)
            assert edge.satisfied is satisfied, check.name
            edged = dataclasses.replace(report, checks=(edge,))
            assert edged.all_satisfied() is satisfied

    def test_support_rank_detection(self):
        rho = density_from_pure(qbc.PureState(np.eye(4)[0]))
        sigma = DensityOperator(np.diag([0.5, 0.5, 0.0, 0.0]))
        assert combined_support_rank(rho, sigma) == 2
        assert is_pure(rho) and not is_pure(sigma)
