"""Tests for the protocol engine: reports, cheats, sampling, statistics."""

from __future__ import annotations

import ast
import hashlib
import itertools
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qbc
from conftest import (
    EDGE_PROTOCOLS,
    KNOWN_ANSWER_CLASSES,
    known_answer_amplitudes,
    known_answer_spectra,
    qubit_token_stacks,
    random_protocols,
)
from qbc.distinguish import phase_aligned_sum, polar_unitary
from qbc.errors import BadRank, DimMismatch, NotAMeasurement, NotNormalized, NotOrthogonal, QbcError
from qbc.linalg import (
    BipartiteState,
    DensityOperator,
    PureState,
    bipartite,
    partial_trace,
)
from qbc.protocol import (
    ASCENT_ITERATES,
    ASCENT_STACK,
    CheatingAlice,
    HelstromBob,
    HonestAlice,
    HonestBob,
    Outcome,
    PurificationProtocol,
    born_sample,
    checked_stacks,
    distance_fidelity,
    estimate_statistics,
    exact_statistics,
    honest_reduced_states,
    optimal_cheat_kit,
    random_cheat_search,
    random_protocol,
    security_report,
    simulate_run,
    strategy_tables,
)
from qbc.protocol import _ascent_values, _best_response_factors, _complex_normals


def product_protocol():
    zero, one = PureState(np.eye(2)[0]).amplitudes, PureState(np.eye(2)[1]).amplitudes
    chi0 = bipartite(2, 2, np.kron(zero, zero))
    chi1 = bipartite(2, 2, np.kron(one, one))
    return PurificationProtocol(chi0, chi1)


class TestMakeProtocol:
    def test_orthogonal_product_states(self):
        p = product_protocol()
        assert (p.dim_proof, p.dim_token) == (2, 2)

    def test_rejects_equal_states(self):
        zero = PureState(np.eye(2)[0]).amplitudes
        chi = bipartite(2, 2, np.kron(zero, zero))
        with pytest.raises(NotOrthogonal):
            PurificationProtocol(chi, chi)

    def test_record_checks_only_the_overlap(self, monkeypatch):
        """Each state passed the entry and norm rules as a ``PureState``, so a
        record runs neither again; a non-orthogonal pair is still refused."""
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        calls = []
        rules = ("normalize_states", "_checked_entries")
        for module, name in itertools.product((qbc.linalg, qbc.protocol), rules):

            def spy(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, spy)
        PurificationProtocol(p.chi0, p.chi1)
        with pytest.raises(NotOrthogonal, match=r"\|<chi0\|chi1>\| = .* exceeds 1e-09"):
            PurificationProtocol(p.chi0, p.chi0)
        assert calls == []
        checked_stacks(p.as_matrices()[:, None])  # the spies see the stacked core's calls
        assert calls == ["_checked_entries", "normalize_states"]

    def test_rejects_dim_mismatch(self):
        chi0 = bipartite(2, 2, qbc.random_pure_state(4, 0).amplitudes)
        chi1 = bipartite(4, 1, qbc.random_pure_state(4, 1).amplitudes)
        with pytest.raises(DimMismatch):
            PurificationProtocol(chi0, chi1)

    def test_family_states_orthogonal(self):
        p = qbc.family_protocol(qbc.Commuting3D(0.5))
        assert abs(np.vdot(p.chi0.amplitudes, p.chi1.amplitudes)) <= 1e-12

    def test_records_holding_arrays_compare_by_identity(self):
        """Two protocols built alike are distinct records: ``==`` and ``hash`` do
        not touch their arrays, and a record holding the same protocol is equal."""
        p, q = random_protocol(3, 2, 1), random_protocol(3, 2, 1)
        assert p != q and p == p
        assert len({p, q}) == 2
        assert qbc.CoinTossProtocol(p) == qbc.CoinTossProtocol(p)
        assert qbc.CoinTossProtocol(p) != qbc.CoinTossProtocol(q)
        kit = optimal_cheat_kit(p)
        assert kit == kit and kit != optimal_cheat_kit(q)
        assert len({kit, kit.psi_max.state, qbc.helstrom(*honest_reduced_states(p))}) == 3

    def test_numpy_integer_dims_reach_the_cheat_search(self):
        p = random_protocol(np.int64(2), np.int64(2), 1)
        states = (BipartiteState(np.int64(2), np.uint8(2), chi.state) for chi in (p.chi0, p.chi1))
        direct = PurificationProtocol(*states)
        expected = random_cheat_search(random_protocol(2, 2, 1), 20, 0)
        for q in (p, direct):
            assert type(q.dim_proof) is int and type(q.dim_token) is int
            assert random_cheat_search(q, 20, 0) == expected

    def test_as_matrices_stacks_chi0_then_chi1(self):
        p = random_protocol(3, 2, 1)
        a = p.as_matrices()
        assert a.shape == (2, 3, 2)
        assert a.tobytes() == p.chi0.amplitudes.tobytes() + p.chi1.amplitudes.tobytes()

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

    def test_one_call_equals_each_partial_trace(self):
        """The stacked reduction of both states equals each state's partial trace, byte for byte."""
        for dims in AUDIT_DIMS:
            p = random_protocol(*dims, 7)
            expected = (partial_trace(p.chi0, "token"), partial_trace(p.chi1, "token"))
            for rho, reference in zip(honest_reduced_states(p), expected):
                assert rho.matrix.tobytes() == reference.matrix.tobytes(), dims


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

    def test_figures_derive_from_d_and_f(self):
        """gMax and cMax are read off D and F, so no report can contradict itself."""
        report = qbc.SecurityReport(0.4, 0.6)
        assert (report.g_max, report.c_max) == (0.4 / 2.0, 0.6 / 2.0)
        with pytest.raises(TypeError):
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
        return protocols, np.stack([p.as_matrices() for p in protocols], axis=1)

    def test_stack_equals_single_reports(self):
        protocols, a = self.stacks()
        d, f = distance_fidelity(a)
        for i, p in enumerate(protocols):
            report = security_report(p)
            assert (d[i], f[i]) == (report.trace_distance, report.fidelity)

    def test_checked_stacks_keeps_valid_amplitudes(self):
        _, a = self.stacks()
        assert np.array_equal(checked_stacks(a), a)

    def test_checked_stacks_renormalizes_within_tolerance(self):
        """The copy is renormalized; the caller's array keeps its bits."""
        _, a = self.stacks()
        a[0, 2] *= 1.0 + 1e-10
        given = a.tobytes()
        c = checked_stacks(a)
        assert abs(np.linalg.norm(c[0, 2]) - 1.0) <= 1e-15
        assert a.tobytes() == given and c[0, 2].tobytes() != a[0, 2].tobytes()

    def test_checked_stacks_renormalizes_any_memory_order(self):
        """A Fortran-ordered stack gives the same C-ordered copy, renormalized too."""
        _, a = self.stacks()
        a[0, 2] *= 1.0 + 1e-10
        c = checked_stacks(np.asfortranarray(a))
        assert c.flags.c_contiguous and c.tobytes() == checked_stacks(a).tobytes()

    @pytest.mark.parametrize("shape", [(5, 3, 4), (3, 5, 3, 4)], ids=["3-D", "leading-3"])
    def test_checked_stacks_rejects_other_layouts(self, shape):
        with pytest.raises(DimMismatch, match=r"is not \(2, n, dim_proof, dim_token\)"):
            checked_stacks(np.zeros(shape, dtype=np.complex128))

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, np.nan])
    def test_checked_stacks_rejects_bad_norm(self, scale):
        _, a = self.stacks()
        a[1, 4] *= scale
        with pytest.raises(NotNormalized):
            checked_stacks(a)

    @pytest.mark.parametrize(
        "offset",
        [5e-13, -5e-13, 2e-12, -2e-12, 9e-10, -9e-10, 1.1e-9, -1.1e-9, "nan", "inf", "-inf", "1e200", "-1e200"],
    )
    def test_norm_rule_shared_with_pure_state(self, offset):
        """One norm rule: both raise NotNormalized, or both keep or renormalize to the same bits."""
        _, a = self.stacks()
        if isinstance(offset, str):
            a[1, 4, 0, 0] = float(offset)  # one NaN, infinite or overflowing amplitude
        else:
            a[1, 4] *= 1.0 + offset  # the norm is off 1 by offset
        state = a[1, 4].reshape(-1)
        if isinstance(offset, str) or abs(offset) > 1e-9:
            for check in (lambda: PureState(state), lambda: checked_stacks(a)):
                with pytest.raises(NotNormalized):
                    check()
        else:
            expected = PureState(state).amplitudes
            assert checked_stacks(a)[1, 4].reshape(-1).tobytes() == expected.tobytes()
            assert (expected.tobytes() == state.tobytes()) == (abs(offset) <= 1e-12)

    def test_checked_stacks_rejects_overlap(self):
        _, a = self.stacks()
        a[1, 1] = a[0, 1]
        with pytest.raises(NotOrthogonal):
            checked_stacks(a)

    def test_empty_stack(self):
        """A stack of no protocols passes the checks and has no figures."""
        d, f = distance_fidelity(checked_stacks(np.zeros((2, 0, 3, 4), dtype=np.complex128)))
        assert d.shape == f.shape == (0,)

    def test_core_rejects_reduction_off_unit_trace(self):
        """One density rule: a trace off 1 by 2e-9 fails the core and DensityOperator alike."""
        _, a = self.stacks()
        a[0] *= np.sqrt(1 + 2e-9)
        with pytest.raises(NotNormalized):
            distance_fidelity(a)
        with pytest.raises(NotNormalized):
            DensityOperator(a[0, 0].T @ a[0, 0].conj())


def zero_token_column(a: np.ndarray) -> np.ndarray:
    """(..., dim_proof, 2) amplitudes padded to dim_token 3: the same D and F, on the LAPACK path."""
    return np.concatenate([a, np.zeros(a.shape[:-1] + (1,), dtype=a.dtype)], axis=-1)


class TestQubitTokenRoutes:
    """The closed-form core of dim_token = 2 against the LAPACK core of the same protocols.

    A zero token column leaves D and F unchanged and takes the protocol to
    the eigvalsh/svd path, so that path is the oracle; the largest gaps
    measured were 3.3e-16 in D and 5.6e-16 in F.
    """

    ROUTE_TOL = 1e-14

    def assert_routes_agree(self, a, singles=4):
        a = checked_stacks(a)
        d, f = distance_fidelity(a)
        d3, f3 = distance_fidelity(zero_token_column(a))
        assert np.abs(d - d3).max() <= self.ROUTE_TOL
        assert np.abs(f - f3).max() <= self.ROUTE_TOL
        for i in range(min(singles, len(d))):  # a stack of one takes the same route, bit for bit
            d1, f1 = distance_fidelity(a[:, i : i + 1])
            assert (d1[0], f1[0]) == (d[i], f[i])

    @pytest.mark.parametrize("dim_proof", range(1, 7))
    @pytest.mark.parametrize("pure0", [False, True], ids=["mixed", "pure-rho0"])
    def test_random_protocols(self, dim_proof, pure0):
        self.assert_routes_agree(qubit_token_stacks(dim_proof, 200, 100 * dim_proof + pure0, pure0))

    def test_pure_tokens(self):
        """Product states u_b ⊗ v_b with orthogonal u_b: both reductions pure."""
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, 200, 2)) + 1j * rng.standard_normal((2, 200, 2))
        v = z / np.linalg.norm(z, axis=-1, keepdims=True)
        a = np.zeros((2, 200, 3, 2), dtype=np.complex128)
        a[0, :, 0], a[1, :, 2] = v[0], v[1]
        self.assert_routes_agree(a)

    @pytest.mark.parametrize("kind", KNOWN_ANSWER_CLASSES)
    def test_known_answer_classes(self, kind):
        rng = np.random.default_rng([KNOWN_ANSWER_CLASSES.index(kind), 2, 2])
        cases = [known_answer_amplitudes(*known_answer_spectra(kind, 2, rng), rng) for _ in range(100)]
        a, _, _ = zip(*cases)
        self.assert_routes_agree(np.stack(a, axis=1))

    def test_empty_stack(self):
        d, f = distance_fidelity(checked_stacks(np.zeros((2, 0, 3, 2), dtype=np.complex128)))
        assert d.shape == f.shape == (0,)

    def test_density_rule_holds(self):
        """A trace off 1 by 2e-9 fails the closed-form core as it fails the LAPACK one."""
        a = qubit_token_stacks(3, 5, 8)
        a[0] *= np.sqrt(1 + 2e-9)
        with pytest.raises(NotNormalized):
            distance_fidelity(a)


class TestOptimalCheatKit:
    def test_identical_reductions_full_control(self):
        kit = optimal_cheat_kit(qbc.family_protocol(qbc.PurePair(0.0)))
        assert kit.per_bit_success == pytest.approx(1.0, abs=1e-12)

    def test_equal_reductions_succeed_with_probability_at_most_1(self):
        """chi_b = u_b ⊗ phi with orthonormal u_b has F = 1; the overlap's last
        bit must not lift per_bit_success, a float, above 1."""
        rng = np.random.default_rng(13)
        for dp, dt, _ in itertools.product((2, 3, 4), (1, 2, 3, 4, 5), range(4)):
            z = rng.standard_normal(dp * 2 + dt) + 1j * rng.standard_normal(dp * 2 + dt)
            u, _ = np.linalg.qr(z[: dp * 2].reshape(dp, 2))
            phi = z[dp * 2 :] / np.linalg.norm(z[dp * 2 :])
            chi0, chi1 = (bipartite(dp, dt, np.kron(u[:, b], phi)) for b in (0, 1))
            success = optimal_cheat_kit(PurificationProtocol(chi0, chi1)).per_bit_success
            assert type(success) is float
            assert 1.0 - 1e-12 <= success <= 1.0

    def test_orthogonal_reductions_no_advantage(self):
        kit = optimal_cheat_kit(qbc.family_protocol(qbc.PurePair(np.pi / 2)))
        assert kit.per_bit_success == pytest.approx(0.5, abs=1e-12)

    def test_kit_invariants(self):
        for p in random_protocols(20, seed=21):
            kit = optimal_cheat_kit(p)
            report = security_report(p)
            aligned = qbc.max_parallel_overlap(p.chi1, p.chi0)
            assert np.max(np.abs(kit.u0 @ kit.u1 - aligned.maximizing_unitary)) <= 1e-8
            assert kit.per_bit_success == pytest.approx((1 + report.fidelity) / 2, abs=1e-8)
            assert np.linalg.norm(kit.psi_max.amplitudes) == pytest.approx(1.0, abs=1e-12)
            for bit in (0, 1):
                steered = ((kit.u0, kit.u1)[bit] @ kit.psi_max.as_matrix()).reshape(-1)
                accept = abs(np.vdot((p.chi0, p.chi1)[bit].amplitudes, steered)) ** 2
                assert accept == pytest.approx(kit.per_bit_success, abs=1e-8)

    def test_c_max_consistent_with_overlap(self):
        for p in random_protocols(100, seed=31):
            report = security_report(p)
            overlap = qbc.max_parallel_overlap(p.chi0, p.chi1).overlap
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
        state = PureState(np.eye(2)[0])
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
        class CountingRng(np.random.Generator):  # born_sample takes only a Generator
            def __init__(self):
                super().__init__(np.random.PCG64(0))
                self.calls = 0

            def random(self):
                self.calls += 1
                return 0.3

        rng = CountingRng()
        born_sample(PureState(np.eye(2)[0]), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], rng)
        assert rng.calls == 1

    def test_rejects_incomplete_measurement(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NotAMeasurement):
            born_sample(PureState(np.eye(2)[0]), [np.diag([1.0, 0.0])], rng)
        with pytest.raises(NotAMeasurement, match="does not match dim 2"):
            born_sample(PureState(np.eye(2)[0]), [np.eye(3)], rng)

    def test_rejects_non_orthogonal(self):
        rng = np.random.default_rng(0)
        projs = [np.diag([1.0, 0.5]), np.diag([0.0, 0.5])]
        with pytest.raises(NotAMeasurement):
            born_sample(PureState(np.eye(2)[0]), projs, rng)


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


AUDIT_DIMS = [(2, 2), (3, 2), (4, 4), (8, 8), (16, 4), (4, 16)]  # the benchmark's audit workload


def state_space_ascent(r, dp, seed, first, count, iterates):
    """The best-response ascent on the state, as the search first ran it.

    Each iterate forms both best responses phi_b = v_b^dag A_b =
    (polar of R_b A_psi^dag) R_b, takes their :func:`phase_aligned_sum` as
    the next state and records their overlap.
    """
    dt = r.shape[2]
    z = _complex_normals(seed, first, count, dp * dt)
    a_psi = (z / np.linalg.norm(z, axis=-1, keepdims=True)).reshape(count, dp, dt)
    overlaps = []
    for _ in range(iterates):
        u, _ = polar_unitary(r @ a_psi[:, None].mT.conj())
        phi = (u @ r).reshape(count, 2, -1)
        merged, overlap = phase_aligned_sum(phi[:, 0], phi[:, 1])
        overlaps.append(overlap)
        a_psi = merged.reshape(count, dp, dt)
    return (1.0 + np.max(overlaps, axis=0)) / 2.0


def assert_same_ascent(a):
    """``_ascent_values`` matches :func:`state_space_ascent` per start on the
    chi pair ``a``, at 1 and ``ASCENT_STACK`` starts, after 3 and 20 iterates."""
    r = np.linalg.qr(a, mode="r")
    for (first, count), iterates in itertools.product([(0, 1), (1, ASCENT_STACK)], [3, ASCENT_ITERATES]):
        expected = state_space_ascent(r, a.shape[1], 13, first, count, iterates)
        values = _ascent_values(r, a.shape[1], 13, first, count, iterates)
        assert np.max(np.abs(values - expected)) <= 1e-13


class TestCheatSearch:
    def test_never_beats_closed_form(self):
        for i, p in enumerate(random_protocols(5, seed=41)):
            kit = optimal_cheat_kit(p)
            result = random_cheat_search(p, 2000, seed=100 + i)
            assert result.best_value <= kit.per_bit_success + 5e-3
            assert result.candidates_evaluated <= 2000

    @pytest.mark.parametrize("name", sorted(EDGE_PROTOCOLS))
    def test_value_is_at_most_1(self, name):
        """An overlap of 1 rounded up must not lift a best value, a probability, above 1."""
        p = EDGE_PROTOCOLS[name]()
        for budget in (20, 100, 1000):
            assert random_cheat_search(p, budget, seed=3).best_value <= 1.0

    def test_budget_caps_candidates(self):
        p = random_protocol(2, 2, 3)
        for n in range(1, 121):
            assert random_cheat_search(p, n, seed=n).candidates_evaluated <= n

    def test_budget_is_spent_exactly(self):
        p = random_protocol(2, 2, 3)
        for n in range(1, 251):
            assert random_cheat_search(p, n, seed=n).candidates_evaluated == n

    @pytest.mark.parametrize("dims", [(16, 4), (4, 16), (3, 3), (2, 5), (5, 2)])
    @pytest.mark.parametrize("rank", [1, 2, "full"])
    def test_reduced_step_is_the_full_polar_step(self, dims, rank):
        dp, dt = dims
        rank = min(dims) if rank == "full" else rank
        rng = np.random.default_rng(100 * dp + 10 * dt + rank)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a = gaussian(2, dp, rank) @ gaussian(2, rank, dt)  # chi pair of rank ``rank``
        a /= np.linalg.norm(a, axis=(-2, -1), keepdims=True)
        a_psi = gaussian(6, dp, dt)
        a_psi /= np.linalg.norm(a_psi, axis=(-2, -1), keepdims=True)
        r = np.linalg.qr(a, mode="r")
        h = _best_response_factors(r @ a_psi[:, None].mT.conj())  # H_b of M_b = R_b A_psi^dag
        for i, b in np.ndindex(6, 2):
            v, _ = polar_unitary(a_psi[i] @ a[b].conj().T)
            assert np.max(np.abs(h[i, b].conj().T @ r[b] - v.conj().T @ a[b])) <= 1e-12

    @pytest.mark.parametrize("dims", AUDIT_DIMS, ids=lambda dims: "x".join(map(str, dims)))
    def test_ascent_is_the_state_space_ascent(self, dims):
        """Carrying the factors H_b through Gram blocks runs the same ascent as
        forming, phase-aligning and normalizing the state: per start within
        1e-13 after 3 and 20 iterates, on the benchmark's audit dims.  A phase
        factor c*/|c| in place of c/|c| runs another ascent: on 4x16 its
        values are off by 0.1 after 3 iterates and by 1e-2 after 20."""
        p = random_protocol(*dims, 3)
        assert_same_ascent(np.stack([p.chi0.as_matrix(), p.chi1.as_matrix()]))

    @pytest.mark.parametrize("kind", KNOWN_ANSWER_CLASSES)
    @pytest.mark.parametrize("dim", [2, 5])
    def test_ascent_is_the_state_space_ascent_on_known_answers(self, kind, dim):
        """The same on every known-answer class: a rank-1 reduction, exact
        zero or 1e-14 eigenvalues, F = 5e-8."""
        rng = np.random.default_rng([KNOWN_ANSWER_CLASSES.index(kind), dim])
        assert_same_ascent(known_answer_amplitudes(*known_answer_spectra(kind, dim, rng), rng)[0])

    @pytest.mark.parametrize("n", [20, 10_000])
    def test_one_svd_per_ascent_iterate(self, n, monkeypatch):
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        random_cheat_search(random_protocol(3, 2, 7), n, seed=1)
        assert len(calls) == min(ASCENT_ITERATES, n)

    def test_memory_does_not_grow_with_the_budget(self):
        p = random_protocol(2, 2, 3)
        peaks = []
        for n in (20_000, 200_000):  # 1000 and 10000 ascent starts: 2 and 20 stacks
            tracemalloc.start()
            try:
                random_cheat_search(p, n, seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    @pytest.mark.parametrize("n", [1, 2 * ASCENT_STACK, 2 * ASCENT_STACK + 1])
    def test_values_equal_a_one_chunk_reference(self, n):
        p = random_protocol(3, 2, 9)
        r = np.linalg.qr(np.stack([p.chi0.as_matrix(), p.chi1.as_matrix()]), mode="r")

        def ascent(first, count):
            return _ascent_values(r, 3, 11, first, count, 4)

        stacks = [ascent(first, min(ASCENT_STACK, n - first)) for first in range(0, n, ASCENT_STACK)]
        assert np.array_equal(np.concatenate(stacks), ascent(0, n))
        assert np.array_equal(ascent(n - 1, 1), ascent(0, n)[-1:])  # a lone last start

    @pytest.mark.parametrize("n", [7, 20, 67, 10_250])
    def test_a_budget_is_full_ascents_then_one_short_one(self, n):
        """67 = 3 ascents of 20 iterates, then 7 iterates from start 3; 10250
        fills one stack of 512 starts and starts a second with a short ascent."""
        p = random_protocol(3, 2, 9)
        r = np.linalg.qr(np.stack([p.chi0.as_matrix(), p.chi1.as_matrix()]), mode="r")
        iterates = min(ASCENT_ITERATES, n)
        n_full, rest = divmod(n, iterates)
        values = [_ascent_values(r, 3, 11, 0, n_full, iterates)]
        if rest:
            values.append(_ascent_values(r, 3, 11, n_full, 1, rest))
        result = random_cheat_search(p, n, 11)
        assert result.best_value == np.concatenate(values).max()
        assert result.candidates_evaluated == n

    @pytest.mark.parametrize(
        "dims, n, seed, best",
        [
            ((2, 2, 1), 20, 5, 0.8653400645295273),
            ((4, 3, 2), 2500, 7, 0.8469537367018458),
            ((8, 8, 88), 20, 9, 0.8570370900900655),
            ((3, 2, 4), 1100, 0, 0.961788155732212),
        ],
    )
    def test_results_are_pinned(self, dims, n, seed, best):
        """The budget-20 values were recorded from the search that drew its
        uniforms with ``Generator.random``, and the shared word helper keeps
        every bit.  Budgets 2500 and 1100 run only ascents; each moved by one
        ulp from the search that spent 80% of them on uniform draws.  The 8x8
        value moved by two ulp (from ...657) when the ascent came to carry the
        best-response factors through Gram blocks instead of the state."""
        assert random_cheat_search(random_protocol(*dims), n, seed).best_value == best

    def test_budgets_of_one_ascent_are_pinned(self):
        """Budgets 5 to 20 buy one ascent from start 0, as they did when larger
        budgets also bought uniform draws: the digest of the best values'
        ``float.hex`` on the six dims of the benchmark's audit.  It was
        re-recorded when the ascent came to carry the best-response factors
        through Gram blocks: 72 of the 96 values moved, by at most 4.4e-16."""
        lines = [
            random_cheat_search(random_protocol(dp, dt, 1), n, n).best_value.hex()
            for dp, dt in AUDIT_DIMS
            for n in range(5, 21)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "4b1999e7dcac07a0f1cefb8a8b872dbfa0a6428d6e56956473a19c940ee9bdef"

    def test_result_does_not_depend_on_chunking(self, monkeypatch):
        p = random_protocol(3, 2, 9)
        budgets = (1, 3, 4, 67, 400)  # ascent stacks of 3, split or whole; 67 ends on 7 iterates
        monkeypatch.setattr(qbc.protocol, "ASCENT_STACK", 3)
        chunked = [random_cheat_search(p, n, seed=n) for n in budgets]
        assert chunked == [random_cheat_search(p, n, seed=n) for n in budgets]  # repeatable
        monkeypatch.setattr(qbc.protocol, "ASCENT_STACK", 10**9)
        assert chunked == [random_cheat_search(p, n, seed=n) for n in budgets]


@pytest.mark.parametrize("count", [True, 2.0, 0, -1])
def test_counts_must_be_integers_at_least_1(count):
    p = qbc.family_protocol(qbc.Commuting3D(0.3))
    calls = (
        lambda: estimate_statistics(p, HonestAlice(), HelstromBob(), count, 0),
        lambda: qbc.toss_statistics(qbc.CoinTossProtocol(p), "none", count, 0),
        lambda: random_cheat_search(p, count, 0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            call()


def test_numpy_integer_counts_pass():
    p = qbc.family_protocol(qbc.Commuting3D(0.3))
    assert estimate_statistics(p, HonestAlice(), HelstromBob(), np.int64(5), 0).n_runs == 5
    assert qbc.toss_statistics(qbc.CoinTossProtocol(p), "bob", np.int32(5), 0).n_tosses == 5
    assert random_cheat_search(p, np.int64(30), 0).candidates_evaluated == 30


@pytest.mark.parametrize("seed", [True, 2.5, -1, np.int64(-1), "7"])
def test_seeds_must_be_integers_at_least_0(seed, monkeypatch):
    """The seeded entry points refuse the seed before any chunk is counted or drawn."""

    def refuse(*args):
        raise AssertionError("drew or counted with an unchecked seed")

    monkeypatch.setattr(qbc.protocol.StrategyTables, "_chunk_counts", refuse)
    monkeypatch.setattr(qbc.protocol, "_complex_normals", refuse)
    p = qbc.family_protocol(qbc.Commuting3D(0.3))
    calls = (
        lambda: estimate_statistics(p, HonestAlice(), HelstromBob(), 100_000, seed),
        lambda: qbc.toss_statistics(qbc.CoinTossProtocol(p), "alice", 100_000, seed),
        lambda: random_cheat_search(p, 20, seed),
        lambda: random_protocol(2, 2, seed),
        lambda: qbc.random_pure_state(4, seed),
        lambda: qbc.random_density(2, 2, seed),
    )
    message = "seed must be an integer >= 0, got " + re.escape(repr(seed))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_numpy_integer_seeds_pass():
    p = qbc.family_protocol(qbc.Commuting3D(0.3))
    ct = qbc.CoinTossProtocol(p)
    estimate = estimate_statistics(p, CheatingAlice(), HelstromBob(), 5000, 7)
    toss = qbc.toss_statistics(ct, "bob", 5000, 7)
    search = random_cheat_search(p, 100, 7)
    for seed in (np.int64(7), np.uint32(7)):
        assert estimate_statistics(p, CheatingAlice(), HelstromBob(), 5000, seed) == estimate
        assert qbc.toss_statistics(ct, "bob", 5000, seed) == toss
        assert random_cheat_search(p, 100, seed) == search


REFUSED_INPUTS = {
    "bit": (lambda p: HonestAlice(2), "bit must be the integer 0 or 1, got 2"),
    "target-bit": (
        lambda p: simulate_run(p, CheatingAlice(), HonestBob(), 0.5, np.random.default_rng(0)),
        "target_bit must be the integer 0 or 1, got 0.5",
    ),
    "run-count": (
        lambda p: estimate_statistics(p, HonestAlice(), HonestBob(), 0, 0),
        "the run count must be an integer >= 1, got 0",
    ),
    "candidate-count": (
        lambda p: random_cheat_search(p, -3, 0),
        "n_candidates must be an integer >= 1, got -3",
    ),
    "seed": (
        lambda p: qbc.toss_statistics(qbc.CoinTossProtocol(p), "bob", 10, -1),
        "the seed must be an integer >= 0, got -1",
    ),
    "pairing": (
        lambda p: strategy_tables(p, HonestAlice(), "helstrom"),
        "unknown strategy pairing: alice=HonestAlice(bit=None), bob='helstrom'",
    ),
    "cheater": (
        lambda p: qbc.toss_statistics(qbc.CoinTossProtocol(p), "both", 10, 0),
        "cheater must be 'none', 'alice' or 'bob', got 'both'",
    ),
    "alice-cheat-flag": (
        lambda p: qbc.simulate_toss(qbc.CoinTossProtocol(p), "no", False, np.random.default_rng(0)),
        "alice_cheats must be a bool, got 'no'",
    ),
    "bob-cheat-flag": (
        lambda p: qbc.simulate_toss(qbc.CoinTossProtocol(p), True, 1, np.random.default_rng(0)),
        "bob_cheats must be a bool, got 1",
    ),
    "run-rng-none": (
        lambda p: simulate_run(p, HonestAlice(), HelstromBob(), 0, None),
        "rng must be a numpy.random.Generator, got None",
    ),
    "toss-rng-seed": (
        lambda p: qbc.simulate_toss(qbc.CoinTossProtocol(p), False, True, 7),
        "rng must be a numpy.random.Generator, got 7",
    ),
    "born-rng-string": (
        lambda p: born_sample(PureState([1, 0]), [np.eye(2)], "seed"),
        "rng must be a numpy.random.Generator, got 'seed'",
    ),
    "keep": (lambda p: partial_trace(p.chi0, "both"), "keep must be 'proof' or 'token', got 'both'"),
    "point": (lambda p: qbc.TradeoffPoint(0.25, 0.7, 0.0), "c_max = 0.7 outside [0, 1/2]"),
    "constructor-seed": (
        lambda p: random_protocol(2, 2, -1),
        "the seed must be an integer >= 0, got -1",
    ),
    "constructor-seed-kind": (
        lambda p: random_protocol(2, 2, 2.5),
        "the seed must be an integer >= 0, got 2.5",
    ),
    "constructor-seed-bool": (
        lambda p: qbc.random_pure_state(2, True),
        "the seed must be an integer >= 0, got True",
    ),
    "constructor-seed-none": (
        lambda p: qbc.random_density(2, 1, None),
        "the seed must be an integer >= 0, got None",
    ),
    "protocol-dim": (lambda p: random_protocol(2.0, 2, 1), "dim_proof must be an integer >= 1, got 2.0"),
    "token-dim": (lambda p: random_protocol(2, 0, 1), "dim_token must be an integer >= 1, got 0"),
    "orthogonal-pair-dim": (
        lambda p: random_protocol(1, 1, 1),
        "dim_proof * dim_token must be >= 2 for an orthogonal pair, got 1",
    ),
    "state-dim": (lambda p: qbc.random_pure_state(-1, 1), "dim must be an integer >= 1, got -1"),
    "empty-state": (lambda p: qbc.random_pure_state(0, 1), "dim must be an integer >= 1, got 0"),
    "density-dim": (lambda p: qbc.random_density(np.float64(2), 1, 1), "dim must be an integer >= 1"),
    "rank": (
        lambda p: qbc.random_density(2, 1.5, 1),
        "rank must be an integer with 1 <= rank <= 2, got 1.5",
    ),
    "rank-bool": (
        lambda p: qbc.random_density(2, True, 1),
        "rank must be an integer with 1 <= rank <= 2, got True",
    ),
    "rank-too-large": (
        lambda p: qbc.random_density(2, 3, 1),
        "rank must be an integer with 1 <= rank <= 2, got 3",
    ),
    "empty-density": (
        lambda p: DensityOperator(np.zeros((0, 0))),
        "density operator must be square and nonempty, got (0, 0)",
    ),
    "empty-token-stack": (
        lambda p: checked_stacks(np.zeros((2, 1, 3, 0))),
        "protocol stack shape (2, 1, 3, 0) is not (2, n, dim_proof, dim_token)",
    ),
    "empty-proof-stack": (
        lambda p: checked_stacks(np.zeros((2, 1, 0, 3))),
        "protocol stack shape (2, 1, 0, 3) is not (2, n, dim_proof, dim_token)",
    ),
    "nan-projector": (
        lambda p: born_sample(
            PureState([1, 0]), [np.full((2, 2), np.nan), np.eye(2)], np.random.default_rng(0)
        ),
        "projectors do not sum to the identity",
    ),
    "list-projector": (
        lambda p: born_sample(PureState([1, 0]), [[[1]], np.eye(2)], np.random.default_rng(0)),
        "projector shape (1, 1) does not match dim 2",
    ),
    "ragged-projector": (
        lambda p: born_sample(
            PureState([1, 0]), [[[1, 0], [0]], np.eye(2)], np.random.default_rng(0)
        ),
        "projector is not an array of numbers",
    ),
    "string-projector": (
        lambda p: born_sample(
            PureState([1, 0]), [np.full((2, 2), "a"), np.eye(2)], np.random.default_rng(0)
        ),
        "projector is not an array of numbers",
    ),
    "string-bloch": (
        lambda p: qbc.BlochVector("a", 0, 0),
        "Bloch vector components must be real numbers",
    ),
    "none-bloch": (
        lambda p: qbc.BlochVector(0, None, 0),
        "Bloch vector components must be real numbers",
    ),
    "bool-bloch": (
        lambda p: qbc.BlochVector(True, 0, 0),
        "Bloch vector components must be real numbers",
    ),
    "numpy-bool-bloch": (
        lambda p: qbc.BlochVector(np.True_, 0, 0),
        "Bloch vector components must be real numbers",
    ),
    "string-state": (lambda p: PureState(["a", 1]), "state is not an array of numbers"),
    "mapping-state": (lambda p: PureState({"a": 1}), "state is not an array of numbers"),
    "ragged-density": (
        lambda p: DensityOperator([[1, 0], [0]]),
        "density operator is not an array of numbers",
    ),
    "string-stack": (lambda p: checked_stacks("abc"), "protocol stack is not an array of numbers"),
    "ragged-stack": (
        lambda p: checked_stacks([[[[1, 0]]], [[[0]]]]),
        "protocol stack is not an array of numbers",
    ),
    "scalar-density": (
        lambda p: DensityOperator(1.0),
        "density operator must be square and nonempty, got ()",
    ),
    "scalar-stack": (
        lambda p: checked_stacks(1.0),
        "protocol stack shape () is not (2, n, dim_proof, dim_token)",
    ),
    "empty-amplitudes": (lambda p: PureState([]), "state norm 0.0 not within 1e-09 of 1"),
}
# Refused inputs whose invariant is not a parameter range: a dimension, a rank, a measurement or a norm.
REFUSED_AS = {
    "protocol-dim": DimMismatch,
    "token-dim": DimMismatch,
    "orthogonal-pair-dim": DimMismatch,
    "state-dim": DimMismatch,
    "empty-state": DimMismatch,
    "density-dim": DimMismatch,
    "rank": BadRank,
    "rank-bool": BadRank,
    "rank-too-large": BadRank,
    "empty-density": DimMismatch,
    "empty-token-stack": DimMismatch,
    "empty-proof-stack": DimMismatch,
    "nan-projector": NotAMeasurement,
    "list-projector": NotAMeasurement,
    "ragged-projector": NotAMeasurement,
    "string-projector": NotAMeasurement,
    "scalar-density": DimMismatch,
    "scalar-stack": DimMismatch,
    "empty-amplitudes": NotNormalized,
}
# The entry rule at each entry point: a NaN, an infinite or a huge entry, refused before any arithmetic.
ENTRY_POINTS = {
    "state": lambda p, z: PureState([z, 1.0]),
    "density operator": lambda p, z: DensityOperator([[z, 0.0], [0.0, 1.0]]),
    "protocol stack": lambda p, z: checked_stacks(np.full((2, 1, 2, 2), z)),
}
for (_where, _call), _bad in itertools.product(ENTRY_POINTS.items(), (np.nan, np.inf, 1e200)):
    _name = f"{_where.replace(' ', '-')}-{_bad}"
    REFUSED_INPUTS[_name] = (
        lambda p, call=_call, z=_bad: call(p, z),
        f"{_where} entry ({_bad}+0j) is not finite or exceeds 1",
    )
    REFUSED_AS[_name] = NotNormalized


@pytest.mark.parametrize("name", sorted(REFUSED_INPUTS))
def test_every_refused_input_is_a_qbc_error(name):
    """The converse of the failure contract: a value the library refuses
    raises a ``QbcError`` (``ParamOutOfRange`` unless ``REFUSED_AS`` names
    the invariant), which is still a ``ValueError`` to callers that catch that."""
    call, message = REFUSED_INPUTS[name]
    p = qbc.family_protocol(qbc.Commuting3D(0.3))
    with pytest.raises(QbcError, match=re.escape(message)) as caught:
        call(p)
    assert type(caught.value) is REFUSED_AS.get(name, qbc.ParamOutOfRange)
    assert isinstance(caught.value, ValueError)


# The two raises of a TypeError that ``qbc.errors`` allows: objects of the wrong kind.
ALLOWED_TYPE_ERRORS = {("tradeoff.py", "_curve"), ("specfile.py", "dumps_deterministic")}


def test_package_raises_no_plain_value_or_type_error():
    """The failure contract, read from the source: no ``raise ValueError`` at all, and
    no ``raise TypeError`` outside the functions ``ALLOWED_TYPE_ERRORS`` names."""
    raised = []
    for path in sorted(Path(qbc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {}  # node -> innermost enclosing function; ast.walk reaches outer ones first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)  # raise E(...) or raise E
                raised.append((getattr(exc, "id", None), path.name, scope.get(node)))
    assert raised, "the walk found none of the package's raises"
    assert [r for r in raised if r[0] == "ValueError"] == []
    assert {r[1:] for r in raised if r[0] == "TypeError"} <= ALLOWED_TYPE_ERRORS


ROOT = Path(__file__).resolve().parents[1]
# The code the paper's results are served by: the package (its CLI included), the
# acceptance criteria and the benchmark, read as text; perfbench is never imported.
SERVING_FILES = (
    *sorted((ROOT / "src" / "qbc").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "perfbench" / "workloads.py",
)
# Functions that nothing in ``SERVING_FILES`` references but that stay, each with its reason.
KEPT_UNREFERENCED = {
    "_make": "namedtuple's _replace calls TradeoffPoint._make, which keeps the box check",
}


def test_every_package_function_is_referenced():
    """Aim 2's rule, read from the source: a module-level function that no name or
    attribute in ``SERVING_FILES`` references, or a method that no attribute
    references, is code that no command, criterion or benchmark needs.  A
    ``"module.function"`` string, as the benchmark names its traced layers, counts
    as a reference; an import or a re-export does not."""
    modules = {path.stem for path in SERVING_FILES if path.parent.name == "qbc"}
    names, attributes, defined = set(), set(), []
    for path in SERVING_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, _, function = node.value.partition(".")
                if module in modules and function.isidentifier():
                    attributes.add(function)
        if path.stem not in modules:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((path.stem, node.name, False))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}", method.name, True)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                ]
    assert len(defined) > 100, "the scan found too few of the package's functions"
    unreferenced = [
        f"{owner}.{name}"
        for owner, name, is_method in defined
        if name not in attributes
        and (is_method or name not in names)
        and name not in KEPT_UNREFERENCED
    ]
    assert unreferenced == []


def test_imports_are_declared_dependencies():
    """CI installs only numpy, pytest and hypothesis, so a test or module that
    imports any other package outside the standard library passes on a host
    that happens to have it and fails on the runner."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest", "hypothesis", "qbc", "conftest"}
    imported = set()
    for path in [*(ROOT / "src" / "qbc").glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((alias.name, path.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((node.module, path.name))
    assert {"numpy", "qbc", "conftest"} <= {name for name, _ in imported}
    assert sorted((name, where) for name, where in imported if name.split(".")[0] not in allowed) == []


def test_seeded_constructors_take_a_generator_or_an_integer_seed():
    """A Generator is used as given and advanced; an integer seed, NumPy's
    included, seeds a fresh one, as ``numpy.random.default_rng`` would."""
    rng = np.random.default_rng(4)
    first, second = qbc.random_pure_state(3, rng), qbc.random_pure_state(3, rng)
    expected = np.random.default_rng(4)
    assert np.array_equal(first.amplitudes, qbc.random_pure_state(3, expected).amplitudes)
    assert np.array_equal(second.amplitudes, qbc.random_pure_state(3, expected).amplitudes)
    for seed in (np.int64(7), np.uint8(7)):
        assert np.array_equal(
            random_protocol(2, np.int32(3), seed).chi1.amplitudes,
            random_protocol(2, 3, 7).chi1.amplitudes,
        )
        assert np.array_equal(
            qbc.random_density(3, np.int64(2), seed).matrix, qbc.random_density(3, 2, 7).matrix
        )
