"""Tests for the derived coin-tossing protocol."""

from __future__ import annotations

import numpy as np
import pytest

import qbc
from conftest import random_protocols
from qbc.cointoss import (
    CoinTossProtocol,
    biases,
    fair_toss_protocol,
    simulate_toss,
    toss_statistics,
)
from qbc.errors import BothCheat


class TestBiases:
    def test_fair_base(self):
        report = biases(CoinTossProtocol(qbc.family_protocol(qbc.Commuting3D(0.5))))
        assert report.alpha == pytest.approx(0.25, abs=1e-12)
        assert report.beta == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal_pure_base(self):
        report = biases(CoinTossProtocol(qbc.family_protocol(qbc.PurePair(np.pi / 2))))
        assert report.alpha == pytest.approx(0.0, abs=1e-12)
        assert report.beta == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_commuting_family_saturates_sum(self, lam):
        report = biases(CoinTossProtocol(qbc.family_protocol(qbc.Commuting3D(lam))))
        assert report.alpha + report.beta == pytest.approx(0.5, abs=1e-9)

    def test_sum_bound_on_random_bases(self):
        for p in random_protocols(20, seed=61):
            report = biases(CoinTossProtocol(p))
            assert report.alpha + report.beta >= 0.5 - 1e-9


class TestFairTossProtocol:
    def test_biases(self):
        report = biases(fair_toss_protocol())
        assert (report.alpha, report.beta) == pytest.approx((0.25, 0.25), abs=1e-12)

    def test_base_reductions(self):
        rho0, rho1 = qbc.honest_reduced_states(fair_toss_protocol().base)
        assert np.allclose(rho0.matrix, np.diag([0.5, 0.5, 0.0]), atol=1e-12)
        assert np.allclose(rho1.matrix, np.diag([0.0, 0.5, 0.5]), atol=1e-12)

    def test_universal_bound_slack(self):
        report = biases(fair_toss_protocol())
        assert 2 * report.alpha + np.sqrt(2 * report.beta) >= 1.0


class TestSimulateToss:
    def test_both_cheat_rejected(self):
        with pytest.raises(BothCheat):
            simulate_toss(fair_toss_protocol(), True, True, np.random.default_rng(0))

    @pytest.mark.parametrize("flags", [("no", False), (1, False), (False, None), (True, 1.0)])
    def test_non_bool_cheat_flag_is_refused_before_any_draw(self, flags):
        """A truthy string or number is not a cheat flag: no cheat is played and no draw made."""
        rng = np.random.default_rng(0)
        with pytest.raises(qbc.ParamOutOfRange, match="must be a bool"):
            simulate_toss(fair_toss_protocol(), *flags, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_numpy_bool_flags_play_as_bools(self):
        ct = fair_toss_protocol()
        for flags in ((False, False), (True, False), (False, True)):
            played = simulate_toss(ct, *map(np.bool_, flags), np.random.default_rng(4))
            assert played == simulate_toss(ct, *flags, np.random.default_rng(4))

    def test_honest_never_caught(self):
        rng = np.random.default_rng(1)
        ct = fair_toss_protocol()
        results = [simulate_toss(ct, False, False, rng) for _ in range(500)]
        assert not any(r.alice_caught for r in results)
        assert {r.winner for r in results} == {"alice", "bob"}

    def test_cheating_bob_never_catches_honest_alice(self):
        rng = np.random.default_rng(2)
        ct = fair_toss_protocol()
        assert not any(simulate_toss(ct, False, True, rng).alice_caught for _ in range(200))

    def test_honest_toss_builds_nothing(self):
        """A toss in which nobody cheats draws two coins and builds no cached
        value of its base; each cheating toss builds the strategy tables."""
        cached = {"_report", "_reductions", "_kit", "_tables"}
        rng = np.random.default_rng(5)
        ct = CoinTossProtocol(qbc.family_protocol(qbc.Commuting3D(0.3)))
        for _ in range(20):
            simulate_toss(ct, False, False, rng)
        assert not cached & set(ct.base.__dict__)
        reference = np.random.default_rng(5)
        reference.random(40)
        assert rng.random() == reference.random()
        for flags in ((True, False), (False, True)):
            ct = CoinTossProtocol(qbc.family_protocol(qbc.Commuting3D(0.3)))
            simulate_toss(ct, *flags, rng)
            assert "_tables" in ct.base.__dict__

    def test_cheating_alice_wins_or_is_scored_for_bob(self):
        rng = np.random.default_rng(3)
        ct = fair_toss_protocol()
        for _ in range(200):
            result = simulate_toss(ct, True, False, rng)
            if result.alice_caught:
                assert result.winner == "bob"


class TestTossStatistics:
    def test_deterministic(self):
        ct = fair_toss_protocol()
        a = toss_statistics(ct, "alice", 5000, seed=4)
        assert a == toss_statistics(ct, "alice", 5000, seed=4)
        assert a != toss_statistics(ct, "alice", 5000, seed=5)

    def test_honest_rates(self):
        stats = toss_statistics(fair_toss_protocol(), "none", 100_000, seed=6)
        assert abs(stats.alice_win_rate - 0.5) <= 3 * np.sqrt(0.25 / stats.n_tosses)
        assert stats.alice_caught_rate == 0.0
        assert stats.bob_win_rate == pytest.approx(1.0 - stats.alice_win_rate, abs=1e-15)

    def test_cheating_alice_rate(self):
        stats = toss_statistics(fair_toss_protocol(), "alice", 100_000, seed=7)
        sigma = np.sqrt(0.75 * 0.25 / stats.n_tosses)
        assert abs(stats.alice_win_rate - 0.75) <= 3 * sigma
        assert stats.alice_caught_rate > 0.0

    def test_cheating_bob_rate(self):
        stats = toss_statistics(fair_toss_protocol(), "bob", 100_000, seed=8)
        sigma = np.sqrt(0.75 * 0.25 / stats.n_tosses)
        assert abs(stats.bob_win_rate - 0.75) <= 3 * sigma
        assert stats.alice_caught_rate == 0.0

    def test_random_base_rates_match_biases(self):
        p = qbc.random_protocol(3, 2, 62)
        ct = CoinTossProtocol(p)
        report = biases(ct)
        for cheater, expected in (
            ("alice", 0.5 + report.alpha),
            ("bob", 0.5 - report.beta),
        ):
            stats = toss_statistics(ct, cheater, 50_000, seed=9)
            sigma = np.sqrt(expected * (1 - expected) / stats.n_tosses)
            assert abs(stats.alice_win_rate - expected) <= 3 * sigma
