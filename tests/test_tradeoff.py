"""Tests for protocol families, curve sweeps, fair points and bounds."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import qbc
from conftest import known_answer_amplitudes
from qbc.distinguish import BlochVector, bloch_fidelity_sq, bloch_trace_distance
from qbc.errors import ParamOutOfRange
from qbc.linalg import TOL
from qbc.protocol import checked_stacks, distance_fidelity, random_protocol
from qbc.tradeoff import (
    SWEEP_CHUNK_POINTS,
    Commuting3D,
    Curve,
    PurePair,
    QubitPureMixed,
    TradeoffPoint,
    check_bounds,
    curve_value,
    fair_point,
    family_protocol,
    sweep,
    uniform_grid,
)

FAMILIES = [Commuting3D, QubitPureMixed, PurePair]
EDGE_LAMBDAS = [0.0, 1e-16, 1e-14, 1e-12, 1e-8, 0.5, 1.0 - 1e-14, 1.0]


def edge_params(kind) -> list[float]:
    scale = np.pi / 2.0 if kind is PurePair else 1.0
    return [scale * lam for lam in EDGE_LAMBDAS]


def closed_form(kind, x: float) -> tuple[float, float]:
    """(D, F) of a family member."""
    if kind is Commuting3D:
        return x, 1.0 - x
    if kind is QubitPureMixed:
        return 1.0 - x, np.sqrt(x)
    return np.sin(x), np.cos(x)


class TestFamilies:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_commuting_reductions(self, lam):
        rho0, rho1 = qbc.honest_reduced_states(family_protocol(Commuting3D(lam)))
        assert np.max(np.abs(rho0.matrix - np.diag([lam, 1 - lam, 0.0]))) <= 1e-9
        assert np.max(np.abs(rho1.matrix - np.diag([0.0, 1 - lam, lam]))) <= 1e-9

    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
    def test_qubit_reductions(self, lam):
        rho0, rho1 = qbc.honest_reduced_states(family_protocol(QubitPureMixed(lam)))
        assert np.max(np.abs(rho0.matrix - np.diag([1.0, 0.0]))) <= 1e-9
        assert np.max(np.abs(rho1.matrix - np.diag([lam, 1 - lam]))) <= 1e-9

    def test_pure_pair_collapse_at_zero(self):
        report = qbc.security_report(family_protocol(PurePair(0.0)))
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_param_validation(self):
        with pytest.raises(ParamOutOfRange):
            Commuting3D(1.2)
        with pytest.raises(ParamOutOfRange):
            QubitPureMixed(-0.1)
        with pytest.raises(ParamOutOfRange):
            PurePair(2.0)


class TestSweep:
    def test_commuting_points_on_line(self):
        points = sweep(Commuting3D, uniform_grid(Commuting3D, 11))
        for pt in points:
            assert pt.g_max + pt.c_max == pytest.approx(0.5, abs=1e-9)

    def test_qubit_points_on_curve(self):
        points = sweep(QubitPureMixed, uniform_grid(QubitPureMixed, 11))
        for pt in points:
            assert pt.g_max + 2 * pt.c_max**2 == pytest.approx(0.5, abs=1e-9)

    def test_pure_pair_points_on_circle(self):
        points = sweep(PurePair, uniform_grid(PurePair, 11))
        for pt in points:
            assert pt.g_max**2 + pt.c_max**2 == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("kind", [Commuting3D, QubitPureMixed, PurePair])
    def test_monotone_tradeoff(self, kind):
        points = sweep(kind, uniform_grid(kind, 21))
        points = sorted(points, key=lambda pt: pt.g_max)
        c_values = [pt.c_max for pt in points]
        assert all(a >= b - 1e-12 for a, b in zip(c_values, c_values[1:]))

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_one_route_one_answer(self, kind):
        params = uniform_grid(kind, 101) + edge_params(kind)
        points = sweep(kind, params)
        for pt, x in zip(points, params):
            report = qbc.security_report(family_protocol(kind(x)))
            assert pt == TradeoffPoint(report.g_max, report.c_max, x)
        assert sweep(kind, params, max_workers=1) == points  # max_workers is ignored

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_decompositions_do_not_grow_with_points(self, kind, monkeypatch):
        """A fixed number of decompositions per sweep; none at all for the qubit-token families."""
        calls = Counter()
        for name in ("eigvalsh", "svd", "eigh"):
            def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        totals = []
        for n_points in (11, 1001):
            calls.clear()
            sweep(kind, uniform_grid(kind, n_points))
            totals.append(sum(calls.values()))
        if kind is Commuting3D:
            assert totals[0] == totals[1] > 0
        else:
            assert totals == [0, 0]

    def test_memory_bounded_by_chunk(self):
        params = uniform_grid(Commuting3D, 10 * SWEEP_CHUNK_POINTS + 1)
        tracemalloc.start()
        try:
            points = sweep(Commuting3D, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == len(params)
        assert peak / len(params) < 800  # about 1.9 kB per point without chunks

    def test_rejects_out_of_range_member(self):
        with pytest.raises(ParamOutOfRange):
            sweep(QubitPureMixed, [0.2, 1.5])

    def test_empty(self):
        assert sweep(Commuting3D, []) == []

    def test_refuses_the_first_bad_member_as_the_member_does(self):
        with pytest.raises(ParamOutOfRange) as member:
            QubitPureMixed(1.5)
        with pytest.raises(ParamOutOfRange) as swept:
            sweep(QubitPureMixed, [0.2, 1.5, -1.0])
        assert str(swept.value) == str(member.value) == "lam must lie in [0, 1], got 1.5"

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_nan_is_refused(self, kind):
        with pytest.raises(ParamOutOfRange, match="got nan"):
            kind(float("nan"))
        with pytest.raises(ParamOutOfRange, match="got nan"):
            sweep(kind, [0.2, float("nan")])

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_array_and_list_sweep_alike(self, kind):
        params = uniform_grid(kind, 51) + edge_params(kind)
        assert sweep(kind, np.array(params)) == sweep(kind, params)
        assert sweep(kind, iter(params)) == sweep(kind, params)

    def test_points_hold_the_callers_parameters(self):
        params = [0.25, 1, np.float32(0.5), np.int64(0)]
        points = sweep(Commuting3D, params)
        assert all(pt.family_param is x for pt, x in zip(points, params))


class TestRefusedInputs:
    """Every input the family code refuses is a ParamOutOfRange."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sweep(int, [0.5]),
            lambda: sweep(Commuting3D, [0.2, "x"]),
            lambda: sweep(Commuting3D, [0.2, 0.3j]),
            lambda: sweep(Commuting3D, [0.2, None]),
            lambda: sweep(Commuting3D, [0.2, [0.3, 0.4]]),
            lambda: uniform_grid(Commuting3D, 3.0),
            lambda: uniform_grid(Commuting3D, True),
            lambda: uniform_grid(int, 3),
            lambda: family_protocol(0.5),
            lambda: Commuting3D("0.5"),
        ],
        ids=[
            "sweep-unknown-family",
            "sweep-string",
            "sweep-complex",
            "sweep-none",
            "sweep-nested",
            "grid-float-count",
            "grid-bool-count",
            "grid-unknown-family",
            "protocol-of-a-float",
            "member-string",
        ],
    )
    def test_refused_with_param_out_of_range(self, call):
        with pytest.raises(ParamOutOfRange):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: PurePair(True),
            lambda: Commuting3D(np.True_),
            lambda: sweep(PurePair, [True, 0.5]),
            lambda: sweep(QubitPureMixed, [0.5, np.True_]),
            lambda: sweep(Commuting3D, np.array([True, False])),
        ],
        ids=["member-bool", "member-numpy-bool", "sweep-bool", "sweep-numpy-bool", "sweep-bool-array"],
    )
    def test_bool_parameter_is_refused_by_value(self, call):
        with pytest.raises(ParamOutOfRange, match=r"must lie in .*, got True$"):
            call()

    def test_too_few_grid_points(self):
        with pytest.raises(ParamOutOfRange, match="^need at least 2 grid points$"):
            uniform_grid(PurePair, 1)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_numpy_integer_point_count(self, kind):
        grid = uniform_grid(kind, np.int64(3))
        assert grid == uniform_grid(kind, 3)
        assert all(type(x) is float for x in grid)


class TestTradeoffPoint:
    """The record: a named 3-tuple that refuses a point outside the box."""

    OUTSIDE = [
        ((0.25, 0.7, 0.0), "c_max = 0.7 outside [0, 1/2]"),
        ((-0.1, 0.25, 0.0), "g_max = -0.1 outside [0, 1/2]"),
        ((0.5 + 2e-9, 0.25, 0.0), "g_max = 0.500000002 outside [0, 1/2]"),
        ((float("nan"), 0.25, 0.0), "g_max = nan outside [0, 1/2]"),
        ((0.25, float("nan"), 0.0), "c_max = nan outside [0, 1/2]"),
    ]

    @pytest.mark.parametrize("args, message", OUTSIDE)
    def test_refuses_outside_the_box(self, args, message):
        g, c, x = args
        for build in (
            lambda: TradeoffPoint(g, c, x),
            lambda: TradeoffPoint(g_max=g, c_max=c, family_param=x),
            lambda: TradeoffPoint._make(args),
            lambda: TradeoffPoint(0.25, 0.25, x)._replace(g_max=g, c_max=c),
        ):
            with pytest.raises(ParamOutOfRange, match=f"^{re.escape(message)}$"):
                build()

    def test_box_allows_the_bound_tolerance(self):
        assert TradeoffPoint(-1e-10, 0.5 + 1e-10, 0.0) == (-1e-10, 0.5 + 1e-10, 0.0)

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_round_trips_check_again(self, round_trip):
        point = TradeoffPoint(0.25, 0.125, 0.5)
        back = round_trip(point)
        assert type(back) is TradeoffPoint and back == point
        unchecked = tuple.__new__(TradeoffPoint, (0.25, 0.7, 0.5))
        with pytest.raises(ParamOutOfRange, match=r"^c_max = 0\.7 outside \[0, 1/2\]$"):
            round_trip(unchecked)

    def test_value_semantics(self):
        point = TradeoffPoint(0.25, 0.125, 0.5)
        assert point == TradeoffPoint(0.25, 0.125, 0.5) == (0.25, 0.125, 0.5)
        assert hash(point) == hash(TradeoffPoint(0.25, 0.125, 0.5)) == hash((0.25, 0.125, 0.5))
        assert point != TradeoffPoint(0.25, 0.125, 0.25)
        g, c, x = point
        assert (g, c, x) == (point.g_max, point.c_max, point.family_param) == (0.25, 0.125, 0.5)
        assert repr(point) == "TradeoffPoint(g_max=0.25, c_max=0.125, family_param=0.5)"
        assert TradeoffPoint._fields == ("g_max", "c_max", "family_param")

    @pytest.mark.parametrize(
        "kind, params",
        [
            (Commuting3D, [0.0, 1.0]),
            (QubitPureMixed, [0.0, 1.0]),
            (PurePair, [0.0, math.pi / 2, math.pi / 2 + 1e-12]),
        ],
    )
    def test_sweep_endpoints_are_points_in_the_box(self, kind, params):
        points = sweep(kind, params)
        assert len(points) == len(params)
        for pt, x in zip(points, params):
            assert type(pt) is TradeoffPoint and pt.family_param is x
            assert 0.0 <= pt.g_max <= 0.5 and 0.0 <= pt.c_max <= 0.5
            assert TradeoffPoint(*pt) == pt


class TestEdgeGrid:
    """Closed forms at the ends of each family's range, through both routes."""

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_sweep_matches_closed_forms(self, kind):
        params = edge_params(kind)
        points = sweep(kind, params)
        for pt, x in zip(points, params):
            d, f = closed_form(kind, x)
            assert abs(2.0 * pt.g_max - d) <= 1e-12 and abs(2.0 * pt.c_max - f) <= 1e-12, x

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_security_report_matches_closed_forms(self, kind):
        for x in edge_params(kind):
            report = qbc.security_report(family_protocol(kind(x)))
            d, f = closed_form(kind, x)
            assert abs(report.trace_distance - d) <= 1e-12, x
            assert abs(report.fidelity - f) <= 1e-12, x

    def test_fidelity_below_rounding_floor(self):
        report = qbc.security_report(family_protocol(QubitPureMixed(1e-14)))
        assert report.fidelity == pytest.approx(1e-7, abs=1e-12)


class TestQubitTokensAboveCurveIII:
    """Every qubit-token pair has D + F^2 >= 1 (g + 2 c^2 >= 1/2); see ``Curve.III``.

    The property-based check of random protocols through the stacked core
    is in ``test_properties.py``.
    """

    def test_collinear_pure_mixed_pairs_reach_equality(self):
        """rho0 pure and rho1's Bloch vector on the line through rho0's and the origin."""
        rng = np.random.default_rng(20)
        cases = [
            known_answer_amplitudes(np.array([1.0, 0.0]), np.array([(1.0 + t) / 2.0, (1.0 - t) / 2.0]), rng)
            for t in np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 200)])
        ]
        a, _, _ = zip(*cases)
        d, f = distance_fidelity(checked_stacks(np.stack(a, axis=1)))
        assert np.abs(d + f * f - 1.0).max() <= 1e-14

    def test_bloch_grid(self):
        """r = (0, 0, a) against s at Bloch length b and angle psi: every relative position."""
        lengths = np.linspace(0.0, 1.0, 21)
        slack = {}
        for a, b, psi in itertools.product(lengths, lengths, np.linspace(0.0, np.pi, 21)):
            r = BlochVector(0.0, 0.0, a)
            s = BlochVector(b * math.sin(psi), 0.0, b * math.cos(psi))
            slack[a, b, psi] = bloch_trace_distance(r, s) + bloch_fidelity_sq(r, s) - 1.0
        assert min(slack.values()) >= -TOL
        collinear = [v for (a, _, psi), v in slack.items() if a == 1.0 and psi in (0.0, np.pi)]
        assert len(collinear) == 42 and max(map(abs, collinear)) <= 1e-14


class TestLeastDimensions:
    """The least (dim_proof, dim_token) that reach each curve, as ``Curve`` tabulates them.

    Each construction is a stack of (2, 1001, 2, dim_token) amplitudes over a
    λ grid, through ``checked_stacks`` and the core.
    """

    lam = np.linspace(0.0, 1.0, 1001)

    def figures(self, dim_token: int, layout: dict) -> tuple[np.ndarray, np.ndarray]:
        """D and F of the 2 x dim_token protocols whose nonzero amplitudes ``layout`` maps."""
        a = np.zeros((2, self.lam.size, 2, dim_token), dtype=np.complex128)
        for (bit, p, t), values in layout.items():
            a[bit, :, p, t] = values
        return distance_fidelity(checked_stacks(a))

    def test_curve_ii_at_2x3(self):
        """chi0 = √λ|0⟩|0⟩ + √(1−λ)|1⟩|1⟩, chi1 = √λ|1⟩|2⟩ + √(1−λ)|0⟩|1⟩: D = λ, F = 1 − λ."""
        s, r = np.sqrt(self.lam), np.sqrt(1.0 - self.lam)
        d, f = self.figures(3, {(0, 0, 0): s, (0, 1, 1): r, (1, 1, 2): s, (1, 0, 1): r})
        assert np.abs(d - self.lam).max() <= 1e-14
        assert np.abs(f - (1.0 - self.lam)).max() <= 1e-14

    def test_curve_iii_at_2x2(self):
        """chi0 = |0⟩|0⟩, chi1 = √λ|1⟩|0⟩ + √(1−λ)|0⟩|1⟩: D = 1 − λ, F = √λ."""
        s, r = np.sqrt(self.lam), np.sqrt(1.0 - self.lam)
        d, f = self.figures(2, {(0, 0, 0): 1.0, (1, 1, 0): s, (1, 0, 1): r})
        assert np.abs(d - (1.0 - self.lam)).max() <= 1e-14
        assert np.abs(f - s).max() <= 1e-14

    @pytest.mark.parametrize("dim_token", [2, 3, 4, 8])
    def test_one_proof_dim_is_one_point(self, dim_token):
        """Product states: orthogonality forces orthogonal pure tokens, so (D, F) = (1, 0)."""
        a = np.stack([random_protocol(1, dim_token, seed).as_matrices() for seed in range(50)], axis=1)
        d, f = distance_fidelity(checked_stacks(a))
        assert np.abs(d - 1.0).max() <= 1e-13 and np.abs(f).max() <= 1e-13


class TestCurveValue:
    def test_concealing_endpoint(self):
        assert curve_value(Curve.II, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_revealing_endpoint(self):
        assert curve_value(Curve.I, 0.5) == 0.0

    def test_curve_iii_against_root_solver(self):
        # Independent algebraic check: c solves g + 2 c^2 = 1/2.
        g = 0.25
        roots = np.roots([2.0, 0.0, g - 0.5])
        positive = max(roots.real)
        assert curve_value(Curve.III, g) == pytest.approx(positive, abs=1e-12)
        assert curve_value(Curve.III, g) == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)

    def test_curve_iv_against_root_solver(self):
        g = 0.3
        roots = np.roots([1.0, 0.0, g * g - 0.25])
        assert curve_value(Curve.IV, g) == pytest.approx(max(roots.real), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            curve_value(Curve.I, 0.6)

    @pytest.mark.parametrize("curve", ["I", 2, None, [Curve.I]])
    def test_unknown_curve(self, curve):
        with pytest.raises(TypeError, match="unknown curve"):
            curve_value(curve, 0.25)
        with pytest.raises(TypeError, match="unknown curve"):
            fair_point(curve)


class TestFairPoints:
    def test_closed_forms(self):
        assert fair_point(Curve.I) == pytest.approx((3 - np.sqrt(5)) / 4, abs=1e-15)
        assert fair_point(Curve.II) == 0.25
        assert fair_point(Curve.III) == pytest.approx((np.sqrt(5) - 1) / 4, abs=1e-15)
        assert fair_point(Curve.IV) == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-15)

    @pytest.mark.parametrize("curve", list(Curve))
    def test_fair_point_lies_on_curve(self, curve):
        g = fair_point(curve)
        assert abs(curve_value(curve, g) - g) <= 1e-12

    def test_strictly_increasing(self):
        values = [fair_point(c) for c in (Curve.I, Curve.II, Curve.III, Curve.IV)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values == pytest.approx([0.19098, 0.25, 0.30902, 0.35355], abs=5e-6)


class TestCheckBounds:
    def test_fair_alice_supplied_point_ok(self):
        assert check_bounds(TradeoffPoint(0.25, 0.25, 0.5)) == []

    def test_boundary_point_ok(self):
        g = fair_point(Curve.I)
        assert check_bounds(TradeoffPoint(g, g, float("nan"))) == []

    def test_impossible_point_flagged(self):
        violations = check_bounds(TradeoffPoint(0.1, 0.1, float("nan")))
        assert len(violations) == 1
        assert "below_curve_I" in violations[0]
