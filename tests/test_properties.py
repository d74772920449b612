"""Property checks of the security figures on random protocols.

Every example is a ``random_protocol`` of factor dimensions 2..4 x 2..16,
or a stack of random qubit-token protocols; ``hypothesis`` picks the
dimensions and the seed.  The examples are
derandomized, so the suite is deterministic.
"""

from __future__ import annotations

import math

from conftest import qubit_token_stacks
from hypothesis import given, settings
from hypothesis import strategies as st

import qbc
from qbc.protocol import checked_stacks, distance_fidelity

TOL = 1e-12

protocols = st.builds(
    qbc.random_protocol,
    st.integers(2, 4),
    st.integers(2, 16),
    st.integers(0, 2**32 - 1),
)

examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@examples
@given(protocols)
def test_fuchs_van_de_graaf(p):
    report = qbc.security_report(p)
    d, f = report.trace_distance, report.fidelity
    assert 1.0 - f <= d + TOL
    assert d <= math.sqrt(max(0.0, 1.0 - f * f)) + TOL


@examples
@given(protocols)
def test_cheats_reach_the_closed_forms(p):
    report = qbc.security_report(p)
    kit = qbc.optimal_cheat_kit(p)
    assert abs(kit.per_bit_success - (1.0 + report.fidelity) / 2.0) <= TOL
    measurement = qbc.helstrom(*qbc.honest_reduced_states(p))
    assert abs(measurement.success_probability - (1.0 + report.trace_distance) / 2.0) <= TOL


@examples
@given(protocols)
def test_coin_toss_biases_sum_to_at_least_half(p):
    bias = qbc.biases(qbc.CoinTossProtocol(p))
    assert bias.alpha + bias.beta >= 0.5 - TOL


@examples
@given(protocols)
def test_uhlmann_fidelity_matches_square_root_route(p):
    d, f = distance_fidelity(p.as_matrices()[:, None])
    rho0, rho1 = qbc.honest_reduced_states(p)
    assert abs(f[0] - qbc.fidelity(rho0, rho1)) <= TOL
    assert abs(d[0] - qbc.trace_distance(rho0, rho1)) <= TOL


@examples
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_qubit_tokens_stay_above_curve_iii(dim_proof, seed, pure0):
    """D + F^2 >= 1 on 64 random dim_token = 2 protocols, one reduction pure or neither."""
    d, f = distance_fidelity(checked_stacks(qubit_token_stacks(dim_proof, 64, seed, pure0)))
    assert (d + f * f - 1.0).min() >= -qbc.linalg.TOL
