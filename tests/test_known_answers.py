"""Known-answer protocols: every route to D and F against answers known by construction.

Each protocol comes from :func:`conftest.known_answer_amplitudes`: commuting
spectra on orthogonal proof blocks, rotated by Haar unitaries on the token
and on the proof, so D = (1/2) sum |p - q| and F = sum sqrt(p q) are exact
sums over the spectra.  Four classes of hard case at token dims 2-5
(:func:`conftest.known_answer_spectra`): generic, near-identical (D ~ 1e-8),
tiny eigenvalues (1e-14) and near-orthogonal with one pure reduction
(F = 5e-8).  On 3000 such cases the stacked core's D was within 1.44e-15 and
its F within 1.11e-15, and Helstrom success and ``per_bit_success`` within
4.4e-16 of their closed forms; each gate is ten times that.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import KNOWN_ANSWER_CLASSES, known_answer_amplitudes, known_answer_spectra

import qbc
from qbc.linalg import bipartite
from qbc.protocol import checked_stacks, distance_fidelity, make_protocol

D_TOL = 1.44e-14
F_TOL = 1.11e-14
SUCCESS_TOL = 4.4e-15

CLASSES_AND_DIMS = [(kind, dim) for kind in KNOWN_ANSWER_CLASSES for dim in range(2, 6)]


def known_answers(kind: str, dim: int, n: int):
    """(A0, A1, D, F) stacks of ``n`` known-answer protocols, at a seed fixed per class and dim."""
    rng = np.random.default_rng([KNOWN_ANSWER_CLASSES.index(kind), dim])
    cases = [known_answer_amplitudes(*known_answer_spectra(kind, dim, rng), rng) for _ in range(n)]
    a0, a1, d, f = zip(*cases)
    return np.stack(a0), np.stack(a1), np.array(d), np.array(f)


def protocols(a0: np.ndarray, a1: np.ndarray):
    dim_proof, dim_token = a0.shape[1:]
    for m0, m1 in zip(a0, a1):
        yield make_protocol(
            bipartite(dim_proof, dim_token, m0.reshape(-1)),
            bipartite(dim_proof, dim_token, m1.reshape(-1)),
        )


@pytest.mark.parametrize("kind, dim", CLASSES_AND_DIMS)
def test_distance_fidelity(kind, dim):
    a0, a1, d_exact, f_exact = known_answers(kind, dim, 50)
    if kind == "near-identical":
        assert np.allclose(d_exact, 5e-9, rtol=1e-6, atol=0.0)
    if kind == "near-orthogonal-pure":
        assert np.allclose(f_exact, 5e-8, rtol=1e-6, atol=0.0)
    d, f = distance_fidelity(*checked_stacks(a0, a1))
    assert np.abs(d - d_exact).max() <= D_TOL
    assert np.abs(f - f_exact).max() <= F_TOL


@pytest.mark.parametrize("kind, dim", CLASSES_AND_DIMS)
def test_helstrom_and_cheat_kit(kind, dim):
    a0, a1, d_exact, f_exact = known_answers(kind, dim, 10)
    for p, d, f in zip(protocols(a0, a1), d_exact, f_exact):
        helstrom = qbc.helstrom(*qbc.honest_reduced_states(p))
        assert abs(helstrom.success_probability - (1.0 + d) / 2.0) <= SUCCESS_TOL
        assert abs(qbc.optimal_cheat_kit(p).per_bit_success - (1.0 + f) / 2.0) <= SUCCESS_TOL


@pytest.mark.parametrize("kind, dim", CLASSES_AND_DIMS)
def test_cheat_search_never_beats_the_kit(kind, dim):
    a0, a1, _, f_exact = known_answers(kind, dim, 2)
    for p, f in zip(protocols(a0, a1), f_exact):
        best = qbc.random_cheat_search(p, 200, 7).best_value
        assert best <= (1.0 + f) / 2.0 + SUCCESS_TOL
