"""Tests for the dense linear-algebra kernel."""

from __future__ import annotations

import numpy as np
import pytest

import qbc
from qbc.errors import (
    BadRank,
    DimMismatch,
    NotHermitian,
    NotNormalized,
    NotPositiveSemidefinite,
)
from qbc.linalg import (
    BipartiteState,
    DensityOperator,
    PureState,
    apply_to_proof,
    basis_state,
    bipartite,
    partial_trace,
    projector,
    qubit_token_core,
    random_density,
    random_pure_state,
    sqrt_psd,
    tensor_product,
)


def random_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_index_formula(self):
        a = random_matrix(2, 2, 1)
        b = random_matrix(3, 3, 2)
        out = tensor_product(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert out[i * 3 + k, j * 3 + l] == pytest.approx(a[i, j] * b[k, l])


class TestPartialTrace:
    def test_product_state(self):
        state = bipartite(2, 2, np.kron(basis_state(2, 0).amplitudes, basis_state(2, 1).amplitudes))
        reduced = partial_trace(state, keep="token")
        assert np.allclose(reduced.matrix, np.diag([0.0, 1.0]))

    def test_maximally_entangled(self):
        state = bipartite(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(state, keep="token")
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_commuting_family_reduction(self):
        p = qbc.family_protocol(qbc.Commuting3D(0.3))
        reduced = partial_trace(p.chi0, keep="token")
        assert np.allclose(reduced.matrix, np.diag([0.3, 0.7, 0.0]), atol=1e-12)

    def test_trace_preserved(self):
        for seed in range(20):
            state = BipartiteState(3, 4, random_pure_state(12, seed))
            for keep in ("proof", "token"):
                assert np.trace(partial_trace(state, keep).matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_tensor_then_reduce_recovers_factor(self):
        for seed in range(10):
            psi = random_pure_state(3, seed)
            phi = random_pure_state(2, 100 + seed)
            state = bipartite(3, 2, np.kron(psi.amplitudes, phi.amplitudes))
            assert np.max(np.abs(partial_trace(state, "proof").matrix - projector(psi))) <= 1e-9
            assert np.max(np.abs(partial_trace(state, "token").matrix - projector(phi))) <= 1e-9


class TestSqrtPsd:
    def test_diagonal(self):
        rho = DensityOperator(np.diag([0.25, 0.75]))
        assert np.allclose(sqrt_psd(rho), np.diag([0.5, np.sqrt(0.75)]))

    def test_projector_fixed_point(self):
        rho = qbc.density_from_pure(random_pure_state(3, 2))
        assert np.max(np.abs(sqrt_psd(rho) - rho.matrix)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_square_reconstructs(self, seed):
        rho = random_density(4, 3, seed)
        root = sqrt_psd(rho)
        assert np.max(np.abs(root @ root - rho.matrix)) <= 1e-8


class TestQubitTokenCore:
    def test_spectra_match_eigvalsh(self):
        """The closed-form spectra of any 2x2 Hermitian stack, trace-free ones included."""
        h = random_matrix(600, 2, 9).reshape(3, 100, 2, 2)
        h = h + np.swapaxes(h, -2, -1).conj()
        h[2] -= np.trace(h[2], axis1=-2, axis2=-1)[:, None, None].real * np.eye(2) / 2.0
        a = np.zeros((2, 100, 1, 2), dtype=np.complex128)  # no amplitudes are read for the spectra
        spectra, _, _ = qubit_token_core(h, a)
        assert np.abs(spectra - np.linalg.eigvalsh(h)).max() <= 1e-14


class TestRandomStates:
    def test_pure_state_determinism(self):
        a = random_pure_state(4, 42)
        b = random_pure_state(4, 42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_density_determinism(self):
        a = random_density(3, 2, 42)
        b = random_density(3, 2, 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_one_is_pure(self):
        rho = random_density(3, 1, 9)
        eigenvalues = np.linalg.eigvalsh(rho.matrix)
        assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-9)

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            random_density(3, 4, 0)
        with pytest.raises(BadRank):
            random_density(3, 0, 0)

    def test_full_rank_mean_is_maximally_mixed(self):
        # Monte Carlo oracle: the ensemble average of random qubit states
        # is I/2 up to sampling error.
        rng = np.random.default_rng(123)
        total = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for _ in range(n):
            total += random_density(2, 2, rng).matrix
        assert np.max(np.abs(total / n - np.eye(2) / 2)) <= 0.02


class TestValidation:
    def test_pure_state_norm(self):
        with pytest.raises(NotNormalized):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_pure_state_non_finite(self, bad):
        with pytest.raises(NotNormalized):
            PureState(np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
    def test_density_non_finite(self, bad):
        """Refused before the Hermiticity check, whose inf - inf would warn."""
        with pytest.raises(NotNormalized, match=r"^density operator entry .* is not finite$"):
            DensityOperator(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("matrix", [[[0.5, 1e308], [-1e308, 0.5]], [[0.5, 1e308j], [1e308j, 0.5]]])
    def test_density_huge_entry(self, matrix):
        """Refused before the Hermiticity check, whose 1e308 - (-1e308) would overflow."""
        with pytest.raises(NotNormalized, match=r"^density operator entry .*1e\+308.* exceeds 1$"):
            DensityOperator(matrix)

    def test_density_hermitian(self):
        with pytest.raises(NotHermitian):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_positive(self):
        with pytest.raises(NotPositiveSemidefinite):
            DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_density_trace(self):
        with pytest.raises(NotNormalized):
            DensityOperator(np.eye(2))

    def test_bipartite_dims(self):
        with pytest.raises(DimMismatch):
            BipartiteState(2, 3, random_pure_state(5, 0))
        with pytest.raises(DimMismatch, match="must be square"):
            DensityOperator(np.eye(2, 3) / 2.0)
        with pytest.raises(DimMismatch, match="does not act on proof dim 2"):
            apply_to_proof(np.eye(3), bipartite(2, 2, np.eye(4)[0]))
        with pytest.raises(DimMismatch, match="does not act on proof dim 2"):
            apply_to_proof(np.eye(3).tolist(), bipartite(2, 2, np.eye(4)[0]))

    def test_apply_to_proof_takes_a_nested_list(self):
        chi = BipartiteState(2, 3, random_pure_state(6, 3))
        expected = apply_to_proof(np.eye(2), chi).amplitudes
        assert apply_to_proof([[1, 0], [0, 1]], chi).amplitudes.tobytes() == expected.tobytes()

    def test_bipartite_numpy_integer_dims_are_stored_as_int(self):
        state = BipartiteState(np.int64(2), np.uint8(3), random_pure_state(6, 0))
        assert (state.dim_proof, state.dim_token) == (2, 3)
        assert type(state.dim_proof) is int and type(state.dim_token) is int

    @pytest.mark.parametrize("bad", [2.0, True, "2", 0, np.int64(-1)])
    def test_bipartite_dims_must_be_integers_at_least_1(self, bad):
        """A float, a bool or a non-positive dim is refused before ``as_matrix`` can fail on it."""
        with pytest.raises(DimMismatch, match="dim_proof must be an integer >= 1"):
            BipartiteState(bad, 1, random_pure_state(1, 0))

    @pytest.mark.parametrize("index", [-1, 2, 5, True, np.True_, 1.0, "1", None])
    def test_basis_state_index_must_be_an_integer_below_dim(self, index):
        """A negative index no longer wraps round to the last vector, a bool is
        not taken for 0 or 1, and an index past the end is not an IndexError."""
        with pytest.raises(qbc.ParamOutOfRange, match=r"index must be an integer in \[0, 2\)"):
            basis_state(2, index)

    def test_basis_state_takes_numpy_integer_indices(self):
        for index in range(3):
            for kind in (int, np.int64, np.uint8):
                state = basis_state(np.int32(3), kind(index))
                assert np.array_equal(state.amplitudes, np.eye(3)[index])

    def test_arrays_frozen(self):
        rho = random_density(2, 2, 0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
