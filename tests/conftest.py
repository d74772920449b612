"""Shared generators for randomized checks.

Everything is seeded explicitly so the whole suite is deterministic; the
helpers only wrap the package's own random constructors with convenient
sizing rules.
"""

from __future__ import annotations

import math

import numpy as np

import qbc


def random_density_pair(dim: int, seed: int, rank0: int | None = None, rank1: int | None = None):
    """A pair of random density operators on the same space."""
    rng = np.random.default_rng(seed)
    r0 = rank0 if rank0 is not None else int(rng.integers(1, dim + 1))
    r1 = rank1 if rank1 is not None else int(rng.integers(1, dim + 1))
    return (
        qbc.random_density(dim, r0, rng),
        qbc.random_density(dim, r1, rng),
    )


def random_protocols(count: int, seed: int, max_dim: int = 4):
    """Random purification protocols with factor dims drawn from 2..max_dim."""
    rng = np.random.default_rng(seed)
    protocols = []
    for _ in range(count):
        dp = int(rng.integers(2, max_dim + 1))
        dt = int(rng.integers(2, max_dim + 1))
        protocols.append(qbc.random_protocol(dp, dt, rng))
    return protocols


def qubit_token_stacks(dim_proof: int, count: int, seed: int, pure0: bool = False):
    """(A0, A1): ``count`` random qubit-token protocols as (count, dim_proof, 2) amplitudes.

    A0 is Haar-random, or with ``pure0`` a product u ⊗ v, which makes rho0
    pure; A1 is Haar-random, Gram-Schmidt-orthogonalized against A0.  A
    ``dim_proof`` of 1 makes both reductions pure.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, count, dim_proof, 2)) + 1j * rng.standard_normal((2, count, dim_proof, 2))
    if pure0:
        z[0] = z[0, :, :, :1] * z[0, :, :1, :]
    a0 = z[0] / np.linalg.norm(z[0], axis=(1, 2), keepdims=True)
    a1 = z[1] - np.einsum("npt,npt->n", a0.conj(), z[1])[:, None, None] * a0
    return a0, a1 / np.linalg.norm(a1, axis=(1, 2), keepdims=True)


# The engine's reference protocols: one of each family and a random 8x8.
ENGINE_PROTOCOLS = {
    "commuting3d": lambda: qbc.family_protocol(qbc.Commuting3D(0.3)),
    "qubit-pure-mixed": lambda: qbc.family_protocol(qbc.QubitPureMixed(0.4)),
    "pure-pair": lambda: qbc.family_protocol(qbc.PurePair(0.7)),
    "random8x8": lambda: qbc.random_protocol(8, 8, 88),
}

# Protocols at the edges of [0, 1]: each family's F = 1 and D = 1 endpoints,
# and a 2x1 random protocol with F = 1.  At F = 1 an overlap of 1 can round
# up, to a table edge P(0) or a cheat-search value above 1 unless capped.
EDGE_PROTOCOLS = {
    "commuting3d-F1": lambda: qbc.family_protocol(qbc.Commuting3D(0.0)),
    "commuting3d-D1": lambda: qbc.family_protocol(qbc.Commuting3D(1.0)),
    "qubit-pure-mixed-F1": lambda: qbc.family_protocol(qbc.QubitPureMixed(1.0)),
    "qubit-pure-mixed-D1": lambda: qbc.family_protocol(qbc.QubitPureMixed(0.0)),
    "pure-pair-F1": lambda: qbc.family_protocol(qbc.PurePair(0.0)),
    "pure-pair-D1": lambda: qbc.family_protocol(qbc.PurePair(np.pi / 2)),
    "random2x1": lambda: qbc.random_protocol(2, 1, 3),
}


# Known-answer protocols: commuting spectra p and q on orthogonal proof
# blocks, so D = (1/2) sum |p - q| and F = sum sqrt(p q) hold by construction.
KNOWN_ANSWER_CLASSES = ("generic", "near-identical", "tiny-eigenvalues", "near-orthogonal-pure", "rank-deficient")


def known_answer_spectra(kind: str, dim: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Spectra (p, q) of one token dimension, drawn for one class of hard case.

    * generic: two random spectra;
    * near-identical: q differs from p by 1e-8 in l1 norm, so D = 5e-9;
    * tiny-eigenvalues: each spectrum has one eigenvalue of 1e-14;
    * near-orthogonal-pure: p is pure and q gives its eigenvector
      (5e-8)^2, so F = 5e-8 and D ~ 1;
    * rank-deficient: each spectrum has one eigenvalue of exactly 0.
    """
    p, q = rng.random(dim) + 0.1, rng.random(dim) + 0.1
    if kind == "near-identical":
        delta = rng.standard_normal(dim)
        delta -= delta.mean()
        q = p + 1e-8 * p.sum() * delta / np.abs(delta).sum()
    elif kind == "tiny-eigenvalues":
        p[rng.integers(dim)] = 0.0
        q[rng.integers(dim)] = 0.0
        p, q = p / p.sum(), q / q.sum()
        p[p == 0.0] = 1e-14
        q[q == 0.0] = 1e-14
    elif kind == "rank-deficient":
        p[rng.integers(dim)] = 0.0
        q[rng.integers(dim)] = 0.0
    elif kind == "near-orthogonal-pure":
        p = np.eye(dim)[0]
        q[0] = 0.0
        q *= (1.0 - 2.5e-15) / q.sum()
        q[0] = 2.5e-15
    elif kind != "generic":
        raise ValueError(f"unknown known-answer class {kind!r}")
    return p / p.sum(), q / q.sum()


def haar_unitary(dim: int, rng) -> np.ndarray:
    """A Haar-random unitary: QR of a complex Gaussian, phases fixed by R's diagonal."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def known_answer_amplitudes(p, q, rng) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(A0, A1, D, F): a protocol whose token reductions are unitarily diag(p), diag(q).

    chi0 holds sqrt(p) on the first proof block and chi1 sqrt(q) on the
    second, so the pair is orthogonal whatever the rotations; a Haar
    unitary then rotates the token and another the proof.  A_b is the
    (2 dim, dim) amplitude matrix of chi_b, proof index first; D and F are
    summed with ``math.fsum`` from the spectra alone.
    """
    dim = len(p)
    a0 = np.zeros((2 * dim, dim), dtype=np.complex128)
    a1 = np.zeros((2 * dim, dim), dtype=np.complex128)
    a0[np.arange(dim), np.arange(dim)] = np.sqrt(p)
    a1[dim + np.arange(dim), np.arange(dim)] = np.sqrt(q)
    v, u = haar_unitary(2 * dim, rng), haar_unitary(dim, rng)
    d = 0.5 * math.fsum(abs(a - b) for a, b in zip(p, q))
    f = math.fsum(math.sqrt(a * b) for a, b in zip(p, q))
    return v @ a0 @ u.T, v @ a1 @ u.T, d, f
