"""Tests for the symmetric eigendecomposition behind ``from_covariance``.

Every case goes through ``model.from_covariance``: its input validation,
the ``numpy.linalg.eigh`` decomposition in descending order, and the
stripping of null components.
"""

import numpy as np
import pytest

from gaussian_rdp.errors import (
    AllComponentsNullError,
    DimensionZeroError,
    DomainError,
    NotPsdError,
    NotSymmetricError,
)
from gaussian_rdp.model import from_covariance


def reconstruct(s):
    return s.basis.T @ (s.lambdas[:, None] * s.basis)


def random_covariance(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.1 * np.eye(n)


def test_symmatrix_rejects_nonsquare():
    with pytest.raises(DomainError):
        from_covariance(np.ones((2, 3)))


def test_symmatrix_rejects_empty():
    with pytest.raises(DimensionZeroError):
        from_covariance(np.zeros((0, 0)))


def test_symmatrix_rejects_asymmetric():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetricError):
        from_covariance(m)


def test_symmatrix_rejects_nonfinite():
    m = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(DomainError):
        from_covariance(m)


def test_symmatrix_accepts_roundoff_asymmetry():
    # Asymmetry below the relative gate is symmetrized away, not rejected.
    m = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
    s = from_covariance(m)
    sym = from_covariance(0.5 * (m + m.T))
    assert s.dim == 2
    assert np.array_equal(s.lambdas, sym.lambdas)
    assert np.array_equal(s.basis, sym.basis)


def test_decompose_diagonal_sorts_descending():
    s = from_covariance(np.diag([3.0, 2.0, 5.0, 4.0, 1.0]))
    assert np.array_equal(s.lambdas, [5.0, 4.0, 3.0, 2.0, 1.0])
    # Each basis row picks out one coordinate axis.
    assert np.allclose(np.abs(s.basis), np.eye(5)[[2, 3, 0, 1, 4]])


def test_decompose_2x2_exact():
    s = from_covariance(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(s.lambdas, [3.0, 1.0], atol=1e-12)
    assert np.allclose(np.abs(s.basis), np.sqrt(0.5), atol=1e-12)


def test_decompose_scalar():
    s = from_covariance(np.array([[4.0]]))
    assert s.lambdas[0] == 4.0
    assert abs(abs(s.basis[0, 0]) - 1.0) < 1e-15


def test_decompose_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(1234)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        m = random_covariance(rng, n)
        # round-off asymmetry, which the decomposition averages away
        m[0, -1] *= 1.0 + 1e-15
        s = from_covariance(m)
        w, v = np.linalg.eigh(0.5 * (m + m.T))
        assert np.array_equal(s.lambdas, w[::-1])
        assert np.array_equal(s.basis, v[:, ::-1].T)


def test_decompose_basis_rows_are_eigenvectors():
    rng = np.random.default_rng(77)
    m = random_covariance(rng, 6)
    s = from_covariance(m)
    assert s.dim == 6
    for k in range(6):
        v = s.basis[k]
        r = m @ v - s.lambdas[k] * v
        assert np.max(np.abs(r)) < 1e-9


def test_decompose_reconstruction_and_orthonormality():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(2, 8))
        m = random_covariance(rng, n)
        s = from_covariance(m)
        assert s.dim == n
        scale = max(1.0, float(np.max(np.abs(m))))
        assert np.max(np.abs(reconstruct(s) - m)) < 1e-10 * scale
        gram = s.basis @ s.basis.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_decompose_near_degenerate_pair():
    # Clustered eigenvalues still reconstruct even if individual vectors spin.
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 4)))
    m = q @ np.diag([2.0, 2.0 + 1e-13, 1.0, 0.5]) @ q.T
    m = 0.5 * (m + m.T)
    s = from_covariance(m)
    assert s.dim == 4
    assert np.max(np.abs(reconstruct(s) - m)) < 1e-10


def test_strip_keeps_positive_drops_null():
    s = from_covariance(np.diag([2.0, 1.0, 0.0]))
    assert np.array_equal(s.lambdas, [2.0, 1.0])
    assert s.basis.shape == (2, 3)


def test_strip_negative_beyond_tol_raises():
    with pytest.raises(NotPsdError):
        from_covariance(np.diag([2.0, -1e-6]))


def test_strip_small_negative_clamped_then_dropped():
    # -1e-15 is within 1e-12 of the largest eigenvalue: round-off, dropped
    s = from_covariance(np.diag([2.0, -1e-15]))
    assert np.array_equal(s.lambdas, [2.0])


def test_strip_all_null_raises():
    with pytest.raises(AllComponentsNullError):
        from_covariance(np.zeros((3, 3)))


def test_strip_rank_deficient_rotated():
    # Rank-2 PSD matrix in a rotated frame keeps exactly two components.
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    m = q @ np.diag([3.0, 1.0, 0.0, 0.0]) @ q.T
    m = 0.5 * (m + m.T)
    s = from_covariance(m)
    assert s.lambdas.shape == (2,)
    assert s.basis.shape == (2, 4)
    assert np.allclose(s.lambdas, [3.0, 1.0], atol=1e-10)
