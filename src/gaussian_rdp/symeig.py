"""Dense symmetric eigendecomposition of covariance matrices.

A user-supplied covariance matrix is reduced to its spectrum and orthonormal
basis, which is all the downstream solvers need: the coding problem for a
Gaussian vector is separable across decorrelated components.  The
decomposition itself is LAPACK's, through ``numpy.linalg.eigh``; this
module validates the input, orders the spectrum and strips null
components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllComponentsNullError,
    DimensionZeroError,
    DomainError,
    NotPsdError,
    NotSymmetricError,
)

__all__ = [
    "SymMatrix",
    "EigenDecomposition",
    "decompose",
    "strip_null_components",
]

SYMMETRY_RTOL = 1e-12


def _as_square_array(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionZeroError("matrix has dimension zero")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix, validated at construction.

    Symmetry is enforced within 1e-12 relative to the largest entry
    magnitude; asymmetric input raises :class:`NotSymmetricError`.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _as_square_array(self.entries)
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        gap = float(np.max(np.abs(a - a.T)))
        if gap > SYMMETRY_RTOL * max(scale, 1e-300):
            raise NotSymmetricError(
                f"asymmetry {gap:.3e} exceeds {SYMMETRY_RTOL:.0e} of scale {scale:.3e}"
            )
        sym = 0.5 * (a + a.T)
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum and orthonormal basis; ``basis`` rows are eigenvectors.

    Satisfies ``basis.T @ diag(eigenvalues) @ basis == input`` and
    ``basis @ basis.T == identity`` within 1e-10; eigenvalues are sorted
    descending.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.basis, dtype=float)
        if w.ndim != 1 or v.ndim != 2 or v.shape[0] != w.shape[0]:
            raise DomainError(
                f"basis must have one row per eigenvalue, got {v.shape} for {w.shape}"
            )
        if np.any(np.diff(w) > 0.0):
            raise DomainError("eigenvalues must be sorted descending")
        w = w.copy()
        v = v.copy()
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "basis", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Assemble ``basis.T @ diag(eigenvalues) @ basis``."""
        return self.basis.T @ (self.eigenvalues[:, None] * self.basis)


def decompose(m: SymMatrix | np.ndarray) -> EigenDecomposition:
    """Diagonalize a symmetric matrix.

    Parameters
    ----------
    m : SymMatrix or array_like
        Symmetric matrix; raw arrays are validated by wrapping in
        :class:`SymMatrix` first.

    Returns
    -------
    EigenDecomposition
        Eigenvalues sorted descending, basis rows the matching eigenvectors.

    Raises
    ------
    NotSymmetricError
        If the input violates the symmetry tolerance.
    DimensionZeroError
        If the input is 0 x 0.
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(np.asarray(m))
    # eigh returns ascending eigenvalues with eigenvectors in its columns
    w, v = np.linalg.eigh(m.entries)
    return EigenDecomposition(eigenvalues=w[::-1], basis=v[:, ::-1].T)


def strip_null_components(e: EigenDecomposition, tol: float) -> EigenDecomposition:
    """Drop numerically null components from a decomposition.

    Eigenvalues below ``-tol`` mean the input was not positive semidefinite
    and raise :class:`NotPsdError`; values in ``[-tol, 0]`` are treated as
    roundoff, clamped to zero, and stripped along with every eigenvalue at
    or below ``tol``. The corresponding basis rows are removed.

    Raises
    ------
    AllComponentsNullError
        If no eigenvalue survives the threshold.
    """
    if tol < 0.0:
        raise DomainError("null threshold must be nonnegative")
    w = np.asarray(e.eigenvalues, dtype=float).copy()
    worst = float(w.min()) if w.size else 0.0
    if worst < -tol:
        raise NotPsdError(f"eigenvalue {worst:.6e} below -{tol:.3e}")
    w[(w >= -tol) & (w <= 0.0)] = 0.0
    keep = w > tol
    if not bool(np.any(keep)):
        raise AllComponentsNullError(
            f"all {w.size} eigenvalues at or below threshold {tol:.3e}"
        )
    return EigenDecomposition(eigenvalues=w[keep], basis=e.basis[keep, :])
