"""Domain types shared by every solver in the package, and the covariance path.

A Gaussian vector source is reduced to its spectrum of component variances
by ``from_covariance``: ``decompose`` validates the covariance matrix and
diagonalizes it with ``numpy.linalg.eigh``, and the null components are
stripped. The coding problem is separable across the decorrelated
components, so the spectrum is all the solvers need. A query fixes a total
squared-error distortion budget D, a perception budget P, and the
perception metric (Kullback-Leibler divergence of the reconstruction law
from the source law, squared Wasserstein-2 distance, or no perception
constraint at all). Solutions assign each component a water level
``gamma`` (the MMSE of estimating the component from its reconstruction),
a reconstruction variance ``lambda_hat``, and a rate
``0.5*log(lambda/gamma)``, held as arrays.

Rates are stored in nats throughout; conversion to bits happens only at the
output boundary. For perfect-perception solutions (P = 0) the perception
multiplier of the dual point is reported as ``+inf``: the constraint admits
no strictly feasible point there, and the pinned reconstruction
``lambda_hat = lambda`` absorbs the multiplier.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import (
    AllComponentsNullError,
    DimensionZeroError,
    DomainError,
    NonPositiveDistortionError,
    NotPsdError,
    NotSymmetricError,
)
from .rootfind import bisect_root

__all__ = [
    "PerceptionMetric",
    "SolutionCase",
    "SourceSpectrum",
    "TradeoffQuery",
    "DualPoint",
    "RdpSolution",
    "KktResiduals",
    "CurveSweep",
    "from_covariance",
    "zero_rate_reconstruction",
]

SYMMETRY_RTOL = 1e-12
NULL_RTOL = 1e-12


class PerceptionMetric(enum.Enum):
    """Which divergence constrains the reconstruction law."""

    KL = "kl"
    W2 = "w2"
    UNCONSTRAINED = "none"

    @classmethod
    def from_name(cls, name: str) -> "PerceptionMetric":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DomainError(
                f"unknown perception metric {name!r}; expected kl, w2 or none"
            ) from None


class SolutionCase(enum.Enum):
    """Which budget constraints bind at the optimum."""

    BOTH_ACTIVE = "BothActive"
    DISTORTION_ONLY = "DistortionOnly"
    DISTORTION_INACTIVE = "DistortionInactive"


@dataclass(frozen=True)
class SourceSpectrum:
    """Component variances of a decorrelated Gaussian vector source.

    ``lambdas`` keeps the order it was given; spectra built from a
    covariance matrix arrive sorted descending. ``basis`` (rows are
    eigenvectors) is retained when the source came from a covariance and is
    not used by the solvers themselves.
    """

    lambdas: np.ndarray
    basis: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        if lam.ndim != 1:
            raise DomainError("spectrum must be a flat vector of variances")
        if lam.size == 0:
            raise DimensionZeroError("spectrum has no components")
        if not np.all(np.isfinite(lam)):
            raise DomainError("spectrum entries must be finite")
        if np.any(lam <= 0.0):
            raise DomainError(
                "spectrum entries must be strictly positive; strip null components first"
            )
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)
        if self.basis is not None:
            b = np.asarray(self.basis, dtype=float)
            if b.ndim != 2 or b.shape[0] != lam.size:
                raise DomainError("basis must have one row per spectrum component")
            b.setflags(write=False)
            object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return int(self.lambdas.size)

    @property
    def total_variance(self) -> float:
        return float(np.sum(self.lambdas))


@dataclass(frozen=True)
class TradeoffQuery:
    """One (distortion budget, perception budget, metric) evaluation point."""

    distortion_budget: float
    perception_budget: float
    metric: PerceptionMetric

    def __post_init__(self) -> None:
        d = float(self.distortion_budget)
        p = float(self.perception_budget)
        if not (math.isfinite(d) and d > 0.0):
            raise NonPositiveDistortionError(
                f"distortion budget must be finite and positive, got {d!r}"
            )
        if math.isnan(p) or p < 0.0:
            raise DomainError(f"perception budget must be nonnegative, got {p!r}")
        unconstrained = self.metric is PerceptionMetric.UNCONSTRAINED
        if unconstrained != math.isinf(p):
            raise DomainError(
                "metric 'none' requires an infinite perception budget and vice versa"
            )
        object.__setattr__(self, "distortion_budget", d)
        object.__setattr__(self, "perception_budget", p)


@dataclass(frozen=True)
class DualPoint:
    """Multipliers of the distortion and perception constraints.

    ``nu2`` may be ``+inf`` for perfect-perception solutions (see module
    docstring); both multipliers are otherwise finite and nonnegative.
    """

    nu1: float
    nu2: float

    def __post_init__(self) -> None:
        if math.isnan(self.nu1) or self.nu1 < 0.0 or math.isinf(self.nu1):
            raise DomainError(f"nu1 must be finite and nonnegative, got {self.nu1!r}")
        if math.isnan(self.nu2) or self.nu2 < 0.0:
            raise DomainError(f"nu2 must be nonnegative, got {self.nu2!r}")


@dataclass(frozen=True, eq=False)
class RdpSolution:
    """A full evaluation of the tradeoff at one query point.

    ``gammas``, ``lambda_hats`` and ``rates`` are read-only arrays with one
    entry per component; solutions compare equal when every field does,
    NaN matching NaN.
    """

    total_rate: float
    gammas: np.ndarray
    lambda_hats: np.ndarray
    rates: np.ndarray
    dual: DualPoint
    case_tag: SolutionCase
    kkt_residual: float
    achieved_distortion: float
    achieved_perception: float

    def __post_init__(self) -> None:
        for name in ("gammas", "lambda_hats", "rates"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not (self.gammas.ndim == 1 and self.gammas.shape == self.lambda_hats.shape
                == self.rates.shape):
            raise DomainError("gammas, lambda_hats and rates must be matching vectors")
        if not np.all((self.gammas > 0.0) & (self.gammas < math.inf)):
            raise DomainError("every gamma must be positive and finite")
        if not (np.all(self.lambda_hats >= 0.0) and np.all(self.rates >= 0.0)):
            raise DomainError("lambda_hats and rates must be nonnegative")
        if self.total_rate < 0.0 or math.isnan(self.total_rate):
            raise DomainError(f"total rate must be nonnegative, got {self.total_rate!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RdpSolution):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(
            np.array_equal(a, b, equal_nan=True) if isinstance(a, (float, np.ndarray))
            else a == b
            for a, b in pairs
        )


@dataclass(frozen=True)
class KktResiduals:
    """Stationarity and complementarity residuals of a solution.

    ``stationarity_gamma`` and ``stationarity_lambda_hat`` are the
    per-component residuals of the two first-order conditions, the first
    with the box multiplier ``xi`` (for gamma = lambda) substituted, made
    dimensionless by the factors ``2*gamma`` and ``lambda_hat``; ``xi``
    keeps the units of the unscaled gamma condition; ``complementarity`` is
    the largest complementary-slackness violation across all constraints.
    """

    stationarity_gamma: np.ndarray
    stationarity_lambda_hat: np.ndarray
    xi: np.ndarray
    complementarity: float

    def max_abs(self) -> float:
        """Largest residual magnitude across all conditions."""
        parts = [
            float(np.max(np.abs(self.stationarity_gamma))),
            float(np.max(np.abs(self.stationarity_lambda_hat))),
            abs(self.complementarity),
        ]
        return max(parts)


@dataclass(frozen=True)
class CurveSweep:
    """Aligned grid of budgets and solutions from a curve evaluation.

    ``distortions`` and ``perceptions`` hold the raw grid values for every
    row, including rows whose budgets form no valid query; for failed rows
    the aligned ``solutions`` entry is ``None`` and ``failures`` records
    why (``"infeasible"`` or ``"convergence_failure"``).
    """

    distortions: tuple[float, ...]
    perceptions: tuple[float, ...]
    metric: PerceptionMetric
    solutions: tuple[Optional[RdpSolution], ...]
    failures: tuple[Optional[str], ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.distortions)
        for name in ("perceptions", "solutions", "failures"):
            if len(getattr(self, name)) != n:
                raise DomainError(f"sweep field {name} misaligned with grid")


def decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, descending, and matching basis rows of a symmetric matrix.

    The matrix must be square, nonempty and finite, and symmetric within
    1e-12 of its largest entry magnitude; it is then averaged with its
    transpose and handed to ``numpy.linalg.eigh``.  The basis rows satisfy
    ``basis.T @ diag(eigenvalues) @ basis == m`` to rounding.

    Raises
    ------
    DimensionZeroError
        If the matrix is 0 x 0.
    NotSymmetricError
        If the matrix violates the symmetry tolerance.
    DomainError
        If the matrix is not square or has a nonfinite entry.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionZeroError("matrix has dimension zero")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    scale = float(np.max(np.abs(a)))
    gap = float(np.max(np.abs(a - a.T)))
    if gap > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetricError(
            f"asymmetry {gap:.3e} exceeds {SYMMETRY_RTOL:.0e} of scale {scale:.3e}"
        )
    # eigh returns ascending eigenvalues with eigenvectors in its columns
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    return w[::-1], v[:, ::-1].T


def from_covariance(m: np.ndarray) -> SourceSpectrum:
    """Decompose a covariance matrix into a source spectrum.

    Null components, with eigenvalues at or below ``tol = 1e-12`` times the
    largest eigenvalue, are dropped along with their basis rows; an
    eigenvalue below ``-tol`` raises :class:`NotPsdError`.  Surviving
    eigenvalues arrive sorted descending with their basis rows retained.

    Raises
    ------
    NotPsdError
        If an eigenvalue lies below ``-tol``.
    AllComponentsNullError
        If no eigenvalue lies above ``tol``.
    """
    w, basis = decompose(m)
    tol = NULL_RTOL * max(float(w[0]), 0.0)
    if w[-1] < -tol:
        raise NotPsdError(f"eigenvalue {w[-1]:.6e} below -{tol:.3e}")
    keep = w > tol
    if not keep.any():
        raise AllComponentsNullError(
            f"all {w.size} eigenvalues at or below threshold {tol:.3e}"
        )
    return SourceSpectrum(lambdas=w[keep], basis=basis[keep])


def zero_rate_reconstruction(
    s: SourceSpectrum, metric: PerceptionMetric, P: float
) -> tuple[np.ndarray, float]:
    """Cheapest zero-rate reconstruction meeting a perception budget.

    At zero rate every component is independent of the source, so the
    component distortion is ``lambda + lambda_hat`` and the only freedom is
    the reconstruction variance vector. Returns the distortion-minimizing
    ``lambda_hat`` vector and its total distortion; this is the boundary of
    the zero-rate feasibility region.  Under KL, ``lambda_hat =
    lambda*mu/(mu + 2*lambda)`` for the scalar multiplier ``mu`` of the
    perception constraint, which :func:`rootfind.bisect_root` finds by
    Newton steps on ``log(KL/P)`` in ``log(mu)``.
    """
    if math.isnan(P) or P < 0.0:
        raise DomainError(f"perception budget must be nonnegative, got {P!r}")
    lam = s.lambdas
    total = s.total_variance
    if metric is PerceptionMetric.UNCONSTRAINED or math.isinf(P):
        return np.zeros_like(lam), total
    if P == 0.0:
        return lam.copy(), 2.0 * total
    if metric is PerceptionMetric.W2:
        # lambda_hat = (t*lambda^0.5)^2 keeps the W2 sum at (1-t)^2 * total
        t = max(0.0, 1.0 - math.sqrt(P / total))
        hats = (t * t) * lam
        return hats, total + float(np.sum(hats))
    if metric is not PerceptionMetric.KL:
        raise DomainError(f"unsupported metric {metric!r}")

    log_two_lam = np.log(2.0 * lam)

    def excess(log_mu: float) -> tuple[float, float]:
        # log(KL/P) and its slope in log(mu).  With w = lambda/(mu + lambda)
        # a term of KL is atanh(w) - w + w^2/(1 + w): atanh(w) is
        # 0.5*log(1 + 2*lambda/mu), taken by logaddexp, which stays exact
        # where lambda_hat << lambda, and atanh(w) - w by its series where
        # the difference would cancel.  dKL/dlog(mu) = -2*sum((w/(1+w))^2)
        w = lam / (math.exp(log_mu) + lam)
        w2 = w * w
        tail = np.where(
            w < 1e-2,
            w * w2 * (1.0 / 3.0 + w2 * (0.2 + w2 * (1.0 / 7.0 + w2 / 9.0))),
            0.5 * np.logaddexp(0.0, log_two_lam - log_mu) - w,
        )
        kl = float(np.sum(tail + w2 / (1.0 + w)))
        return math.log(kl / P), -2.0 * float(np.sum((w / (1.0 + w)) ** 2)) / kl

    # each KL term is at most 2*lambda^2/mu^2, so KL <= P at this start
    start = 0.5 * math.log(2.0 * float(np.sum(lam * lam)) / P)
    if start > math.log(float(lam.max())) + 40.0:
        # mu > 1e17*lambda at the root, so every lambda_hat rounds to lambda
        return lam.copy(), 2.0 * total
    # a root below the floor means the budget is so large that the optimal
    # variances sit below floating-point resolution; the floor is feasible
    # and its distortion rounds to the infimum sum(lambdas)
    mu = math.exp(max(bisect_root(excess, start), -700.0))
    hats = lam * (mu / (mu + 2.0 * lam))
    return hats, total + float(np.sum(hats))

