"""Classical reverse water-filling for Gaussian vector sources.

With no perception constraint the optimal coding of a decorrelated Gaussian
vector pours a common water level ``nu`` over the spectrum: every component
with variance above ``nu`` is coded down to MMSE ``nu``, components below it
get zero rate, and ``sum(min(nu, lambda))`` exhausts the distortion budget.
The defining equation ``sum(max(lambda - nu, 0)) = max(sum(lambda) - D, 0)``
is piecewise linear in ``nu``, so the level is found by an exact breakpoint
scan rather than iteration, and the two asymptotic laws (high-distortion and
low-distortion expansions of the rate) are provided as reference estimates.

Every solution in the package, with or without a perception budget, is
built by :func:`assemble` from its water levels, gaps and reconstruction
variances; the solver's paths differ only in how they find those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDistortionError, DomainError
from .kernels import distortion_terms, perception_terms, rate_gaps, rate_terms
from .kkt import residuals as kkt_residuals
from .model import (
    DualPoint,
    PerceptionMetric,
    RdpSolution,
    SolutionCase,
    SourceSpectrum,
)

__all__ = [
    "WaterLevel",
    "water_level",
    "reverse_waterfill",
    "waterfill_solution",
    "assemble",
    "high_distortion_rd_estimate",
    "low_distortion_rd_estimate",
]


@dataclass(frozen=True)
class WaterLevel:
    """Common level ``nu`` and the per-component levels ``min(nu, lambda)``."""

    nu: float
    per_component: np.ndarray

    def __post_init__(self) -> None:
        pc = np.asarray(self.per_component, dtype=float)
        pc.setflags(write=False)
        object.__setattr__(self, "per_component", pc)


def water_level(s: SourceSpectrum, D: float) -> WaterLevel:
    """Solve the water-level equation exactly by breakpoint scan.

    For ``D >= sum(lambdas)`` both sides of the defining equation vanish for
    any level at or above the largest variance; the largest variance itself
    is returned as the canonical choice.

    Raises
    ------
    NonPositiveDistortionError
        If ``D <= 0``.
    """
    if not (D > 0.0) or math.isnan(D):
        raise NonPositiveDistortionError(f"distortion budget must be positive, got {D!r}")
    lam = s.lambdas
    total = s.total_variance
    if D >= total:
        nu = float(np.max(lam))
        return WaterLevel(nu=nu, per_component=lam.copy())
    desc = np.sort(lam)[::-1]
    # tail[k] = sum of the variances below the k active components, summed
    # smallest-first; the form (D - tail) / k avoids cancellation at small D
    tail = np.concatenate((np.cumsum(desc[::-1])[::-1], [0.0]))
    # the level with k active components, against the next breakpoint; the
    # last candidate meets -inf, so argmax always finds the first that fits
    candidates = (D - tail[1:]) / np.arange(1, lam.size + 1)
    next_break = np.concatenate((desc[1:], [-math.inf]))
    nu = float(candidates[np.argmax(candidates >= next_break)])
    return WaterLevel(nu=nu, per_component=np.minimum(nu, lam))


def assemble(
    lam: np.ndarray, gammas: np.ndarray, gaps: np.ndarray, lambda_hats: np.ndarray,
    nu1: float, nu2: float, metric: PerceptionMetric, D: float, P: float,
    case: SolutionCase,
) -> RdpSolution:
    """Build the solution of an allocation, with its rates and certificate.

    ``gaps`` is ``lam - gammas`` in the cancellation-free form of the path
    that found the allocation.  The rates come from the gaps
    (:func:`kernels.rate_terms`), and the KKT certificate from the same
    rates, exactly as :func:`kkt.solution_residuals` recomputes it.
    """
    rates = rate_terms(lam, gammas, gaps)
    resid = kkt_residuals(
        lam, gammas, rate_gaps(lam, rates), lambda_hats, nu1, nu2, metric, D, P
    ).max_abs()
    return RdpSolution(
        total_rate=float(rates.sum()),
        gammas=gammas,
        lambda_hats=lambda_hats,
        rates=rates,
        dual=DualPoint(nu1=nu1, nu2=nu2),
        case_tag=case,
        kkt_residual=resid,
        achieved_distortion=float(distortion_terms(gammas, gaps, lambda_hats).sum()),
        achieved_perception=float(perception_terms(lam, lambda_hats, metric).sum()),
    )


def waterfill_solution(
    s: SourceSpectrum, D: float, w: WaterLevel, metric: PerceptionMetric, P: float
) -> RdpSolution:
    """The water-filling allocation at level ``w``, certified for a metric.

    Each component is assigned water level ``min(nu, lambda)`` and
    reconstruction variance ``lambda - gamma``, which is also its gap.  The
    reconstruction variance is taken as the gap that the certificate
    recovers from the rate, the same float, so that its residual
    ``nu1*lambda_hat*(1 - sqrt(gap/lambda_hat))`` does not multiply the
    rounding of the two forms by ``nu1*lambda_hat``, up to ``L*lam/(2D)``.
    At ``D`` at or beyond the total variance every component is at zero
    rate, and the answer is tagged ``DistortionInactive`` as every zero-rate
    point is.
    """
    lam = s.lambdas
    gaps = lam - w.per_component
    hats = rate_gaps(lam, rate_terms(lam, w.per_component, gaps))
    # slack distortion constraint (D beyond total variance) forces nu1 = 0
    if D >= s.total_variance:
        nu1, case = 0.0, SolutionCase.DISTORTION_INACTIVE
    else:
        nu1, case = 1.0 / (2.0 * w.nu), SolutionCase.DISTORTION_ONLY
    return assemble(lam, w.per_component, gaps, hats, nu1, 0.0, metric, D, P, case)


def reverse_waterfill(s: SourceSpectrum, D: float) -> RdpSolution:
    """Rate-distortion solution with no perception budget.

    Each component gets rate ``0.5*log(lambda/min(nu, lambda))``.  The
    solution's ``achieved_perception`` is NaN: no perception metric is part
    of this problem.
    """
    return waterfill_solution(
        s, D, water_level(s, D), PerceptionMetric.UNCONSTRAINED, math.inf
    )


def high_distortion_rd_estimate(
    s: SourceSpectrum, eps: float
) -> tuple[float, np.ndarray]:
    """First-order rate expansion near the zero-rate boundary.

    At distortion ``sum(lambdas) - eps`` only the maximal-variance
    components are coded; the estimate is ``eps/(2*max(lambda))`` with the
    shortfall split equally over the maximal set.
    """
    if eps < 0.0 or math.isnan(eps):
        raise DomainError(f"eps must be nonnegative, got {eps!r}")
    lam = s.lambdas
    lam_max = float(np.max(lam))
    top = lam == lam_max
    levels = lam.copy()
    levels[top] = lam_max - eps / float(np.count_nonzero(top))
    return eps / (2.0 * lam_max), levels


def low_distortion_rd_estimate(s: SourceSpectrum, eps: float) -> tuple[float, float]:
    """Exact rate below saturation: every component stays above the level.

    For ``eps < L*min(lambda)`` the water level is exactly ``eps/L`` and the
    rate is ``0.5*sum(log(L*lambda/eps))``; past that the formula is only an
    estimate.
    """
    if not eps > 0.0 or math.isnan(eps):
        raise DomainError(f"eps must be positive, got {eps!r}")
    lam = s.lambdas
    n = lam.size
    rate = float(0.5 * np.sum(np.log(n * lam / eps)))
    return rate, eps / n
