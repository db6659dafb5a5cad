"""First-order optimality certificates for tradeoff solutions.

The per-component stationarity conditions of the rate program, with
multipliers ``nu1`` (distortion), ``nu2`` (perception) and ``xi`` (active
upper box ``gamma = lambda``):

    gamma:       1/(2*gamma) - nu1*sqrt(lambda_hat/(lam-gamma)) - xi = 0
    lambda_hat (KL):  nu1*(1 - sqrt((lam-gamma)/lambda_hat))
                      + 0.5*nu2*(1/lam - 1/lambda_hat) = 0
    lambda_hat (W2):  nu1*(1 - sqrt((lam-gamma)/lambda_hat))
                      + nu2*(1 - sqrt(lam/lambda_hat)) = 0

The stationarity residuals are reported free of the source's units: the
gamma condition is multiplied by ``2*gamma``, so a coded component reports
``1 - 2*gamma*nu1*sqrt(lambda_hat/(lam-gamma))``, and the lambda_hat
condition by ``lambda_hat``.  Scaling the source leaves them unchanged, so
one threshold means the same at every scale; their rounding is relative to
one, not to ``1/(2*gamma)``.

At box corners the ratios are evaluated in their matched-vanishing limit
(``lambda_hat`` and ``lam-gamma`` reaching zero together have ratio one),
``xi`` is set to whatever value closes the condition, and a negative
``xi`` (a genuine violation) is reported through the residual instead.
``lambda_hat = 0`` is stationary only where nothing pulls it toward a
positive value. Perfect-perception solutions carry ``nu2 = +inf`` with
``lambda_hat`` pinned to ``lam``; the pinned condition is defined as zero
residual and the perception equality is checked through complementarity.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import distortion_terms, perception_terms, rate_gaps
from .model import KktResiduals, PerceptionMetric, RdpSolution, SourceSpectrum

__all__ = ["residuals", "solution_residuals"]


def residuals(
    lambdas: np.ndarray, gammas: np.ndarray, gaps: np.ndarray,
    lambda_hats: np.ndarray, nu1: float, nu2: float, metric: PerceptionMetric,
    distortion_budget: float, perception_budget: float,
) -> KktResiduals:
    """Evaluate all first-order conditions at a candidate solution.

    ``gaps`` is ``lam - gamma`` in a form free of cancellation, such as
    :func:`kernels.rate_gaps` of the solution's rates.  A component is
    saturated where its gap is zero.
    """
    lam = np.asarray(lambdas, dtype=float)
    g = np.minimum(gammas, lam)
    gap = np.asarray(gaps, dtype=float)
    h = np.asarray(lambda_hats, dtype=float)
    coded = gap > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        res_g = 1.0 - 2.0 * g * nu1 * np.sqrt(h / gap)
        # a saturated component takes the pull nu1 at matched vanishing
        # (ratio one), none without a distortion multiplier, and an
        # unbounded one toward a positive reconstruction variance
        pull = np.where(h == 0.0, nu1, 0.0 if nu1 == 0.0 else math.inf)
        xi = np.where(coded, 0.0, 0.5 / g - pull)
        res_g = np.where(coded, res_g, np.minimum(2.0 * g * xi, 0.0))
        xi = np.maximum(xi, 0.0)
        if math.isinf(nu2):
            # pinned reconstruction law; the multiplier lives on that constraint
            res_h = np.zeros_like(lam)
        else:
            res_h = nu1 * (1.0 - np.sqrt(gap / h))
            if metric is PerceptionMetric.KL:
                res_h += 0.5 * nu2 * (1.0 / lam - 1.0 / h)
            elif metric is PerceptionMetric.W2:
                res_h += nu2 * (1.0 - np.sqrt(lam / h))
            res_h *= h
            # at lambda_hat = 0 a box multiplier could absorb only a
            # nonnegative pull; the distortion's (on a coded component) and
            # either divergence's pull toward a positive variance is -inf
            pulled = (coded & (nu1 > 0.0)) | (
                nu2 > 0.0 and metric is not PerceptionMetric.UNCONSTRAINED
            )
            res_h = np.where(h > 0.0, res_h, np.where(pulled, -math.inf, 0.0))
    dist_sum = float(distortion_terms(g, gap, h).sum())
    perc_sum = float(perception_terms(lam, h, metric).sum())
    comp_d = nu1 * (dist_sum - distortion_budget) if nu1 != 0.0 else 0.0
    if metric is PerceptionMetric.UNCONSTRAINED:
        comp_p = 0.0 if nu2 == 0.0 else math.inf
    elif math.isinf(nu2):
        comp_p = perc_sum - perception_budget
    elif nu2 != 0.0:
        comp_p = nu2 * (perc_sum - perception_budget)
    else:
        comp_p = 0.0
    return KktResiduals(
        stationarity_gamma=res_g,
        stationarity_lambda_hat=res_h,
        xi=xi,
        complementarity=max(abs(comp_d), abs(comp_p)),
    )


def solution_residuals(
    s: SourceSpectrum,
    sol: RdpSolution,
    metric: PerceptionMetric,
    distortion_budget: float,
    perception_budget: float,
) -> KktResiduals:
    """Evaluate :func:`residuals` on a solution, gaps taken from its rates.

    This is the computation behind ``sol.kkt_residual``, which equals
    ``max_abs()`` of the result for the solution's own query.
    """
    return residuals(
        s.lambdas,
        sol.gammas,
        rate_gaps(s.lambdas, sol.rates),
        sol.lambda_hats,
        sol.dual.nu1,
        sol.dual.nu2,
        metric,
        distortion_budget,
        perception_budget,
    )
