"""Statistical verification of the achieving joint Gaussian pairs.

For each component the optimal reconstruction is jointly Gaussian with the
source coordinate, with cross-covariance sqrt(lambda_hat*(lam-gamma)).
This module builds that 2x2 law, samples its squared-error distortion
reproducibly, and compares it with the closed form.  Only the distortion
is sampled: perception divergences follow analytically from the
construction, and estimating them from samples would introduce estimator
bias with no bearing on what is being verified.

With the law factored in closed form, z - z_hat = (l11 - l21)*n0 - l22*n1
is N(0, s2), so the mean of ``n`` squared differences is s2 times a
chi-square variate with ``n`` degrees of freedom, over ``n``: one draw
samples it with exactly the law of ``n`` sampled pairs, at a cost that does
not grow with ``n``.

Every component of a solution is sampled in one array pass: s2, the
analytic distortion and the standard error are formed for all components
at once, and one numpy ``Generator`` over the SFC64 bit generator, seeded
by (seed modulo 2**64, 0), draws the chi-square variates of all
components in one call, component ``i`` taking the ``i``-th.  So the same
seed, ``n`` and numpy version draw the same values, and component ``i``
depends only on (seed, ``i``, ``n``): the first ``k`` components of a run
draw as a ``k``-component run would.  :func:`sample_and_measure` is the
same pass over one component, so it draws as component 0 of any run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPsdError
from .kernels import distortion_terms, perception_terms
from .model import PerceptionMetric, RdpSolution, SourceSpectrum

__all__ = [
    "JointGaussianPair",
    "SampleReport",
    "build_pair",
    "sample_and_measure",
    "verify_solution",
]

_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class JointGaussianPair:
    """2x2 covariance of one source coordinate and its reconstruction.

    ``cov`` is [[lam, c], [c, lambda_hat]] with the cross term
    c = sqrt(lambda_hat*(lam-gamma)); the generating triple is kept
    alongside so downstream statistics need not refit it from the matrix.
    """

    cov: np.ndarray
    lam: float
    gamma: float
    lambda_hat: float


@dataclass(frozen=True)
class SampleReport:
    """Empirical-vs-analytic summary of one component's sampling run;
    ``threshold`` is the largest gap, in standard errors, that passes."""

    n_samples: int
    empirical_distortion: float
    analytic_distortion: float
    standard_error: float
    seed: int
    threshold: float = 4.0

    @property
    def within_threshold(self) -> bool:
        """Whether the sample lies within ``threshold`` standard errors."""
        gap = abs(self.empirical_distortion - self.analytic_distortion)
        return gap <= self.threshold * self.standard_error


def _family_threshold(count: int) -> float:
    """Standard errors each of ``count`` components may miss by: 4 up to 48
    components, and beyond, the Sidak value that holds the chance of any
    miss in the run at its 48-component value, 0.003036 (Sidak, JASA 62,
    1967): 4.809 at 2,000 components and 4.989 at 5,000."""
    if count <= 48:
        return 4.0
    from statistics import NormalDist  # only runs of over 48 components need it

    miss_48 = -math.expm1(48 * math.log1p(-math.erfc(4.0 / math.sqrt(2.0))))
    p = -math.expm1(math.log1p(-miss_48) / count)
    return -NormalDist().inv_cdf(0.5 * p)


def build_pair(lam: float, gamma: float, lambda_hat: float) -> JointGaussianPair:
    """Joint source/reconstruction covariance for one component.

    The conditional variance of the source coordinate given the
    reconstruction equals ``gamma`` whenever ``lambda_hat > 0``, which is
    what makes ``gamma`` the per-component mean-squared error of optimal
    estimation.

    Raises
    ------
    DomainError
        Unless ``0 < gamma <= lam`` and ``lambda_hat >= 0``.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError(f"lam must be positive and finite, got {lam!r}")
    if not 0.0 < gamma <= lam:
        raise DomainError(f"gamma must lie in (0, {lam}], got {gamma!r}")
    if not (lambda_hat >= 0.0 and math.isfinite(lambda_hat)):
        raise DomainError(f"lambda_hat must be nonnegative, got {lambda_hat!r}")
    c = math.sqrt(lambda_hat * (lam - gamma))
    cov = np.array([[lam, c], [c, lambda_hat]])
    cov.flags.writeable = False
    return JointGaussianPair(cov=cov, lam=lam, gamma=gamma, lambda_hat=lambda_hat)


def _difference_variance(lam, gamma, lambda_hat):
    """Variance of ``z - z_hat = (l11 - l21)*n0 - l22*n1`` for each
    component, from the closed-form 2x2 Cholesky factor of its pair.

    ``l11 - l21`` is formed as ``(sqrt(lam) - sqrt(lambda_hat)) +
    sqrt(lambda_hat) * gamma / (lam + sqrt(lam) * sqrt(lam - gamma))``,
    which keeps the digits of ``gamma`` where ``l21`` rounds to ``l11``.

    Raises
    ------
    NotPsdError
        If a radicand of the factor is negative.
    """
    gap = lam - gamma
    # l22^2 is the Schur complement lambda_hat*gamma/lam; for any pair
    # build_pair accepts, it and the other radicands are nonnegative floats
    # or their products, so a negative one is an inconsistent pair, not
    # rounding
    rad22 = lambda_hat * gamma / lam
    bad = np.flatnonzero((lambda_hat < 0.0) | (gap < 0.0) | (rad22 < 0.0))
    if bad.size:
        i = bad[0]
        raise NotPsdError(
            "pair covariance is not factorable: "
            f"lam {lam[i]}, gamma {gamma[i]}, lambda_hat {lambda_hat[i]}"
        )
    root_lam, root_hat, l22 = np.sqrt(lam), np.sqrt(lambda_hat), np.sqrt(rad22)
    coef = (root_lam - root_hat) + root_hat * gamma / (lam + root_lam * np.sqrt(gap))
    return coef * coef + l22 * l22


def _sample(lam, gamma, lambda_hat, n: int, seed: int) -> list[SampleReport]:
    """Sample and compare every component in one pass: component ``i``
    takes the ``i``-th variate of the seed's generator, and every report
    carries the family threshold for the component count.

    Raises
    ------
    DomainError
        If ``n < 1000`` or a ``lambda_hat`` is not finite.
    NotPsdError
        If a radicand of a closed-form factor is negative.
    """
    if n < 1000:
        raise DomainError(f"need at least 1000 samples, got {n}")
    if not np.all(lambda_hat < math.inf):
        raise DomainError("every lambda_hat must be finite")
    s2 = _difference_variance(lam, gamma, lambda_hat)
    # numpy.random is imported on first use, not with the package
    rng = np.random.Generator(np.random.SFC64([seed & _MASK, 0]))
    # the sum of n values of (z - z_hat)^2 is s2 times a chi-square variate
    mean_d = s2 * rng.chisquare(n, size=lam.size) / n
    analytic = distortion_terms(gamma, lam - gamma, lambda_hat)
    se = mean_d * math.sqrt(2.0 / n)
    threshold = _family_threshold(lam.size)
    return [
        SampleReport(n, m, a, e, seed, threshold)
        for m, a, e in zip(mean_d.tolist(), analytic.tolist(), se.tolist())
    ]


def sample_and_measure(pair: JointGaussianPair, n: int, seed: int) -> SampleReport:
    """Sample the mean distortion of ``n`` joint draws and compare it.

    The standard error is the mean times sqrt(2/n), from the Gaussian
    fourth moment.  Requires ``n >= 1000`` so that it means something.

    Raises
    ------
    DomainError
        If ``n < 1000``.
    NotPsdError
        If the closed-form factorization meets a negative radicand.
    """
    lam, gamma, lambda_hat = np.array([[pair.lam], [pair.gamma], [pair.lambda_hat]])
    return _sample(lam, gamma, lambda_hat, n, seed)[0]


def verify_solution(
    s: SourceSpectrum, sol: RdpSolution, n: int, seed: int, metric: PerceptionMetric
) -> list[SampleReport]:
    """Sample every component of a solution and cross-check the totals.

    All components are drawn from the seed's one generator, and every
    report carries the family-wise threshold for the component count.  The
    summed analytic distortions are required to reproduce the solution's
    achieved distortion to 1e-10 of itself; under the KL or W2 metric that
    produced the solution, the summed analytic perceptions must reproduce
    its achieved perception likewise.

    Raises
    ------
    DomainError
        If ``n < 1000``, a ``lambda_hat`` is not finite, or an analytic
        total fails to match the solution's record.
    NotPsdError
        If a radicand of a closed-form factor is negative.
    """
    lam = s.lambdas
    reports = _sample(lam, np.minimum(sol.gammas, lam), sol.lambda_hats, n, seed)
    analytic_total = sum(r.analytic_distortion for r in reports)
    if abs(analytic_total - sol.achieved_distortion) > 1e-10 * sol.achieved_distortion:
        raise DomainError(
            "analytic distortion total does not reproduce the solution: "
            f"{analytic_total!r} vs {sol.achieved_distortion!r}"
        )
    if metric is not PerceptionMetric.UNCONSTRAINED and math.isfinite(
        sol.achieved_perception
    ):
        perception_total = float(perception_terms(lam, sol.lambda_hats, metric).sum())
        if abs(perception_total - sol.achieved_perception) > 1e-10 * sol.achieved_perception:
            raise DomainError(
                "analytic perception total does not reproduce the solution: "
                f"{perception_total!r} vs {sol.achieved_perception!r}"
            )
    return reports
