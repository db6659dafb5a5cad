"""Per-component loss terms and closed-form stationary maps.

For one decorrelated component of variance ``lam`` the achievable points are
parametrized by the water level ``gamma`` (MMSE, in ``(0, lam]``) and the
reconstruction variance ``lambda_hat >= 0``:

    distortion  D(gamma, lambda_hat) = lam - 2*sqrt(lambda_hat*(lam-gamma)) + lambda_hat
    KL loss     P(lambda_hat) = 0.5*(lambda_hat/lam - 1 + log(lam/lambda_hat))
    W2 loss     P(lambda_hat) = (sqrt(lam) - sqrt(lambda_hat))**2
    rate        0.5*log(lam/gamma)

Every function here takes whole arrays of components (variances already
validated by ``SourceSpectrum``).  The gap ``lam - gamma`` is an argument
of its own wherever it appears: each solver path has a form of it free of
cancellation, which the subtraction ``lam - gamma`` is not for components
near zero rate.

Given positive multipliers ``(nu1, nu2)`` for the two budgets, the inner
minimization of ``rate + nu1*D + nu2*P`` decouples per component.  The
stationary maps return arrays of water levels, gaps and reconstruction
variances, so that one dual evaluation is one call per map.

KL metric: in units of the variance, with ``cap = 2*nu1*lam`` and
``g = gamma/lam``, the stationarity condition

    nu1*(1 - 2*nu1*gamma) = 0.5*nu2*(4*gamma^2*nu1^2/(lam-gamma) - 1/lam)

scaled by ``2*(lam-gamma)`` is the quadratic

    cap^2*(1 - nu2)*g^2 - (cap + cap^2 + nu2)*g + (cap + nu2) = 0,

with a sign change over ``(0, 1)`` and no pole; then ``theta = cap*g`` and
``lambda_hat = gap/theta^2``.  A variance enters only through ``cap`` (the
KL multiplier ``nu2`` has no units), so the coefficients are of order one
at any scale of the source and no ``nu1^2`` is formed.  The root is taken
in closed form, by the cancellation-free quadratic formula, in the gap
variable ``s = gap/lam = 1 - g`` where the gap is at most ``lam/2``, with
the exact constant term ``-cap^2*nu2``, and in ``g`` itself elsewhere.
An element where neither closed form lands inside ``(0, 1)`` (rounding
at degenerate multipliers) gets a nonfinite ``lambda_hat``.

W2 metric: with ``u = nu1/nu2``, ``cap = 2*nu1*lam`` and
``theta = 2*nu1*gamma``, stationarity is the balance equation

    theta/(1 + (1-theta)*u) = sqrt(1 - theta/cap).

Both sides equal ``rho = sqrt(gap/lam)``, from which
``theta = rho*(1 + u)/(1 + u*rho)``; squaring gives the cubic

    f(rho) = u*rho^3 + rho^2 + ((1 + u*(1-cap))/cap)*rho - 1 = 0.

By Descartes' rule of signs ``f`` has exactly one positive root, and it lies
in ``(0, 1)``: ``f(0) = -1`` and ``f(1) = (1 + u)/cap``.  ``f'' = 6*u*rho + 2``
is positive, so the tangent at any point right of the root meets zero
between the root and that point: Newton started from an upper bound falls
monotonically onto the root, with no bracket.  The outputs
``gap = lam*rho^2``, ``lambda_hat = lam*((1 + u*rho)/(1 + u))^2`` and
``gamma = theta/(2*nu1)`` are then free of cancellation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DualDegenerateError
from .model import PerceptionMetric

__all__ = [
    "distortion_terms",
    "perception_terms",
    "rate_terms",
    "rate_gaps",
    "stationary_pair_kl",
    "stationary_pair_w2",
    "perfect_perception_gamma",
]


def _check_duals(nu1: float, nu2: float) -> None:
    if not nu1 > 0.0 or not nu2 > 0.0:
        raise DualDegenerateError(
            f"stationary maps need strictly positive multipliers, got ({nu1!r}, {nu2!r})"
        )


def distortion_terms(gammas, gaps, lambda_hats):
    """Mean squared error of each component, ``>= 0``.

    ``lam - 2*sqrt(lambda_hat*gap) + lambda_hat`` is evaluated as
    ``gamma + (sqrt(lambda_hat) - sqrt(gap))**2``, a sum of two
    nonnegative terms with none of the expanded form's cancellation at low
    distortion.
    """
    d = np.sqrt(lambda_hats) - np.sqrt(gaps)
    # at a box corner the nonzero term is taken as is, not squared back
    corner = (lambda_hats == 0.0) | (gaps == 0.0)
    return gammas + np.where(corner, lambda_hats + gaps, d * d)


def perception_terms(lam, lambda_hats, metric: PerceptionMetric):
    """Divergence of each component's reconstruction law from its source law.

    KL is ``+inf`` at ``lambda_hat = 0`` (point mass against a density),
    which is what rejects zero-variance reconstructions under any finite
    KL budget.  With ``r = lambda_hat/lam`` and ``x = r - 1`` the term is
    ``(x - log1p(x))/2``, or ``(x - log(r))/2`` where ``r < 1/2``, because
    ``x`` has lost the digits of a small ``r`` there.  Near ``r = 1`` the
    two parts cancel, which leaves a relative accuracy of about eps/|x|.
    With no metric every term is NaN.
    """
    if metric is PerceptionMetric.KL:
        r = lambda_hats / lam
        x = r - 1.0
        with np.errstate(divide="ignore"):
            return 0.5 * np.where(r < 0.5, x - np.log(r), x - np.log1p(x))
    if metric is PerceptionMetric.W2:
        d = np.sqrt(lam) - np.sqrt(lambda_hats)
        return d * d
    return np.full(np.shape(lambda_hats), math.nan)


def rate_terms(lam: np.ndarray, gammas: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Rate ``0.5*log(lam/gamma)`` of each component, in nats.

    Where the gap is at most ``lam/2`` the rate is taken from the gap as
    ``-0.5*log1p(-gap/lam)``, which stays positive and exact to rounding
    for a component whose water level rounds to ``lam``.  Where
    ``lam/gamma`` overflows, a water level below about ``lam`` times
    2^-1024, the rate is ``0.5*(log(lam) - log(gamma))``.
    """
    # no ratio reaches 2^1023 where the largest variance is below the
    # smallest water level times 2^1023
    if float(lam[lam.argmax()]) < float(gammas[gammas.argmin()]) * 2.0**1023:
        rates = 0.5 * np.log(lam / gammas)
    else:
        with np.errstate(over="ignore"):
            ratio = lam / gammas
        rates = np.where(ratio < math.inf, 0.5 * np.log(ratio), 0.5 * (np.log(lam) - np.log(gammas)))
    near = gaps <= 0.5 * lam
    rates[near] = -0.5 * np.log1p(-gaps[near] / lam[near])
    return rates


def rate_gaps(lam: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Each gap ``lam - gamma`` recovered from its rate, exact near zero rate."""
    return -lam * np.expm1(-2.0 * rates)


def _root_inside(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smallest root in ``(0, 1)`` of ``a*x^2 + b*x + c``, ``inf`` if none.

    The roots come from the quadratic formula in the form that avoids
    cancellation; a negative discriminant or an overflow leaves no root.
    Where ``a = 0`` the root ``c/q`` is the linear one and ``q/a`` is none.
    """
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    r1 = q / a
    r2 = c / q
    r1 = np.where((r1 > 0.0) & (r1 < 1.0), r1, np.inf)
    return np.minimum(r1, np.where((r2 > 0.0) & (r2 < 1.0), r2, np.inf))


def stationary_pair_kl(
    lam: np.ndarray, nu1: float, nu2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jointly stationary ``(gamma, gap, lambda_hat)`` of every KL component.

    The gap ``lam - gamma`` is taken from the gap form of the quadratic
    wherever it is at most ``lam/2``, so components pinned near zero rate
    keep an accurate gap and ``lambda_hat`` even when the water level
    itself rounds to ``lam``.  May
    return a nonfinite or zero ``lambda_hat`` when the multipliers are
    degenerate enough to underflow the gap, or to leave neither closed-form
    root inside ``(0, 1)``; the dual value there is not finite, and the
    dual search rejects such multipliers.

    Raises
    ------
    DualDegenerateError
        If either multiplier is not strictly positive.
    """
    _check_duals(nu1, nu2)
    with np.errstate(all="ignore"):
        cap = (2.0 * nu1) * lam
        cap2 = cap * cap
        a = cap2 * (1.0 - nu2)
        b = cap + cap2 + nu2
        # gap form, g = 1 - s: its constant term is the exact product
        # -cap^2 nu2
        s = _root_inside(a, b - 2.0 * a, -cap2 * nu2)
        near = s <= 0.5
        g = np.where(near, 1.0 - s, _root_inside(a, -b, cap + nu2))
        s = np.where(near, s, 1.0 - g)
        gap = lam * s
        theta = cap * g
        lam_hat = gap / (theta * theta)
    return lam * g, gap, lam_hat


def _rho_w2(cap: np.ndarray, p: float, q: float) -> tuple[np.ndarray, int]:
    """Positive root of ``q*rho^3 + p*rho^2 + c1*rho - p`` and its pass count.

    This is the W2 cubic over ``max(1, u)``: ``(p, q)`` is ``(1, u)`` or
    ``(1/u, 1)`` and ``c1 = (p + q*(1 - cap))/cap``.  Newton starts at an
    upper bound within a small factor of the root: the root without the
    cubic term (``c1`` raised to 0) or, for ``q = 1``, a bound on the root
    without the quadratic term, which finds the ``u^(-1/3)`` root of
    ``cap = 1``.  It stops once no element moves down by over ``1e-8`` of
    itself; as ``rho*f''/(2*f') <= 3`` at the root, the step then taken
    leaves an error below ``3e-16``.  Every element descends from within a
    small factor of its root, so the passes are few: at most 5 for ``u`` up
    to the largest double and ``cap`` over ``[1e-12, 1e12]``.
    """
    c1 = (p + q * (1.0 - cap)) / cap
    c = np.maximum(c1, 0.0)
    rho = (2.0 * p) / (c + np.hypot(c, 2.0 * p))
    if q == 1.0:
        rho = np.minimum(rho, np.sqrt(np.maximum(-c1, 0.0) + p ** (2.0 / 3.0)))
    q2, q3, p2 = 2.0 * q, 3.0 * q, 2.0 * p
    passes = 0
    while True:
        passes += 1
        # rho - f/f', its numerator collected into positive terms
        nxt = ((q2 * rho + p) * (rho * rho) + p) / ((q3 * rho + p2) * rho + c1)
        if not np.count_nonzero(nxt < rho * (1.0 - 1e-8)):
            return nxt, passes
        rho = nxt


def stationary_pair_w2(
    lam: np.ndarray, nu1: float, nu2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal (water level, gap, reconstruction variance) of every W2 component.

    Each output is a product or quotient of positive terms in the root
    ``rho`` of the W2 cubic, to a few ulps.  Where the gap is at most
    ``lam/2`` the water level is ``lam - gap``, exact even where ``rho`` is
    too small to carry the digits of ``theta``.  Where ``nu2/nu1``
    underflows to zero the smallest subnormal takes its place, so the
    ratio ``u`` is clamped only above about ``2e323``; the outputs then
    differ only in gaps and reconstruction variances below ``3e-216*lam``.

    Raises
    ------
    DualDegenerateError
        If either multiplier is not strictly positive.
    """
    _check_duals(nu1, nu2)
    p, q = (max(nu2 / nu1, 5e-324), 1.0) if nu1 > nu2 else (1.0, nu1 / nu2)
    rho, _ = _rho_w2((2.0 * nu1) * lam, p, q)
    gap = lam * (rho * rho)
    # (p + q*rho)/(p + q) = (1 + u*rho)/(1 + u)
    w = p + q * rho
    ratio = w / (p + q)
    gamma = np.where(gap <= 0.5 * lam, lam - gap, rho * ((p + q) / (2.0 * nu1)) / w)
    return gamma, gap, lam * (ratio * ratio)


def perfect_perception_gamma(lam, nu1: float):
    """Water level of each component when the reconstruction law is pinned.

    This is the KL/W2-independent perfect-perception solution
    ``2*lam/(1 + sqrt(1 + 16*nu1^2*lam^2))``, in ``(0, lam)`` for any
    positive ``nu1``; ``lam`` is a variance or an array of them.
    """
    if not nu1 > 0.0:
        raise DualDegenerateError(f"nu1 must be positive, got {nu1!r}")
    return 2.0 * lam / (1.0 + np.hypot(1.0, 4.0 * nu1 * lam))
