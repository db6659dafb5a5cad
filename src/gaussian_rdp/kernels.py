"""Per-component loss kernels and closed-form stationary maps.

For one decorrelated component of variance ``lam`` the achievable points are
parametrized by the water level ``gamma`` (MMSE, in ``(0, lam]``) and the
reconstruction variance ``lambda_hat >= 0``:

    distortion  D(gamma, lambda_hat) = lam - 2*sqrt(lambda_hat*(lam-gamma)) + lambda_hat
    KL loss     P(lambda_hat) = 0.5*(lambda_hat/lam - 1 + log(lam/lambda_hat))
    W2 loss     P(lambda_hat) = (sqrt(lam) - sqrt(lambda_hat))**2
    rate        0.5*log(lam/gamma)

Given positive multipliers ``(nu1, nu2)`` for the two budgets, the inner
minimization of ``rate + nu1*D + nu2*P`` decouples per component.  The
stationary maps here take the whole vector of component variances (already
validated by ``SourceSpectrum``) and return arrays of water levels and
reconstruction variances, so that one dual evaluation is one call per map.

KL metric: ``gamma`` is the unique root in ``(0, lam)`` of

    nu1*(1 - 2*nu1*g) = 0.5*nu2*(4*g^2*nu1^2/(lam-g) - 1/lam)

after which ``lambda_hat = (lam-g)/(4*g^2*nu1^2)``.  Scaled by ``(lam-g)``
the equation is a quadratic with a sign change over ``(0, lam)`` and no
pole.  Its root is taken in closed form, by the cancellation-free quadratic
formula, in the gap variable ``lam - g`` where the gap is at most ``lam/2``
and in ``g`` itself elsewhere; the ``g`` root is then Newton-polished.
Elements where neither closed form lands inside ``(0, lam)`` are bisected.

W2 metric: with ``theta = sqrt((lam-g)/lambda_hat)``, ``theta`` is the
unique root of

    theta/(1 + (1-theta)*nu1/nu2) = sqrt(1 - theta/(2*nu1*lam))

whose left side increases and right side decreases over the bracket
``(0, min(1, 2*nu1*lam))``; then ``gamma = theta/(2*nu1)`` and
``lambda_hat = lam/(1 + (1-theta)*nu1/nu2)^2``.  The difference of the two
sides is convex and increasing, so a Newton iteration started to the right
of the root falls onto it; it runs on the whole array at once, with
per-element brackets and a bisection step for any element whose Newton step
leaves its bracket.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, DualDegenerateError
from .rootfind import bisect_root

__all__ = [
    "distortion_component",
    "perception_component_kl",
    "perception_component_w2",
    "stationary_pair_kl",
    "stationary_pair_w2",
    "perfect_perception_gamma",
]

# relative Newton step at which a W2 element counts as converged; the next
# step would be far below rounding
_THETA_RTOL = 1e-14
_THETA_MAX_ITER = 100
_KL_POLISH_STEPS = 3


def _check_lambda(lam: float) -> None:
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError(f"component variance must be positive and finite, got {lam!r}")


def _check_duals(nu1: float, nu2: float) -> None:
    if not nu1 > 0.0 or not nu2 > 0.0:
        raise DualDegenerateError(
            f"stationary maps need strictly positive multipliers, got ({nu1!r}, {nu2!r})"
        )


def distortion_component(lam: float, gamma: float, lambda_hat: float) -> float:
    """Mean squared error of one component, ``>= 0`` for all valid inputs."""
    _check_lambda(lam)
    if not 0.0 < gamma <= lam:
        raise DomainError(f"gamma must lie in (0, {lam}], got {gamma!r}")
    if lambda_hat < 0.0 or math.isnan(lambda_hat):
        raise DomainError(f"lambda_hat must be nonnegative, got {lambda_hat!r}")
    return lam - 2.0 * math.sqrt(lambda_hat * max(lam - gamma, 0.0)) + lambda_hat


def perception_component_kl(lam: float, lambda_hat: float) -> float:
    """KL divergence of the reconstruction law from the source law.

    Returns ``+inf`` at ``lambda_hat = 0`` (point mass against a density),
    which is what lets the solver reject zero-variance reconstructions
    under any finite KL budget.  The ``x - log1p(x)`` form, with
    ``x = lambda_hat/lam - 1``, keeps relative precision for divergences
    far below one.
    """
    _check_lambda(lam)
    if lambda_hat < 0.0 or math.isnan(lambda_hat):
        raise DomainError(f"lambda_hat must be nonnegative, got {lambda_hat!r}")
    if lambda_hat == 0.0:
        return math.inf
    x = lambda_hat / lam - 1.0
    return 0.5 * (x - math.log1p(x))


def perception_component_w2(lam: float, lambda_hat: float) -> float:
    """Squared Wasserstein-2 distance between the two component laws."""
    _check_lambda(lam)
    if lambda_hat < 0.0 or math.isnan(lambda_hat):
        raise DomainError(f"lambda_hat must be nonnegative, got {lambda_hat!r}")
    d = math.sqrt(lam) - math.sqrt(lambda_hat)
    return d * d


def _root_inside(a: float, b: np.ndarray, c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Smallest root in ``(0, lam)`` of ``a*x^2 + b*x + c``, ``inf`` if none.

    The roots come from the quadratic formula in the form that avoids
    cancellation; a negative discriminant or an overflow leaves no root.
    """
    if a == 0.0:
        r = -c / b
        return np.where((r > 0.0) & (r < lam), r, np.inf)
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    r1 = q / a
    r2 = c / q
    r1 = np.where((r1 > 0.0) & (r1 < lam), r1, np.inf)
    return np.minimum(r1, np.where((r2 > 0.0) & (r2 < lam), r2, np.inf))


def stationary_pair_kl(
    lam: np.ndarray, nu1: float, nu2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly stationary ``(gamma, lambda_hat)`` of every KL component.

    The reconstruction variance is built from the gap ``lam - gamma``,
    taken from the gap form of the quadratic wherever the gap is at most
    ``lam/2``, so components pinned near zero rate keep an accurate
    ``lambda_hat`` even when the water level itself rounds to ``lam``.  May
    return a nonfinite or zero ``lambda_hat`` when the multipliers are
    degenerate enough to underflow the gap; callers should treat that as a
    zero-rate boundary evaluation.

    Raises
    ------
    DualDegenerateError
        If either multiplier is not strictly positive.
    """
    _check_duals(nu1, nu2)
    a = 2.0 * nu1 * nu1 * (1.0 - nu2)
    with np.errstate(all="ignore"):
        b = -(nu1 + 2.0 * nu1 * nu1 * lam + 0.5 * nu2 / lam)
        # gap quadratic: shift g = lam - x; its constant term is the exact
        # product -2 nu1^2 lam^2 nu2
        gap = _root_inside(a, -(2.0 * a * lam + b), -2.0 * nu1 * nu1 * nu2 * lam * lam, lam)
        gamma = lam - gap
        far = ~(gap <= 0.5 * lam)
        if far.any():
            l, bf = lam[far], b[far]
            c = nu1 * l + 0.5 * nu2
            g = _root_inside(a, bf, c, l)
            for i in np.flatnonzero(np.isinf(g)):
                # h(0) = c > 0 and h(lam) = -2 nu1^2 lam^2 nu2 < 0
                li, bi, ci = float(l[i]), float(bf[i]), float(c[i])
                g[i] = bisect_root(
                    lambda x: (a * x + bi) * x + ci, 0.0, li,
                    f_lo=ci, f_hi=-2.0 * nu1 * nu1 * li * li * nu2,
                )
            h = (a * g + bf) * g + c
            for _ in range(_KL_POLISH_STEPS):
                cand = g - h / (2.0 * a * g + bf)
                h_cand = (a * cand + bf) * cand + c
                take = (cand > 0.0) & (cand < l) & (np.abs(h_cand) <= np.abs(h))
                if not take.any():
                    break
                g = np.where(take, cand, g)
                h = np.where(take, h_cand, h)
            gamma[far] = g
            gap[far] = l - g
        lam_hat = gap / (4.0 * gamma * gamma * (nu1 * nu1))
    return gamma, lam_hat


def _theta_w2(cap: np.ndarray, u: float) -> np.ndarray:
    """Root of the W2 balance equation for every ``cap = 2*nu1*lam``.

    Where ``cap < 1`` the root is pinned between ``cap*(1 - y^2)`` for
    ``y`` the left side at ``cap``, and ``cap*(1 - y0^2)`` for ``y0`` the
    left side at that lower bound; elsewhere the bracket is ``(0, 1]``.
    The iteration starts at the upper end, where the slope is finite, and a
    converged element's tiny step is taken even when it touches a bracket
    end, so that it is not bisected away from its root.
    """
    up = 1.0 + u
    small = cap < 1.0
    y = cap / (1.0 + (1.0 - cap) * u)
    lo = np.where(small, cap * (1.0 - y * y), 0.0)
    y0 = lo / (1.0 + (1.0 - lo) * u)
    hi = np.where(small, cap * (1.0 - y0 * y0), 1.0)
    # a start on t = cap would meet the infinite slope of the square root
    t = np.where(hi < cap, hi, 0.5 * (lo + hi))
    for _ in range(_THETA_MAX_ITER):
        den = 1.0 + (1.0 - t) * u
        r = np.sqrt(np.maximum(1.0 - t / cap, 0.0))
        g = t / den - r
        step = g / (up / (den * den) + 0.5 / (cap * r))
        nxt = t - step
        done = np.abs(step) <= _THETA_RTOL * t
        if done.all():
            return nxt
        left = g < 0.0
        lo = np.where(left, t, lo)
        hi = np.where(left, hi, t)
        t = np.where(done | ((lo < nxt) & (nxt < hi)), nxt, 0.5 * (lo + hi))
    raise ConvergenceError(
        "W2 balance iteration budget exhausted", max_iter=_THETA_MAX_ITER
    )


def stationary_pair_w2(
    lam: np.ndarray, nu1: float, nu2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal (water level, reconstruction variance) of every W2 component.

    ``theta`` is iterated until its Newton step falls below ``1e-14`` of it.

    Raises
    ------
    DualDegenerateError
        If either multiplier is not strictly positive.
    ConvergenceError
        If the balance iteration does not settle (not seen in practice).
    """
    _check_duals(nu1, nu2)
    # a ratio that overflows is replaced by the largest double, whose root
    # is the same to machine precision and keeps the iteration free of inf*0
    u = min(nu1 / nu2, sys.float_info.max)
    with np.errstate(all="ignore"):
        theta = _theta_w2(2.0 * nu1 * lam, u)
        den = 1.0 + (1.0 - theta) * u
        return theta / (2.0 * nu1), lam / (den * den)


def perfect_perception_gamma(lam, nu1: float):
    """Water level of each component when the reconstruction law is pinned.

    This is the KL/W2-independent perfect-perception solution
    ``2*lam/(1 + sqrt(1 + 16*nu1^2*lam^2))``, in ``(0, lam)`` for any
    positive ``nu1``; ``lam`` is a variance or an array of them.
    """
    if not nu1 > 0.0:
        raise DualDegenerateError(f"nu1 must be positive, got {nu1!r}")
    return 2.0 * lam / (1.0 + np.hypot(1.0, 4.0 * nu1 * lam))
