"""Full tradeoff evaluation: case detection and two-multiplier dual search.

A query (D, P, metric) lands in one of three regimes, checked in order:

1. Zero-rate feasible: some reconstruction with rate 0 already meets both
   budgets, so the answer is rate 0 with ``gamma = lambda`` and the
   minimum-distortion zero-rate reconstruction as the canonical witness.
2. Perception inactive: the classical reverse water-filling solution's
   induced perception sits within the budget, so the unconstrained solution
   stands as-is. Under a finite divergence budget this check fails whenever
   the water-filling solution collapses a component (its divergence is
   infinite), which forces the next regime.
3. Both constraints active: a pair of positive multipliers (nu1, nu2) is
   sought so that the per-component stationary allocations meet both budgets
   with equality. The concave Lagrange dual is maximized by projected
   gradient ascent (the gradient is the pair of constraint slacks) with a
   backtracking line search, accelerated by damped Newton steps on the
   two-by-two slack system once they make progress.

A perception budget of exactly zero pins every reconstruction variance to
its source variance, sending nu2 to infinity; that regime is handled by a
dedicated fast path that runs a bracketed Newton iteration on the log of
the single remaining multiplier.

Every dual evaluation works on the whole spectrum at once: one call to the
array-valued stationary map of the metric, then array sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classic_rd import reverse_waterfill
from .errors import ConvergenceError, DomainError, LineSearchError, OutOfRangeError
from .kernels import perfect_perception_gamma, stationary_pair_kl, stationary_pair_w2
from .kkt import residuals as kkt_residuals
from .model import (
    ComponentAllocation,
    DualPoint,
    PerceptionMetric,
    RdpSolution,
    SolutionCase,
    SourceSpectrum,
    TradeoffQuery,
    zero_rate_reconstruction,
)

__all__ = [
    "SolverConfig",
    "solve",
    "solve_perfect_perception",
    "high_distortion_p0_estimate",
    "low_distortion_p0_estimate",
]

# multipliers are projected onto [DUAL_FLOOR, inf) so the stationary maps
# stay defined throughout the ascent
DUAL_FLOOR = 1e-300

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_MAX_NEWTON_BACKTRACKS = 25
_P0_MAX_ITER = 200


@dataclass(frozen=True)
class SolverConfig:
    """Convergence knobs for the dual search.

    ``distortion_tol`` is relative to the total source variance;
    ``perception_tol`` is relative to the perception budget ``P`` itself,
    so a small budget is met to the same number of digits as a large one.
    """

    distortion_tol: float = 1e-9
    perception_tol: float = 1e-9
    max_dual_iterations: int = 500
    dual_step_init: float = 1.0

    def __post_init__(self) -> None:
        if not (self.distortion_tol > 0.0 and self.perception_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_dual_iterations < 1:
            raise DomainError("iteration budget must be at least 1")
        if not self.dual_step_init > 0.0:
            raise DomainError("initial dual step must be positive")


def _perception_sum(lam: np.ndarray, hats: np.ndarray, metric: PerceptionMetric) -> float:
    if metric is PerceptionMetric.KL:
        if not hats.all():
            # a collapsed component: point mass against a density
            return math.inf
        # x - log1p(x) keeps relative precision for tiny divergences
        x = hats / lam - 1.0
        return float(0.5 * (x - np.log1p(x)).sum())
    if metric is PerceptionMetric.W2:
        d = np.sqrt(lam) - np.sqrt(hats)
        return float((d * d).sum())
    return math.nan


def _distortion_sum(lam: np.ndarray, gammas: np.ndarray, hats: np.ndarray) -> float:
    return float((lam - 2.0 * np.sqrt(hats * np.maximum(lam - gammas, 0.0)) + hats).sum())


def _assemble(
    s: SourceSpectrum,
    gammas: np.ndarray,
    hats: np.ndarray,
    nu1: float,
    nu2: float,
    metric: PerceptionMetric,
    D: float,
    P: float,
    case: SolutionCase,
) -> RdpSolution:
    lam = s.lambdas
    rates = 0.5 * np.log(lam / np.minimum(gammas, lam))
    resid = kkt_residuals(lam, gammas, hats, nu1, nu2, metric, D, P).max_abs()
    return RdpSolution(
        total_rate=float(rates.sum()),
        allocations=_allocations(gammas, hats, rates),
        dual=DualPoint(nu1=nu1, nu2=nu2),
        case_tag=case,
        kkt_residual=resid,
        achieved_distortion=_distortion_sum(lam, gammas, hats),
        achieved_perception=_perception_sum(lam, hats, metric),
    )


def _allocations(
    gammas: np.ndarray, hats: np.ndarray, rates: np.ndarray
) -> tuple[ComponentAllocation, ...]:
    return tuple(
        ComponentAllocation(gamma=g, lambda_hat=h, rate=r)
        for g, h, r in zip(gammas.tolist(), hats.tolist(), rates.tolist())
    )


class _DualState:
    """Inner minimization at one multiplier pair: value, slacks, argmin."""

    __slots__ = ("value", "slack_d", "slack_p", "gammas", "hats")

    def __init__(self, value, slack_d, slack_p, gammas, hats):
        self.value = value
        self.slack_d = slack_d
        self.slack_p = slack_p
        self.gammas = gammas
        self.hats = hats


def _evaluate_dual(
    lam: np.ndarray, nu1: float, nu2: float, metric: PerceptionMetric,
    D: float, P: float,
) -> _DualState:
    if metric is PerceptionMetric.KL:
        gammas, hats = stationary_pair_kl(lam, nu1, nu2)
        bad = ~((hats > 0.0) & (hats < math.inf))
        if bad.any():
            # multipliers degenerate enough to underflow the interior
            # point; evaluate on the zero-rate boundary instead so the
            # dual value stays finite
            gammas[bad] = lam[bad]
            hats[bad] = lam[bad] * nu2 / (nu2 + 2.0 * nu1 * lam[bad])
    else:
        gammas, hats = stationary_pair_w2(lam, nu1, nu2)
    rate = 0.5 * float(np.log(lam / gammas).sum())
    dist = _distortion_sum(lam, gammas, hats)
    perc = _perception_sum(lam, hats, metric)
    value = rate + nu1 * (dist - D) + nu2 * (perc - P)
    return _DualState(value, dist - D, perc - P, gammas, hats)


def _try_newton(
    lam: np.ndarray, nu: np.ndarray, state: _DualState,
    metric: PerceptionMetric, D: float, P: float,
    tol_d: float, tol_p: float,
):
    """One damped Newton step on the slack system; None if not accepted."""
    f = np.array([state.slack_d, state.slack_p])
    jac = np.empty((2, 2))
    for i in range(2):
        # the absolute floor keeps the secant window above the noise of the
        # inner root finders when a multiplier is driven toward zero
        h = 1e-7 * nu[i] + 1e-13
        pert = nu.copy()
        pert[i] += h
        st = _evaluate_dual(lam, pert[0], pert[1], metric, D, P)
        jac[0, i] = (st.slack_d - f[0]) / h
        jac[1, i] = (st.slack_p - f[1]) / h
    if not np.all(np.isfinite(jac)):
        return None
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    scale = float(np.max(np.abs(jac)))
    if not math.isfinite(det) or abs(det) <= 1e-30 * max(scale, 1e-300) ** 2:
        return None
    delta = np.array(
        [
            (-f[0] * jac[1, 1] + f[1] * jac[0, 1]) / det,
            (-f[1] * jac[0, 0] + f[0] * jac[1, 0]) / det,
        ]
    )
    phi = max(abs(state.slack_d) / tol_d, abs(state.slack_p) / tol_p)
    t = 1.0
    for _ in range(_MAX_NEWTON_BACKTRACKS):
        cand = nu + t * delta
        if np.all(cand > 0.0):
            st = _evaluate_dual(lam, cand[0], cand[1], metric, D, P)
            cand_phi = max(abs(st.slack_d) / tol_d, abs(st.slack_p) / tol_p)
            if cand_phi < 0.9 * phi:
                return cand, st
        t *= 0.5
    return None


def _dual_search(
    s: SourceSpectrum, metric: PerceptionMetric, D: float, P: float,
    cfg: SolverConfig,
) -> RdpSolution:
    lam = s.lambdas
    tol_d = cfg.distortion_tol * s.total_variance
    tol_p = cfg.perception_tol * P
    # nu1 carries units of 1/distortion, and so does nu2 under W2, whose
    # budget is a squared distance; the KL budget is dimensionless
    nu1 = lam.size / (2.0 * D)
    nu = np.array([nu1, nu1 if metric is PerceptionMetric.W2 else 1.0])
    state = _evaluate_dual(lam, nu[0], nu[1], metric, D, P)
    step = cfg.dual_step_init
    for iteration in range(cfg.max_dual_iterations):
        if abs(state.slack_d) <= tol_d and abs(state.slack_p) <= tol_p:
            break
        newton = _try_newton(lam, nu, state, metric, D, P, tol_d, tol_p)
        if newton is not None:
            nu, state = newton
            continue
        direction = np.array([state.slack_d, state.slack_p])
        # box-limit each coordinate to one decade of movement per step so a
        # single large slack cannot catapult a multiplier onto the floor
        lower = np.maximum(0.1 * nu, DUAL_FLOOR)
        upper = 10.0 * nu + 1.0
        t = step
        for _ in range(_MAX_BACKTRACKS):
            cand = np.clip(nu + t * direction, lower, upper)
            trial = _evaluate_dual(lam, cand[0], cand[1], metric, D, P)
            gain = float(direction @ (cand - nu))
            if trial.value >= state.value + _ARMIJO_C * gain and gain > 0.0:
                nu, state = cand, trial
                step = t * 2.0
                break
            t *= 0.5
        else:
            raise LineSearchError(
                "dual ascent stalled before meeting the budget equations",
                iterations=iteration,
                nu1=float(nu[0]),
                nu2=float(nu[1]),
                slack_distortion=float(state.slack_d),
                slack_perception=float(state.slack_p),
            )
    else:
        if not (abs(state.slack_d) <= tol_d and abs(state.slack_p) <= tol_p):
            raise ConvergenceError(
                "dual search exhausted its iteration budget",
                iterations=cfg.max_dual_iterations,
                nu1=float(nu[0]),
                nu2=float(nu[1]),
                slack_distortion=float(state.slack_d),
                slack_perception=float(state.slack_p),
            )
    assert np.all(state.gammas < lam), "active case must keep every rate positive"
    return _assemble(
        s, state.gammas, state.hats, float(nu[0]), float(nu[1]),
        metric, D, P, SolutionCase.BOTH_ACTIVE,
    )


def _zero_rate_solution(
    s: SourceSpectrum, metric: PerceptionMetric, D: float, P: float
) -> RdpSolution:
    hats, _ = zero_rate_reconstruction(s, metric, P)
    # the rate objective is flat at zero here, so zero multipliers certify
    # optimality; an exactly-zero perception budget keeps the pinned-variance
    # convention nu2 = +inf instead
    nu2 = math.inf if P == 0.0 else 0.0
    return _assemble(
        s, s.lambdas.copy(), hats, 0.0, nu2, metric, D, P,
        SolutionCase.DISTORTION_INACTIVE,
    )


def _waterfill_with_metric(
    s: SourceSpectrum, metric: PerceptionMetric, D: float, P: float,
    rd_solution: RdpSolution,
) -> RdpSolution:
    return _assemble(
        s, rd_solution.gammas, rd_solution.lambda_hats,
        rd_solution.dual.nu1, 0.0, metric, D, P, SolutionCase.DISTORTION_ONLY,
    )


def solve(
    s: SourceSpectrum, q: TradeoffQuery, cfg: SolverConfig | None = None
) -> RdpSolution:
    """Minimal coding rate under a distortion and a perception budget.

    Regimes are detected in the order zero-rate feasible, perception
    inactive, both active; see the module docstring. A perception budget of
    exactly zero is routed to :func:`solve_perfect_perception`.

    Raises
    ------
    ConvergenceError
        If the two-multiplier search stalls or exhausts its budget.
    """
    if cfg is None:
        cfg = SolverConfig()
    metric = q.metric
    D = q.distortion_budget
    P = q.perception_budget

    hats0, dist0 = zero_rate_reconstruction(s, metric, P)
    if D >= dist0:
        return _zero_rate_solution(s, metric, D, P)

    rd = reverse_waterfill(s, D)
    if metric is PerceptionMetric.UNCONSTRAINED:
        return rd
    induced = _perception_sum(s.lambdas, rd.lambda_hats, metric)
    if induced <= P:
        return _waterfill_with_metric(s, metric, D, P, rd)

    if P == 0.0:
        return _perfect_perception_interior(s, D, cfg)
    return _dual_search(s, metric, D, P, cfg)


def _perfect_perception_interior(
    s: SourceSpectrum, D: float, cfg: SolverConfig
) -> RdpSolution:
    """Solve the single multiplier of the pinned-variance problem.

    With ``z = 4*nu1*lam`` and ``h = hypot(1, z)`` a component's distortion
    is ``2*lam*(1 + 1/(h+z))/(1+h)`` and its shortfall from the ceiling
    ``2*lam`` is ``c = 2*lam*z/(1+h)``, both free of cancellation; in
    ``x = log(nu1)`` the distortion has slope ``-sum(c/h)``.  Newton runs on
    ``log(distortion/D)`` when ``D`` is at most the total variance and on
    ``log(shortfall_D/shortfall)`` above it: the first is concave and the
    second convex in ``x``, and each starts on the side of the root from
    which Newton's steps do not overshoot.  A bisection step inside the
    sign bracket replaces any step that leaves it.
    """
    lam = s.lambdas
    two_lam = 2.0 * lam
    total = s.total_variance

    def distortion(z: np.ndarray, h: np.ndarray) -> float:
        return float((two_lam * (1.0 + 1.0 / (h + z)) / (1.0 + h)).sum())

    low = D <= total
    if low:
        # the distortion is at most L/(2 nu1), so this start lies right of
        # the root
        x = math.log(lam.size / (2.0 * D))
    else:
        # the shortfall is at most 4 nu1 sum(lam^2): a start left of the root
        short_d = 2.0 * total - D
        x = math.log(short_d / (4.0 * float((lam * lam).sum())))
    lo, hi = -math.inf, math.inf
    for _ in range(_P0_MAX_ITER):
        z = (4.0 * math.exp(x)) * lam
        h = np.hypot(1.0, z)
        c = two_lam * z / (1.0 + h)
        slope = float((c / h).sum())
        if low:
            dist = distortion(z, h)
            f = math.log(dist / D)
            step = f * dist / slope
        else:
            short = float(c.sum())
            f = math.log(short_d / short)
            step = f * short / slope
        # f falls as x grows
        if f > 0.0:
            lo = x
        elif f < 0.0:
            hi = x
        else:
            break
        nxt = x + step
        tol = 1e-14 * max(1.0, abs(x))
        if abs(step) <= tol:
            x = nxt
            break
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if hi - lo <= tol:
                x = nxt
                break
        x = nxt
    else:
        raise ConvergenceError(
            "perfect-perception multiplier iteration budget exhausted",
            iterations=_P0_MAX_ITER, nu1=math.exp(x),
        )
    nu1 = math.exp(x)
    z = (4.0 * nu1) * lam
    h = np.hypot(1.0, z)
    gammas = perfect_perception_gamma(lam, nu1)
    # log1p form of (1/2) log((1+h)/2) survives rates far below 1e-16
    rates = 0.5 * np.log1p(z * z / (2.0 * (1.0 + h)))
    achieved = distortion(z, h)
    resid = kkt_residuals(
        lam, gammas, lam.copy(), nu1, math.inf, PerceptionMetric.W2, D, 0.0
    ).max_abs()
    return RdpSolution(
        total_rate=float(rates.sum()),
        allocations=_allocations(gammas, lam, rates),
        dual=DualPoint(nu1=nu1, nu2=math.inf),
        case_tag=SolutionCase.BOTH_ACTIVE,
        kkt_residual=resid,
        achieved_distortion=achieved,
        achieved_perception=0.0,
    )


def solve_perfect_perception(
    s: SourceSpectrum, D: float, cfg: SolverConfig | None = None
) -> RdpSolution:
    """Rate under a perception budget of exactly zero.

    Every reconstruction variance is pinned to its source variance, leaving
    a single multiplier found by a Newton iteration on the distortion
    equation. For ``D >= 2*sum(lambdas)`` (the zero-rate ceiling) a rate-zero
    solution is returned, flagged ``DistortionInactive``.

    Raises
    ------
    OutOfRangeError
        If ``D <= 0`` or ``D`` is not finite.
    """
    if cfg is None:
        cfg = SolverConfig()
    if not (D > 0.0) or not math.isfinite(D):
        raise OutOfRangeError(f"distortion budget must be positive and finite, got {D!r}")
    if D >= 2.0 * s.total_variance:
        return _zero_rate_solution(s, PerceptionMetric.W2, D, 0.0)
    return _perfect_perception_interior(s, D, cfg)


def high_distortion_p0_estimate(
    s: SourceSpectrum, eps: float
) -> tuple[float, np.ndarray]:
    """Second-order rate law near the perfect-perception zero-rate ceiling.

    At distortion ``2*sum(lambdas) - eps`` the rate behaves as
    ``eps^2/(8*sum(lambda^2))``; the matching water levels fall below each
    variance by ``eps^2 lambda^3/(4 (sum lambda^2)^2)``.
    """
    if eps < 0.0 or math.isnan(eps):
        raise DomainError(f"eps must be nonnegative, got {eps!r}")
    lam = s.lambdas
    ssq = float(np.sum(lam * lam))
    rate = eps * eps / (8.0 * ssq)
    levels = lam - eps * eps * lam**3 / (4.0 * ssq * ssq)
    return rate, levels


def low_distortion_p0_estimate(
    s: SourceSpectrum, eps: float
) -> tuple[float, np.ndarray]:
    """Low-distortion expansion of the perfect-perception rate.

    The leading term is the classical low-distortion rate; satisfying the
    perception pin costs an extra ``(eps/(8L)) * sum(1/lambda)`` nats, with
    water levels ``eps/L - eps^2/(2 L^2 lambda) + (eps^2/(4 L^3)) sum(1/lambda)``.
    """
    if not eps > 0.0 or math.isnan(eps):
        raise DomainError(f"eps must be positive, got {eps!r}")
    lam = s.lambdas
    n = lam.size
    inv_sum = float(np.sum(1.0 / lam))
    rate = float(0.5 * np.sum(np.log(n * lam / eps))) + eps / (8.0 * n) * inv_sum
    levels = (
        eps / n
        - eps * eps / (2.0 * n * n * lam)
        + eps * eps / (4.0 * n**3) * inv_sum
    )
    return rate, np.asarray(levels)
