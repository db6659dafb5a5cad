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
   with equality. The dual's gradient is the pair of constraint slacks.
   Its Hessian is taken in closed form from the allocations one dual
   evaluation returns, in relative coordinates: ``H = -diag(nu) J
   diag(nu)`` for the slack Jacobian ``J``, a sum of per-component terms
   in units of each variance, so of order one at any scale of the source.
   Distortion and perception behave close to power laws in each
   multiplier, so each iteration tries candidate multipliers in one fixed
   order and keeps the first that passes one test.  First comes the Newton
   step on ``F = (log(dist/D), log(perc/P))`` in ``log(nu)``, which solves
   ``H dt = diag(nu*sums) F``, shortened to move no multiplier by more
   than a factor e^8, at fractions t = 1, 1/2 and 1/4 of itself.  Then come
   Newton steps on the concave dual in the relative coordinates
   ``y = delta/nu``, ``(H + mu*I) y = nu*slacks``, damped Levenberg-Marquardt
   style: ``mu`` starts afresh at each iteration near zero and grows
   tenfold, turning the step toward the gradient and shortening it.  A
   candidate passes where the larger relative slack falls below
   ``1 - 1e-4*t`` of itself (t = 1 for a damped step), or, for a damped
   step only, where the dual value rises by 1e-4 of the step's first-order
   gain.  A log step may not pass on the dual value: near the kink at
   ``nu1 = 1/(2*lambda)``, where a component's gap vanishes, it can raise
   the value while it crosses the kink away from the root.  Both 2 by 2
   systems are solved by one Cramer's rule on Python floats.  The search
   stops once both budgets hold to 1e-9 of
   themselves and the envelope estimate ``|nu1*slack_d + nu2*slack_p|`` of
   the rate's error is at most 1e-10 of the rate, or after one more step
   from a point where the budgets hold: near zero rate, budgets met to
   1e-9 of themselves can still leave the rate off in its seventh digit.
   Where the perception sum's own rounding error exceeds 1e-9 of P (tiny
   budgets, ``lambda_hat/lam`` within about 1e-6 of one), P is held to
   that error instead.  Where that error exceeds 1e-6 of P no point can
   show the budget met, and a search that lands within it raises
   ``ConvergenceError``.  An iteration where no candidate passes ends the
   search with ``LineSearchError``.

A perception budget of exactly zero pins every reconstruction variance to
its source variance, sending nu2 to infinity; that regime is handled by a
dedicated fast path that solves the distortion equation for the log of the
single remaining multiplier with :func:`rootfind.bisect_root`, the
package's one safeguarded Newton iteration.

Every dual evaluation works on the whole spectrum at once: one call to the
array-valued stationary map of the metric, then array sums.  Each regime
hands its water levels, gaps and reconstruction variances to the one
assembler, :func:`classic_rd.assemble`.
"""

from __future__ import annotations

import math

import numpy as np

from .classic_rd import assemble, water_level, waterfill_solution
from .errors import ConvergenceError, DomainError, LineSearchError, OutOfRangeError
from .kernels import (
    distortion_terms,
    perception_terms,
    perfect_perception_gamma,
    rate_terms,
    stationary_pair_kl,
    stationary_pair_w2,
)
from .model import (
    PerceptionMetric,
    RdpSolution,
    SolutionCase,
    SourceSpectrum,
    TradeoffQuery,
    zero_rate_reconstruction,
)
from .rootfind import bisect_root

__all__ = [
    "solve",
    "solve_perfect_perception",
    "high_distortion_p0_estimate",
    "low_distortion_p0_estimate",
]

# each budget is met to this fraction of itself, so a small budget is met
# to the same number of digits as a large one
_BUDGET_RTOL = 1e-9
# a perception sum whose own rounding error exceeds that is met to its
# rounding error instead, up to this fraction of the budget
_NOISY_BUDGET_RTOL = 1e-6
_EPS = float(np.finfo(float).eps)
_MAX_DUAL_ITERATIONS = 500
_ARMIJO_C = 1e-4
_MAX_DAMPINGS = 60
# far from the root, where the budget sums are not yet power laws in nu, a
# log step can ask for factors like e^342 that still cut the slacks; steps
# are shortened to change no multiplier by more than e^8
_MAX_LOG_STEP = 8.0
# a met search takes one more step where the rate's first-order error
# exceeds this fraction of the rate
_POLISH_RTOL = 1e-10


class _DualState:
    """Inner minimization at one multiplier pair: value, slacks, argmin."""

    __slots__ = ("value", "slack_d", "slack_p", "gammas", "gaps", "hats")

    def __init__(self, value, slack_d, slack_p, gammas, gaps, hats):
        self.value = value
        self.slack_d = slack_d
        self.slack_p = slack_p
        self.gammas = gammas
        self.gaps = gaps
        self.hats = hats


def _evaluate_dual(
    lam: np.ndarray, nu1: float, nu2: float, metric: PerceptionMetric,
    D: float, P: float,
) -> _DualState:
    pair = stationary_pair_kl if metric is PerceptionMetric.KL else stationary_pair_w2
    gammas, gaps, hats = pair(lam, nu1, nu2)
    rate = float(rate_terms(lam, gammas, gaps).sum())
    dist = float(distortion_terms(gammas, gaps, hats).sum())
    perc = float(perception_terms(lam, hats, metric).sum())
    value = rate + nu1 * (dist - D) + nu2 * (perc - P)
    return _DualState(value, dist - D, perc - P, gammas, gaps, hats)


def _relative_hessian(
    lam: np.ndarray, nu1: float, nu2: float, state: _DualState,
    metric: PerceptionMetric,
) -> tuple[float, float, float]:
    """Entries ``(H00, H01, H11)`` of the dual's Hessian in relative coordinates.

    ``H = -diag(nu) J diag(nu)`` for the exact Jacobian ``J`` of the slacks
    in ``(nu1, nu2)``.  Each component's ``x = (gamma, lambda_hat)`` is
    stationary for ``-0.5*log(gamma) + nu1*d + nu2*p``, so
    ``dx/dnu = -K^-1 G^T`` with ``K`` its Hessian and ``G`` the rows
    ``grad d = (1/s, 1 - s)`` and ``grad p = (0, p')``,
    ``s = sqrt(gap/lambda_hat)``: ``J = -sum G K^-1 G^T``.  In units of the
    variance, ``g = gamma/lam`` and ``h = lambda_hat/lam``, ``d/lam`` and
    the perception term (KL) or its ratio to ``lam`` (W2) depend on
    ``(g, h)`` alone, so each component is the one of unit variance with
    multipliers ``k = nu1*lam`` and ``w = nu2`` (KL) or ``w = nu2*lam``
    (W2).  As ``nu1*d/dnu1 = k*d/dk`` and ``nu2*d/dnu2 = w*d/dw``,

        H = sum [[k^2, k*w], [k*w, w^2]] * (G K^-1 G^T at unit variance),

    elementwise, every factor of order one at any scale of the source.
    There ``K = diag(a, c) + v*v^T/u`` with ``a = 1/(2*g^2)``,
    ``c = w*p''``, ``v = (1, s^2)`` and ``u = 2*h*s^3/k``; its adjugate and
    determinant times ``u`` are free of cancellation and stay finite at a
    zero gap, where only ``lambda_hat`` responds.  Entries may be inf or
    nan where an allocation degenerates; the steps test for that on Python
    floats.
    """
    with np.errstate(all="ignore"):
        g, h = state.gammas / lam, state.hats / lam
        s = np.sqrt(state.gaps / state.hats)
        k = nu1 * lam
        if metric is PerceptionMetric.KL:
            w = nu2
            dp = 0.5 * (1.0 - 1.0 / h)
            c = w * (0.5 / (h * h))
        else:
            w = nu2 * lam
            r = np.sqrt(1.0 / h)
            dp = 1.0 - r
            c = w * (0.5 * r / h)
        a = 0.5 / (g * g)
        # u/s^2 formed without a division, so a zero gap divides nothing
        u_s2 = (2.0 / k) * h * s
        u = u_s2 * s * s
        m = 1.0 - s
        t = 1.0 - 2.0 * s
        den = u * a * c + c + a * s**4
        h00 = k * k * (u_s2 * c + u * a * m * m + t * t) / den
        h01 = k * w * dp * (u * a * m + t) / den
        h11 = w * w * dp * dp * (u * a + 1.0) / den
        return float(h00.sum()), float(h01.sum()), float(h11.sum())


def _budget_ratio(state: _DualState, tol_d: float, tol_p: float) -> float:
    """The larger slack in units of its tolerance: 1 or less meets both."""
    return max(abs(state.slack_d) / tol_d, abs(state.slack_p) / tol_p)


def _solve_2x2(a00: float, a01: float, a11: float, b0: float, b1: float):
    """Cramer's rule on ``[[a00, a01], [a01, a11]] y = (b0, b1)``, on Python floats.

    None where the determinant is zero or not finite: a float division by
    zero raises, and a singular system has no step.
    """
    det = a00 * a11 - a01 * a01
    if not (det != 0.0 and math.isfinite(det)):
        return None
    return (a11 * b0 - a01 * b1) / det, (a00 * b1 - a01 * b0) / det


def _log_step(nu1: float, nu2: float, state: _DualState, hess, D: float, P: float):
    """Newton step ``dt`` on ``F = (log(dist/D), log(perc/P))`` in ``t = log(nu)``.

    Distortion and perception behave close to power laws in each
    multiplier, so ``F`` is nearly linear in ``t`` where the slacks are
    strongly curved in ``nu``.  Its Jacobian is ``diag(1/dist, 1/perc) J
    diag(nu) = -diag(1/(nu*sums)) H`` for the relative Hessian ``H``, so
    the step solves ``H dt = diag(nu*sums) F``.  A step longer than
    ``_MAX_LOG_STEP`` in either coordinate is shortened along its direction
    to that length.  None where a budget sum is not positive, or the
    system is singular or not finite.
    """
    r0, r1 = state.slack_d / D, state.slack_p / P
    if not (r0 > -1.0 and r1 > -1.0):
        return None
    dt = _solve_2x2(
        *hess,
        nu1 * (D + state.slack_d) * math.log1p(r0),
        nu2 * (P + state.slack_p) * math.log1p(r1),
    )
    if dt is None or not (math.isfinite(dt[0]) and math.isfinite(dt[1])):
        return None
    shorten = max(abs(dt[0]), abs(dt[1]), _MAX_LOG_STEP) / _MAX_LOG_STEP
    return dt[0] / shorten, dt[1] / shorten


def _candidates(nu1: float, nu2: float, state: _DualState, hess, D: float, P: float):
    """Trial multipliers in the order tried, each with its step fraction ``t``
    and whether it may pass on the dual's Armijo test.

    First the :func:`_log_step` at fractions 1, 1/2 and 1/4 of itself.  Then
    damped Newton steps on the concave dual in the relative coordinates
    ``y = delta/nu``, ``(H + mu*I) y = b`` with ``b = nu*slacks`` for the
    relative Hessian ``H`` (``H = 0`` where it is not finite): the multiple
    ``mu`` of the identity turns the step toward the gradient and shortens
    it.  ``mu`` starts at 1e-6 of the larger of ``tr H`` and ``max |b|`` and
    grows tenfold, up to ``_MAX_DAMPINGS`` tries; a singular system, or a
    step that takes a multiplier below a tenth of itself, is skipped.
    """
    dt = _log_step(nu1, nu2, state, hess, D, P)
    if dt is not None:
        for t in (1.0, 0.5, 0.25):
            yield (nu1 * math.exp(t * dt[0]), nu2 * math.exp(t * dt[1])), t, False
    b0, b1 = nu1 * state.slack_d, nu2 * state.slack_p
    h00, h01, h11 = hess if all(map(math.isfinite, hess)) else (0.0, 0.0, 0.0)
    mu = 1e-6 * max(h00 + h11, abs(b0), abs(b1))
    for _ in range(_MAX_DAMPINGS):
        y = _solve_2x2(h00 + mu, h01, h11 + mu, b0, b1)
        if y is not None and -0.9 < y[0] < math.inf and -0.9 < y[1] < math.inf:
            yield (nu1 * (1.0 + y[0]), nu2 * (1.0 + y[1])), 1.0, True
        mu *= 10.0


def _try_newton(
    lam: np.ndarray, nu: np.ndarray, state: _DualState,
    metric: PerceptionMetric, D: float, P: float, tol_d: float, tol_p: float,
):
    """One Newton iteration on the dual; None if no candidate passes.

    The relative Hessian comes at no extra dual evaluation.  The
    :func:`_candidates` are evaluated in order, and the first whose larger
    relative slack falls below ``1 - _ARMIJO_C*t`` of the current one is
    kept.  A damped step may also pass where its gain
    ``slack_d*delta_1 + slack_p*delta_2`` is positive and the dual value
    rises by ``_ARMIJO_C`` of that gain.  Log steps may not pass on that
    test: near a kink of the dual, such as ``nu1 = 1/(2*lambda)`` where a
    component's gap vanishes, a log step can raise the dual value while it
    crosses the kink away from the root.  A candidate whose dual value is
    not finite never passes: with both multipliers positive, a non-finite
    slack, such as the one left where the KL stationary point underflows,
    makes the value non-finite, and a value of +inf would pass the rise
    test.  Nothing is carried from one iteration to the next.  Returns the
    new multipliers and their evaluation.
    """
    nu1, nu2 = nu.tolist()
    hess = _relative_hessian(lam, nu1, nu2, state, metric)
    phi = _budget_ratio(state, tol_d, tol_p)
    for cand, t, armijo in _candidates(nu1, nu2, state, hess, D, P):
        st = _evaluate_dual(lam, cand[0], cand[1], metric, D, P)
        # an unchanged nu gains exactly nothing, so it never passes
        gain = state.slack_d * (cand[0] - nu1) + state.slack_p * (cand[1] - nu2)
        if math.isfinite(st.value) and (
            _budget_ratio(st, tol_d, tol_p) < (1.0 - _ARMIJO_C * t) * phi
            or (armijo and gain > 0.0 and st.value >= state.value + _ARMIJO_C * gain)
        ):
            return np.array(cand), st
    return None


def _search_error(cls, message: str, iterations: int, nu: np.ndarray, state: _DualState):
    return cls(
        message, iterations=iterations, nu1=float(nu[0]), nu2=float(nu[1]),
        slack_distortion=float(state.slack_d), slack_perception=float(state.slack_p),
    )


def _perception_noise(lam: np.ndarray, hats: np.ndarray, metric: PerceptionMetric) -> float:
    """Rounding error of the perception sum at these reconstruction variances.

    Near ``lambda_hat = lam`` each term is a difference of nearly equal
    parts, so its error is about one rounding of the deviation
    (``lambda_hat/lam - 1`` under KL, ``sqrt(lam) - sqrt(lambda_hat)``
    under W2) times the term's slope in it.
    """
    if metric is PerceptionMetric.KL:
        return _EPS * float(np.abs(hats / lam - 1.0).sum())
    root = np.sqrt(lam)
    return 2.0 * _EPS * float((np.abs(root - np.sqrt(hats)) * root).sum())


def _budgets_met(
    lam: np.ndarray, nu: np.ndarray, state: _DualState, metric: PerceptionMetric,
    tol_d: float, tol_p: float, iteration: int,
) -> bool:
    """Both slacks within tolerance.

    Where the perception sum's own rounding error exceeds ``tol_p`` no
    multiplier pair may meet ``tol_p``, so the perception slack is held to
    that error instead.  Where that error also exceeds
    ``_NOISY_BUDGET_RTOL`` of the budget, a slack within it cannot show
    the budget met to that fraction: a search that reaches such a point
    raises ``ConvergenceError`` rather than return a possible budget miss.
    """
    if not abs(state.slack_d) <= tol_d:
        return False
    noise = _perception_noise(lam, state.hats, metric)
    if not abs(state.slack_p) <= max(tol_p, noise):
        return False
    if noise > tol_p * (_NOISY_BUDGET_RTOL / _BUDGET_RTOL):
        raise _search_error(
            ConvergenceError, "the perception sum's rounding error exceeds the budget's tolerance",
            iteration, nu, state,
        )
    return True


def _dual_search(
    s: SourceSpectrum, metric: PerceptionMetric, D: float, P: float, level: float
) -> RdpSolution:
    lam = s.lambdas
    tol_d = _BUDGET_RTOL * D
    tol_p = _BUDGET_RTOL * P
    # nu1 starts at the classical multiplier of the water level; nu2 carries
    # units of 1/distortion under W2, whose budget is a squared distance,
    # and none under KL, whose budget is dimensionless
    nu2 = lam.size / (2.0 * D) if metric is PerceptionMetric.W2 else 1.0
    nu = np.array([0.5 / level, nu2])
    state = _evaluate_dual(lam, nu[0], nu[1], metric, D, P)
    polishing = False
    for iteration in range(_MAX_DUAL_ITERATIONS):
        met = _budgets_met(lam, nu, state, metric, tol_d, tol_p, iteration)
        if met:
            # by the envelope identities the rate is off by about
            # nu1*slack_d + nu2*slack_p, which near zero rate can exceed
            # the rate's own digits while both budgets hold: one more step
            # polishes it
            envelope = float(nu[0] * state.slack_d + nu[1] * state.slack_p)
            if polishing or abs(envelope) <= _POLISH_RTOL * (state.value - envelope):
                break
        newton = _try_newton(lam, nu, state, metric, D, P, tol_d, tol_p)
        if newton is None:
            if met:
                break
            raise _search_error(
                LineSearchError, "dual ascent stalled before meeting the budget equations",
                iteration, nu, state,
            )
        polishing = met
        nu, state = newton
    else:
        if not _budgets_met(lam, nu, state, metric, tol_d, tol_p, _MAX_DUAL_ITERATIONS):
            raise _search_error(
                ConvergenceError, "dual search exhausted its iteration budget",
                _MAX_DUAL_ITERATIONS, nu, state,
            )
    if not np.all(state.gaps > 0.0):
        raise _search_error(
            ConvergenceError, "dual search ended on a component at zero rate",
            iteration, nu, state,
        )
    return assemble(
        lam, state.gammas, state.gaps, state.hats, float(nu[0]), float(nu[1]),
        metric, D, P, SolutionCase.BOTH_ACTIVE,
    )


def _zero_rate_solution(
    s: SourceSpectrum, hats: np.ndarray, metric: PerceptionMetric, D: float, P: float
) -> RdpSolution:
    # the rate objective is flat at zero here, so zero multipliers certify
    # optimality; an exactly-zero perception budget keeps the pinned-variance
    # convention nu2 = +inf instead
    nu2 = math.inf if P == 0.0 else 0.0
    lam = s.lambdas
    return assemble(
        lam, lam, np.zeros_like(lam), hats, 0.0, nu2, metric, D, P,
        SolutionCase.DISTORTION_INACTIVE,
    )


def solve(s: SourceSpectrum, q: TradeoffQuery) -> RdpSolution:
    """Minimal coding rate under a distortion and a perception budget.

    Regimes are detected in the order zero-rate feasible, perception
    inactive, both active; see the module docstring. A perception budget of
    exactly zero takes the single-multiplier path described there.

    Raises
    ------
    ConvergenceError
        If the two-multiplier search stalls or exhausts its budget.
    """
    metric = q.metric
    D = q.distortion_budget
    P = q.perception_budget

    # a zero-rate reconstruction has distortion tr + sum(lambda_hat) >= tr
    if D >= s.total_variance:
        hats0, dist0 = zero_rate_reconstruction(s, metric, P)
        if D >= dist0:
            return _zero_rate_solution(s, hats0, metric, D, P)

    w = water_level(s, D)
    if metric is PerceptionMetric.UNCONSTRAINED or float(
        perception_terms(s.lambdas, s.lambdas - w.per_component, metric).sum()
    ) <= P:
        return waterfill_solution(s, D, w, metric, P)

    if P == 0.0:
        return _perfect_perception_interior(s, D)
    return _dual_search(s, metric, D, P, w.nu)


def _perfect_perception_interior(s: SourceSpectrum, D: float) -> RdpSolution:
    """Solve the single multiplier of the pinned-variance problem.

    With ``z = 4*nu1*lam`` and ``h = hypot(1, z)`` a component's distortion
    is ``2*lam*(1 + 1/(h+z))/(1+h)`` and its shortfall from the ceiling
    ``2*lam`` is ``c = 2*lam*z/(1+h)``, both free of cancellation; in
    ``x = log(nu1)`` the distortion has slope ``-sum(c/h)``.  Newton runs on
    ``log(distortion/D)`` when ``D`` is at most the total variance and on
    ``log(shortfall_D/shortfall)`` above it: the first is concave and the
    second convex in ``x``, and each starts on the side of the root from
    which Newton's steps do not overshoot.  :func:`rootfind.bisect_root`
    runs the iteration.
    """
    lam = s.lambdas
    two_lam = 2.0 * lam
    total = s.total_variance
    low = D <= total
    if low:
        # the distortion is at most L/(2 nu1), so this start lies right of
        # the root
        x0 = math.log(lam.size / (2.0 * D))
    else:
        # the shortfall is at most 4 nu1 sum(lam^2): a start left of the root
        short_d = 2.0 * total - D
        x0 = math.log(short_d / (4.0 * float((lam * lam).sum())))

    def excess(x: float) -> tuple[float, float]:
        z = (4.0 * math.exp(x)) * lam
        h = np.hypot(1.0, z)
        c = two_lam * z / (1.0 + h)
        slope = float((c / h).sum())
        if low:
            dist = float((two_lam * (1.0 + 1.0 / (h + z)) / (1.0 + h)).sum())
            return math.log(dist / D), -slope / dist
        short = float(c.sum())
        return math.log(short_d / short), -slope / short

    x = bisect_root(excess, x0)
    nu1 = math.exp(x)
    z = (4.0 * nu1) * lam
    # the gap lam - gamma = lam*z^2/(1+h)^2 keeps rates far below 1e-16
    gaps = lam * (z / (1.0 + np.hypot(1.0, z))) ** 2
    return assemble(
        lam, perfect_perception_gamma(lam, nu1), gaps, lam, nu1, math.inf,
        PerceptionMetric.W2, D, 0.0, SolutionCase.BOTH_ACTIVE,
    )


def solve_perfect_perception(s: SourceSpectrum, D: float) -> RdpSolution:
    """Rate under a perception budget of exactly zero: the P = 0 query of
    :func:`solve`.

    Every reconstruction variance is pinned to its source variance, leaving
    a single multiplier found by a Newton iteration on the distortion
    equation. For ``D >= 2*sum(lambdas)`` (the zero-rate ceiling) a rate-zero
    solution is returned, flagged ``DistortionInactive``.

    Raises
    ------
    OutOfRangeError
        If ``D <= 0`` or ``D`` is not finite.
    """
    if not (D > 0.0) or not math.isfinite(D):
        raise OutOfRangeError(f"distortion budget must be positive and finite, got {D!r}")
    return solve(s, TradeoffQuery(D, 0.0, PerceptionMetric.W2))


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
