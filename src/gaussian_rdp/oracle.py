"""Independent primal minimizer used to certify the dual-search solver.

Minimizes the coding-rate objective directly over the per-component water
levels and reconstruction variances, with a logarithmic barrier on the two
coupled budget constraints and on the box constraints, the barrier weight
shrinking tenfold per stage from 1 to 1e-8.  At the final weight the
centered point is within (number of constraints) * 1e-8 nats of the true
minimum, comfortably under the 1e-6 certificate this module promises.

Each barrier stage is minimized by a damped Newton iteration on the full
analytic Hessian.  The objective and the box barriers are separable, so
the Hessian is one 2 by 2 block per component plus one rank-one term for
each of the two budgets, and the Newton system is solved by that structure
in O(L) work, with no dense matrix.  The Hessian is positive definite
everywhere inside the feasible set, so every Newton direction descends and
no other direction is ever needed.  Plain gradient descent was measured
first and rejected: the barrier Hessian's condition number grows like the
inverse barrier weight, and descent stalls around 1e-3 nats of the optimum
at desk scale, far off the certificate.

A perception budget of exactly zero is the same program with every
reconstruction variance pinned to its source variance; the barrier
problem then runs over the L water levels alone.

Every run starts at one closed-form interior point: water levels
``lam * min(1/2, D / (2 tr))``, with ``tr`` the total variance, and every
reconstruction variance at its source variance.  A component's
distortion there is ``gamma + (sqrt(lam) - sqrt(lam - gamma))**2``, at
most ``1.172 * gamma`` for ``gamma <= lam/2``, so the total distortion is
at most ``0.586 * min(D, tr) < D``, and the perception loss is zero, below
any positive budget.

A stage ends when the squared Newton decrement ``-grad @ direction``
reaches 1e-12 (Boyd & Vandenberghe, *Convex Optimization*, sections 9.5
and 11.3).  The decrement is affine-invariant, so the stopping point, the
number of steps and the rate do not depend on the units of the source.
A fixed tolerance on the gradient norm would not serve: the gradient
grows like the inverse water level, so on near-singular spectra such a
tolerance cannot be met and the stage runs to its step cap inside rounding
noise.

This module shares no iterate machinery with the dual search: it never
forms multipliers, never uses the stationary-point maps, and touches the
same ground truth only through the distortion and perception formulas.
Agreement between the two routes is therefore a meaningful check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, LineSearchError, OutOfRangeError
from .model import PerceptionMetric, SourceSpectrum, TradeoffQuery

__all__ = [
    "PrimalPoint",
    "OracleResult",
    "minimize_primal",
    "minimize_primal_p0",
    "check_gradients",
]

MU_INITIAL = 1.0
MU_FINAL = 1e-8
MU_SHRINK = 0.1

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_MAX_STAGE_ITERATIONS = 120
_DECREMENT_TOL = 1e-12


@dataclass(frozen=True)
class PrimalPoint:
    """Strictly interior candidate for the rate program."""

    gammas: np.ndarray
    lambda_hats: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gammas, dtype=float)
        h = np.asarray(self.lambda_hats, dtype=float)
        if g.ndim != 1 or h.shape != g.shape:
            raise DomainError("gammas and lambda_hats must be matching vectors")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise DomainError("primal point entries must be finite")
        if not (np.all(g > 0.0) and np.all(h > 0.0)):
            raise DomainError("primal point entries must be strictly positive")
        object.__setattr__(self, "gammas", g.copy())
        object.__setattr__(self, "lambda_hats", h.copy())


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a barrier minimization.

    ``newton_steps`` counts the steps accepted over all barrier stages.
    """

    rate: float
    point: PrimalPoint
    newton_steps: int


def _distortion_terms(lam, gammas, hats):
    return lam - 2.0 * np.sqrt(hats * (lam - gammas)) + hats


def _perception_terms(lam, hats, metric):
    if metric is PerceptionMetric.KL:
        return 0.5 * (hats / lam - 1.0 + np.log(lam / hats))
    if metric is PerceptionMetric.W2:
        d = np.sqrt(lam) - np.sqrt(hats)
        return d * d
    raise DomainError(f"no perception formula for metric {metric!r}")


def _perception_partials(lam, hats, metric):
    if metric is PerceptionMetric.KL:
        return 0.5 * (1.0 / lam - 1.0 / hats)
    return 1.0 - np.sqrt(lam / hats)


def _perception_curvatures(lam, hats, metric):
    """Second derivatives of the perception terms, times ``lam**2``."""
    if metric is PerceptionMetric.KL:
        return 0.5 * (lam / hats) ** 2
    return 0.5 * lam * (lam / hats) ** 1.5


class _Curvature(NamedTuple):
    """The barrier Hessian by its structure, and its Newton solve.

    Each coordinate is measured in units of its source variance, the
    scaled Hessian being ``diag(scale) @ hess @ diag(scale)``: its entries
    are then ratios such as ``lam/gamma`` whatever the units of the source,
    so no product of two of them over- or underflows.  The objective and
    the box barriers are separable, and the curvature of the distortion
    sum is rank one within each component, so all of them together form
    one 2 by 2 block per component, ``h_gamma``, ``h_hat`` and
    ``h_cross``, with determinant ``det`` (a diagonal, ``h_gamma`` alone,
    when the reconstruction variances are pinned).  Each budget barrier
    ``-mu*log(slack)`` adds one rank-one term across the components,
    ``mu * v v^T`` for ``v`` the scaled gradient of its sum over its
    slack: the rows of ``u``.
    """

    scale: np.ndarray
    h_gamma: np.ndarray
    h_hat: np.ndarray | None
    h_cross: np.ndarray | None
    det: np.ndarray | None
    u: np.ndarray
    mu: float

    def _solve_blocks(self, rows):
        """Apply the inverse of the block part to each row of ``rows``."""
        if self.h_hat is None:
            return rows / self.h_gamma
        n = self.h_gamma.size
        r_gamma, r_hat = rows[:, :n], rows[:, n:]
        return np.concatenate(
            [
                (self.h_hat * r_gamma - self.h_cross * r_hat) / self.det,
                (self.h_gamma * r_hat - self.h_cross * r_gamma) / self.det,
            ],
            axis=1,
        )

    def solve(self, rhs):
        """``hess^-1 @ rhs`` by the matrix inversion lemma.

        With ``B`` the block part, the solve applies ``B^-1`` to the scaled
        ``rhs`` and to the rows of ``u``, then solves the 1 by 1 or 2 by 2
        capacitance system ``I/mu + u B^-1 u^T`` (Boyd & Vandenberghe,
        appendix C.4): O(L) work in all.  The system is formed with
        ``1/mu``, which grows as the barrier weight shrinks, where the
        Hessian itself carries the unbounded weights ``mu/slack**2``.
        """
        z = self._solve_blocks(np.vstack([self.scale * rhs, self.u]))
        gram = (self.u @ z.T).tolist()
        inv_mu = 1.0 / self.mu
        if len(gram) == 1:
            ((r, s),) = gram
            return self.scale * (z[0] - (r / (inv_mu + s)) * z[1])
        (r0, s00, s01), (r1, s10, s11) = gram
        s00 += inv_mu
        s11 += inv_mu
        det = s00 * s11 - s01 * s10
        c0 = (s11 * r0 - s01 * r1) / det
        c1 = (s00 * r1 - s10 * r0) / det
        return self.scale * (z[0] - c0 * z[1] - c1 * z[2])


class _BarrierProblem:
    """Barrier value, gradient, and Hessian for one query.

    The variable vector stacks the water levels first, then the
    reconstruction variances.  A perception budget of exactly zero pins
    every reconstruction variance to its source variance, the optimum the
    paper gives for perfect perception: the water levels are then the only
    variables, and the perception barrier and the reconstruction-variance
    barriers are absent.  For an unconstrained perception budget only the
    perception barrier is absent.
    """

    def __init__(self, s: SourceSpectrum, D: float, P: float, metric: PerceptionMetric):
        self.lam = s.lambdas
        self.D = D
        self.P = P
        self.metric = metric
        self.pinned = P == 0.0
        self.has_perception = (
            not self.pinned and metric is not PerceptionMetric.UNCONSTRAINED
        )
        self.scale = self.lam if self.pinned else np.concatenate([self.lam, self.lam])

    def split(self, x):
        if self.pinned:
            return x, self.lam
        n = self.lam.size
        return x[:n], x[n:]

    def slacks(self, x):
        """Distortion and perception budget slacks at ``x``.

        The perception slack is ``inf`` when there is no perception
        barrier.  Returns ``None`` unless ``x`` is strictly interior.
        """
        gammas, hats = self.split(x)
        if not ((gammas > 0.0).all() and (gammas < self.lam).all()):
            return None
        if not (hats > 0.0).all():
            return None
        sd = self.D - float(_distortion_terms(self.lam, gammas, hats).sum())
        # an overflowed distortion sum leaves no finite slack
        if not 0.0 < sd < math.inf:
            return None
        sp = math.inf
        if self.has_perception:
            sp = self.P - float(_perception_terms(self.lam, hats, self.metric).sum())
            if not sp > 0.0:
                return None
        return sd, sp

    def objective(self, x) -> float:
        gammas, _ = self.split(x)
        return float(0.5 * np.log(self.lam / gammas).sum())

    def evaluate(self, x, mu: float):
        """Barrier value and budget slacks at ``x``: ``(inf, None)``
        unless ``x`` is strictly interior."""
        slacks = self.slacks(x)
        if slacks is None:
            return math.inf, None
        sd, sp = slacks
        gammas, hats = self.split(x)
        lam = self.lam
        logs = (
            math.log(sd)
            + float(np.log(gammas).sum())
            + float(np.log(lam - gammas).sum())
        )
        if not self.pinned:
            logs += float(np.log(hats).sum())
        total = self.objective(x) - mu * logs
        if self.has_perception:
            total -= mu * math.log(sp)
        return total, slacks

    def value(self, x, mu: float) -> float:
        return self.evaluate(x, mu)[0]

    def derivatives(self, x, mu: float, slacks):
        """Gradient and :class:`_Curvature` of the barrier function at a
        strictly interior ``x`` whose budget slacks are ``slacks``."""
        sd, sp = slacks
        gammas, hats = self.split(x)
        lam = self.lam
        gap = lam - gammas
        d_gamma = np.sqrt(hats / gap)
        g_gamma = -0.5 / gammas + (mu / sd) * d_gamma - mu / gammas + mu / gap
        # scaled curvature: objective and box terms, then the curvature of
        # the distortion sum itself (rank one per component in
        # (gamma, lambda_hat)) with weight w
        t_gamma, t_gap = lam / gammas, lam / gap
        w = (0.5 * mu / sd) * lam
        box_gamma = (0.5 + mu) * t_gamma**2 + mu * t_gap**2
        dist_gamma = w * t_gap * d_gamma
        h_gamma = box_gamma + dist_gamma
        if self.pinned:
            u = (lam * d_gamma / sd)[None, :]
            return g_gamma, _Curvature(lam, h_gamma, None, None, None, u, mu)

        root = np.sqrt(gap / hats)
        d_hat = 1.0 - root
        g_hat = (mu / sd) * d_hat - mu / hats
        t_hat = lam / hats
        box_hat = mu * t_hat**2
        n = lam.size
        u = np.zeros((1 + self.has_perception, 2 * n))
        u[0, :n] = lam * d_gamma / sd
        u[0, n:] = lam * d_hat / sd
        if self.has_perception:
            ph = _perception_partials(lam, hats, self.metric)
            g_hat = g_hat + (mu / sp) * ph
            box_hat = box_hat + (mu / sp) * _perception_curvatures(
                lam, hats, self.metric
            )
            u[1, n:] = lam * ph / sp
        h_hat = box_hat + w * t_hat * root
        h_cross = w * np.sqrt(t_hat * t_gap)
        # h_cross**2 is dist_gamma times the distortion term of h_hat, so
        # the determinant is a sum of positive terms
        det = box_gamma * h_hat + dist_gamma * box_hat
        return np.concatenate([g_gamma, g_hat]), _Curvature(
            self.scale, h_gamma, h_hat, h_cross, det, u, mu
        )


def _minimize_stage(problem: _BarrierProblem, x, mu: float):
    """Center one barrier stage, returning (x, steps taken).

    Every step is a Newton step damped by an Armijo backtrack.  Inside the
    feasible set the barrier Hessian is positive definite: the objective
    and the box barriers are strictly convex in each water level and
    reconstruction variance, and the budget barriers are convex
    (Boyd & Vandenberghe, section 11.3).  So the Newton direction descends;
    one that rounding turns uphill has a nonpositive decrement and ends the
    stage like a converged one.  The direction comes from the Hessian's
    structure (:meth:`_Curvature.solve`) in O(L) work, and the slacks of
    each accepted point carry over to the next step's derivatives.

    The stage ends when the squared Newton decrement ``-grad @ direction``
    falls to ``_DECREMENT_TOL``.  Scaling the variances by c scales the
    gradient by 1/c and the Newton step by c, so their product, twice the
    decrease the Newton model predicts, is free of units.  It also ends
    after an accepted step that leaves the barrier value unchanged: the
    decrement can sit just above its threshold while every step the
    backtrack accepts is too short to move the value off its rounding
    floor.

    Raises
    ------
    LineSearchError
        If no backtrack of a Newton step meets the Armijo condition.
    """
    value, slacks = problem.evaluate(x, mu)
    for steps in range(_MAX_STAGE_ITERATIONS):
        grad, curvature = problem.derivatives(x, mu, slacks)
        direction = curvature.solve(-grad)
        slope = float(grad @ direction)
        if -slope <= _DECREMENT_TOL:
            return x, steps
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            cand = x + t * direction
            cand_value, cand_slacks = problem.evaluate(cand, mu)
            if cand_value <= value + _ARMIJO_C * t * slope:
                if not cand_value < value:
                    # the step no longer lowers the value: rounding floor
                    return cand, steps + 1
                x, value, slacks = cand, cand_value, cand_slacks
                break
            t *= 0.5
        else:
            raise LineSearchError(
                "barrier stage stalled",
                barrier_mu=mu,
                newton_decrement_sq=-slope,
            )
    return x, _MAX_STAGE_ITERATIONS


def _interior_start(problem: _BarrierProblem):
    """The closed-form strictly interior start (see the module docstring).

    Raises
    ------
    DomainError
        If under- or overflow leaves the start outside the interior.
    """
    lam = problem.lam
    gammas = lam * min(0.5, problem.D / (2.0 * float(np.sum(lam))))
    x = gammas if problem.pinned else np.concatenate([gammas, lam])
    if problem.slacks(x) is None:
        raise DomainError("the closed-form barrier start is not strictly interior")
    return x


def _run_barrier(problem: _BarrierProblem, x):
    mu = MU_INITIAL
    newton_steps = 0
    while True:
        x, steps = _minimize_stage(problem, x, mu)
        newton_steps += steps
        if mu <= MU_FINAL * (1.0 + 1e-12):
            return x, newton_steps
        mu = max(mu * MU_SHRINK, MU_FINAL)


def minimize_primal(s: SourceSpectrum, q: TradeoffQuery) -> OracleResult:
    """Direct barrier minimization of the two-budget rate program.

    A perception budget of exactly zero pins every reconstruction variance
    to its source variance, and the search runs over the water levels
    alone.

    Raises
    ------
    DomainError
        If under- or overflow leaves the closed-form start outside the
        interior.
    LineSearchError
        If no backtrack of a barrier Newton step decreases the barrier
        function enough.
    """
    problem = _BarrierProblem(s, q.distortion_budget, q.perception_budget, q.metric)
    x, steps = _run_barrier(problem, _interior_start(problem))
    gammas, hats = problem.split(x)
    return OracleResult(
        rate=problem.objective(x),
        point=PrimalPoint(gammas=gammas, lambda_hats=hats),
        newton_steps=steps,
    )


def minimize_primal_p0(s: SourceSpectrum, D: float) -> OracleResult:
    """:func:`minimize_primal` under a perception budget of exactly zero.

    Raises
    ------
    OutOfRangeError
        Unless ``0 < D < 2 * sum(lambdas)``.
    """
    ceiling = 2.0 * s.total_variance
    if not (0.0 < D < ceiling) or math.isnan(D):
        raise OutOfRangeError(
            f"distortion budget must lie in (0, {ceiling}), got {D!r}"
        )
    return minimize_primal(s, TradeoffQuery(D, 0.0, PerceptionMetric.W2))


def check_gradients(
    s: SourceSpectrum, q: TradeoffQuery, point: PrimalPoint
) -> float:
    """Central finite differences against the analytic budget gradients.

    Perturbs every coordinate of the point by ``1e-6`` of its magnitude and
    compares the resulting distortion-sum and perception-sum partials with
    their closed forms, returning the worst relative error.
    """
    lam = s.lambdas
    x = np.concatenate([point.gammas, point.lambda_hats])
    n = lam.size
    metric = q.metric

    def dist_sum(v):
        return float(np.sum(_distortion_terms(lam, v[:n], v[n:])))

    def perc_sum(v):
        return float(np.sum(_perception_terms(lam, v[n:], metric)))

    gap = lam - point.gammas
    analytic_d = np.concatenate(
        [
            np.sqrt(point.lambda_hats / gap),
            1.0 - np.sqrt(gap / point.lambda_hats),
        ]
    )
    worst = 0.0
    for i in range(2 * n):
        h = 1e-6 * x[i]
        plus = x.copy()
        minus = x.copy()
        plus[i] += h
        minus[i] -= h
        fd = (dist_sum(plus) - dist_sum(minus)) / (2.0 * h)
        worst = max(worst, abs(fd - analytic_d[i]) / max(1.0, abs(analytic_d[i])))
    if metric is not PerceptionMetric.UNCONSTRAINED:
        analytic_p = _perception_partials(lam, point.lambda_hats, metric)
        for i in range(n, 2 * n):
            h = 1e-6 * x[i]
            plus = x.copy()
            minus = x.copy()
            plus[i] += h
            minus[i] -= h
            fd = (perc_sum(plus) - perc_sum(minus)) / (2.0 * h)
            an = float(analytic_p[i - n])
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    return worst
