"""Independent primal minimizer used to certify the dual-search solver.

Minimizes the coding-rate objective directly over the per-component water
levels and reconstruction variances, with a logarithmic barrier on the two
coupled budget constraints and on the box constraints, over the nine
barrier weights 1, 0.1, ..., 1e-8.  At the final weight the centered point
is within (number of constraints) * 1e-8 nats of the true minimum,
comfortably under the 1e-6 certificate this module promises.

Each barrier stage is minimized by a damped Newton iteration on the full
analytic Hessian.  The objective and the box barriers are separable, so
the Hessian is one 2 by 2 block per component plus one rank-one term for
each of the two budgets, and the Newton system is solved by that structure
in O(L) work, with no dense matrix.  The budget barriers' part of the
gradient is never formed: near the centre it nearly cancels the rest, so
the solve works from the rest alone and returns the direction of a
Lagrangian gradient, which is small where the step is (see
:meth:`_Curvature.solve`).  The Hessian is positive definite everywhere
inside the feasible set, and the squared decrement is formed as a sum of
nonnegative terms, so every Newton direction descends.  Plain gradient
descent stalls around 1e-3 nats of the optimum, because the barrier
Hessian's condition number grows like the inverse barrier weight.

The barrier runs in units of each source variance: its variables are
``g = gamma/lam`` and ``h = lambda_hat/lam``, one pair per component, as
in the paper's per-component programs.  A component's distortion is
``lam * (g + (sqrt(h) - sqrt(1-g))**2)``, its KL loss ``(h - 1 - log h)/2``
and its W2 loss ``lam * (1 - sqrt(h))**2``; these, with their slopes and
curvatures in ``(g, h)``, are the only loss formulas the oracle uses.
Each square root in the distortion is taken on its own, so it does not
cancel at low distortion and no product of two variances is formed; the
source variances enter only as weights in the distortion and W2 sums.

A perception budget of exactly zero is the same program with every
reconstruction variance pinned to its source variance, ``h = 1``; the
barrier problem then runs over the L water levels alone.

Every run starts at one closed-form interior point: ``g = min(1/2, D /
(2 tr))`` in every component, with ``tr`` the total variance, and
``h = 1``.  A component's distortion there is ``lam * (g + (1 -
sqrt(1 - g))**2)``, at most ``1.172 * lam * g`` for ``g <= 1/2``, so the
total distortion is at most ``0.586 * min(D, tr) < D``, and the perception
loss is zero, below any positive budget.

A stage ends when the squared Newton decrement reaches 1e-12 (Boyd &
Vandenberghe, *Convex Optimization*, sections 9.5 and 11.3).  The
decrement is affine-invariant, so the stopping point, the number of steps
and the rate do not depend on the units of the source.  A fixed tolerance
on the gradient norm would not serve: the gradient grows like the inverse
water level, so on near-singular spectra such a tolerance cannot be met
and the stage runs to its step cap inside rounding noise.  A stage that
reaches its cap, 120 Newton steps plus one per variable, raises
:class:`ConvergenceError`: its point is not centred, and the rate there
can be far from the optimum.

Between stages the run follows the central path: the next stage starts
from the centred point moved along the path's tangent, solved with the
curvature already formed for the last decrement test (see
:func:`_path_tangent`), at the first of 1, 1/2, 1/4, ... of that move
that lowers the next stage's barrier value.  Over the benchmark's
covariance queries this takes a fifth of the Newton steps off a run.

This module shares no iterate machinery with the dual search: the only
multipliers it forms are the Newton solve's estimates for its own budget
barriers, it never uses the stationary-point maps, and it touches the
same ground truth only through the distortion and perception formulas.
Agreement between the two routes is therefore a meaningful check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, LineSearchError, OutOfRangeError
from .model import PerceptionMetric, SourceSpectrum, TradeoffQuery

__all__ = [
    "PrimalPoint",
    "OracleResult",
    "minimize_primal",
    "minimize_primal_p0",
    "check_gradients",
]

# the barrier weight of each stage, shrinking tenfold from 1 to 1e-8
_BARRIER_WEIGHTS = tuple(10.0**-k for k in range(9))

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

    ``newton_steps`` counts the Newton steps accepted over all barrier
    stages; the shifts predicted between stages are not among them.
    """

    rate: float
    point: PrimalPoint
    newton_steps: int


def _rate(g) -> float:
    """The coding rate, in nats, at the water levels ``g = gamma/lam``."""
    return -0.5 * float(np.add.reduce(np.log(g)))


# The per-component loss formulas in (g, h), each over its weight in its
# budget sum: the source variance for the distortion and W2, none for KL.


def _distortion_terms(g, h):
    d = np.sqrt(h) - np.sqrt(1.0 - g)
    return g + d * d


def _distortion_slopes(g, h):
    """Slopes of a distortion term in g and h.  Its curvatures follow from
    them: ``d_g/(2(1-g))`` in (g, g), ``(1-d_h)/(2h)`` in (h, h) and
    ``d_g/(2h)`` in (g, h), a rank-one block, the product of the first two
    being the square of the third."""
    d_g = np.sqrt(h / (1.0 - g))
    return d_g, 1.0 - 1.0 / d_g


# perception terms, slopes and curvatures in h, by metric
_PERCEPTION = {
    PerceptionMetric.KL: (
        lambda h: 0.5 * (h - 1.0 - np.log(h)),
        lambda h: 0.5 * (1.0 - 1.0 / h),
        lambda h: 0.5 / (h * h),
    ),
    PerceptionMetric.W2: (
        lambda h: (1.0 - np.sqrt(h)) ** 2,
        lambda h: 1.0 - 1.0 / np.sqrt(h),
        lambda h: 0.5 / (h * np.sqrt(h)),
    ),
}


class _Curvature(NamedTuple):
    """The barrier Hessian by its structure, and its Newton solve.

    The objective and the box barriers are separable, and the curvature of
    the distortion sum is rank one within each component, so all of them
    together form one 2 by 2 block per component, ``h_gamma``, ``h_hat``
    and ``h_cross`` (a diagonal, ``h_gamma`` alone, when the reconstruction
    variances are pinned): the block part ``B``.  Each budget barrier
    ``-mu*log(slack)`` adds ``mu * v`` to the gradient and ``mu * v v^T``
    to the Hessian, for ``v`` the gradient of its sum over its slack: the
    rows of ``u``, one for the distortion and one for the perception
    barrier where there is one.  In the coordinates ``(g, h)`` every entry
    is a ratio such as ``1/g``, whatever the units of the source.

    ``inv_blocks`` holds each block inverse's diagonal, its water-level
    entries in the first row and its reconstruction-variance entries in the
    second (``1/h_gamma`` alone when pinned), and ``inv_cross`` the negated
    off-diagonal entries: formed once per step, they are applied to each
    right-hand side in turn.
    """

    h_gamma: np.ndarray
    h_hat: np.ndarray | None
    h_cross: np.ndarray | None
    inv_blocks: np.ndarray
    inv_cross: np.ndarray | None
    u: np.ndarray
    mu: float

    def _solve_blocks(self, y):
        """``B^-1 y`` for a vector ``y``, or for each row of ``u``."""
        if self.inv_cross is None:
            return self.inv_blocks * y
        pairs = y.reshape(-1, 2, self.inv_cross.size)
        z = self.inv_blocks * pairs - self.inv_cross * pairs[:, ::-1]
        return z.reshape(y.shape)

    def _add_multiples(self, y, target):
        """``y + u^T c``, with ``c`` solving the capacitance system
        ``(I/mu + u B^-1 u^T) c = target - u B^-1 y`` in closed form, one
        equation per budget barrier."""
        u = self.u
        rhs = [target - a for a in (u @ self._solve_blocks(y)).tolist()]
        s = (u @ self._solve_blocks(u).T).tolist()
        inv_mu = 1.0 / self.mu
        if len(rhs) == 1:
            c = [rhs[0] / (inv_mu + s[0][0])]
        else:
            (s00, s01), (s10, s11) = s
            s00 += inv_mu
            s11 += inv_mu
            det = s00 * s11 - s01 * s10
            c = [(s11 * rhs[0] - s01 * rhs[1]) / det, (s00 * rhs[1] - s10 * rhs[0]) / det]
        return y + np.dot(c, u)

    def solve(self, r):
        """Newton direction and squared Newton decrement at the barrier
        gradient ``r + mu * u.sum(axis=0)``, given ``r``.

        By the matrix inversion lemma (Boyd & Vandenberghe, appendix C.4)
        the direction is ``-B^-1 (r + u^T c)``, where ``c`` solves the
        capacitance system ``(I/mu + u B^-1 u^T) c = 1 - u B^-1 r``: O(L)
        work in all.  The system is formed with ``1/mu``, which grows as
        the barrier weight shrinks, where the Hessian itself carries the
        unbounded weights ``mu/slack**2``.

        Near the centre ``r`` and ``mu * u.sum(axis=0)`` are large and
        nearly opposite, so the full gradient is never formed: ``c``
        approaches ``mu``, and ``r + u^T c``, the gradient of a Lagrangian
        with multipliers ``c``, is small wherever the direction is.  The
        squared decrement ``v B^-1 v + mu |u B^-1 v|^2`` of that gradient
        ``v`` is a sum of nonnegative terms, so every direction descends.
        """
        v = self._add_multiples(r, 1.0)
        z = self._solve_blocks(v)
        uz = self.u @ z
        return -z, float(v @ z) + self.mu * float(uz @ uz)

    def inverse(self, b):
        """``H^-1 b`` for the whole barrier Hessian ``H``: by the same
        lemma, ``B^-1 (b + u^T c)`` with ``c`` solving
        ``(I/mu + u B^-1 u^T) c = -u B^-1 b``."""
        return self._solve_blocks(self._add_multiples(b, 0.0))


class _BarrierProblem:
    """Barrier value, gradient, and Hessian for one query.

    The variables are each component's water level and reconstruction
    variance over its source variance, ``g = gamma/lam`` and
    ``h = lambda_hat/lam``, stacked water levels first.  A perception
    budget of exactly zero pins every ``h`` to 1, the optimum the paper
    gives for perfect perception: the water levels are then the only
    variables, and the perception barrier and the reconstruction-variance
    barriers are absent.  For an unconstrained perception budget only the
    perception barrier is absent.
    """

    def __init__(self, s: SourceSpectrum, D: float, P: float, metric: PerceptionMetric):
        self.lam = s.lambdas
        self.D = D
        self.P = P
        self.pinned = P == 0.0
        self.has_perception = (
            not self.pinned and metric is not PerceptionMetric.UNCONSTRAINED
        )
        if self.has_perception:
            self.p_terms, self.p_slopes, self.p_curvatures = _PERCEPTION[metric]
            self.p_weight = self.lam if metric is PerceptionMetric.W2 else 1.0
            self.zeros = np.zeros_like(self.lam)

    def split(self, x):
        """The water levels and reconstruction variances in ``x``; the
        latter are the scalar 1 when they are pinned."""
        if self.pinned:
            return x, 1.0
        n = self.lam.size
        return x[:n], x[n:]

    def slacks(self, x):
        """Distortion and perception budget slacks at ``x``.

        The perception slack is ``inf`` when there is no perception
        barrier.  Returns ``None`` unless ``x`` is strictly interior.
        """
        g, h = self.split(x)
        if not (np.minimum.reduce(x) > 0.0 and np.maximum.reduce(g) < 1.0):
            return None
        sd = self.D - float(self.lam @ _distortion_terms(g, h))
        # an overflowed distortion sum leaves no finite slack
        if not 0.0 < sd < math.inf:
            return None
        sp = math.inf
        if self.has_perception:
            sp = self.P - float(np.add.reduce(self.p_weight * self.p_terms(h)))
            if not sp > 0.0:
                return None
        return sd, sp

    def evaluate(self, x, mu: float):
        """Barrier value and budget slacks at ``x``: ``(inf, None)``
        unless ``x`` is strictly interior."""
        slacks = self.slacks(x)
        if slacks is None:
            return math.inf, None
        sd, sp = slacks
        g, h = self.split(x)
        rate = _rate(g)
        # the water-level barrier's sum of log(g) is -2 * rate
        logs = math.log(sd) - 2.0 * rate + float(np.add.reduce(np.log1p(-g)))
        if not self.pinned:
            logs += float(np.add.reduce(np.log(h)))
        total = rate - mu * logs
        if self.has_perception:
            total -= mu * math.log(sp)
        return total, slacks

    def derivatives(self, x, mu: float, slacks):
        """Gradient ``r`` of the objective and the box barriers, and the
        :class:`_Curvature` of the barrier function, at a strictly interior
        ``x`` whose budget slacks are ``slacks``.  The budget barriers add
        ``mu * u.sum(axis=0)`` to ``r``; the Newton solve never forms that
        sum."""
        sd, sp = slacks
        g, h = self.split(x)
        # each component's weight in the distortion barrier, times its
        # distortion slopes
        w = self.lam / sd
        d_g, d_h = _distortion_slopes(g, h)
        wd_g = w * d_g
        inv_g, inv_gap = 1.0 / g, 1.0 / (1.0 - g)
        r_g = mu * inv_gap - (0.5 + mu) * inv_g
        # objective and box terms, then the curvature of the distortion sum
        # itself (rank one per component in (g, h), see _distortion_slopes)
        box_g = (0.5 + mu) * inv_g * inv_g + mu * inv_gap * inv_gap
        half_mu_wd_g = (0.5 * mu) * wd_g
        dist_g = half_mu_wd_g * inv_gap
        h_gamma = box_g + dist_g
        if self.pinned:
            return r_g, _Curvature(
                h_gamma, None, None, 1.0 / h_gamma, None, wd_g[None, :], mu
            )

        inv_h = 1.0 / h
        rows = [np.concatenate((wd_g, w * d_h))]
        box_h = mu * inv_h * inv_h
        if self.has_perception:
            wp = self.p_weight / sp
            rows.append(np.concatenate((self.zeros, wp * self.p_slopes(h))))
            box_h += (mu * wp) * self.p_curvatures(h)
        h_hat = box_h + (0.5 * mu) * w * (1.0 - d_h) * inv_h
        h_cross = half_mu_wd_g * inv_h
        # h_cross**2 is dist_g times the distortion term of h_hat, so the
        # determinant is a sum of positive terms
        inv_det = 1.0 / (box_g * h_hat + dist_g * box_h)
        inv_blocks = np.array((h_hat, h_gamma)) * inv_det
        return np.concatenate((r_g, -mu * inv_h)), _Curvature(
            h_gamma, h_hat, h_cross, inv_blocks, h_cross * inv_det, np.array(rows), mu
        )


def _line_search(problem: _BarrierProblem, x, value, direction, mu: float, decrease: float):
    """The first of ``x + t * direction``, t = 1, 1/2, 1/4, ... (at most
    ``_MAX_BACKTRACKS`` tries), that is strictly interior and whose barrier
    value is below ``value`` and at most ``value - t * decrease``, as
    ``(point, barrier value, slacks)``; ``None`` if there is none."""
    t = 1.0
    for _ in range(_MAX_BACKTRACKS):
        cand = x + t * direction
        cand_value, cand_slacks = problem.evaluate(cand, mu)
        if cand_value < value and cand_value <= value - t * decrease:
            return cand, cand_value, cand_slacks
        t *= 0.5
    return None


def _minimize_stage(problem: _BarrierProblem, x, mu: float, shift=None):
    """Center one barrier stage, returning ``(x, steps taken, curvature)``,
    the last the :class:`_Curvature` at the centred point.

    The stage starts from ``x`` moved by the predicted ``shift`` where a
    backtrack of it lowers the barrier value (:func:`_line_search` with no
    required decrease), which is not counted as a step.  Every step is a
    Newton step damped by an Armijo backtrack, the same search with the
    Armijo decrease.  Inside the feasible set the barrier Hessian is
    positive definite: the objective and the box barriers are strictly
    convex in each water level and reconstruction variance, and the budget
    barriers are convex (Boyd & Vandenberghe, section 11.3).  The direction and its
    squared decrement come from the Hessian's structure
    (:meth:`_Curvature.solve`) in O(L) work, the decrement as a sum of
    nonnegative terms, and the slacks of each accepted point carry over to
    the next step's derivatives.  A step is accepted only if it meets the
    Armijo condition and strictly lowers the barrier value.

    The stage ends when the squared Newton decrement falls to
    ``_DECREMENT_TOL``.  That number, twice the decrease the Newton model
    predicts, is invariant under any rescaling of the coordinates, and in
    ``(g, h)`` its factors are free of units too.

    Raises
    ------
    LineSearchError
        If no backtrack of a Newton step meets the Armijo condition and
        lowers the barrier value.
    ConvergenceError
        If the decrement is still above its tolerance after
        ``_MAX_STAGE_ITERATIONS`` steps plus one per variable (a stage's
        damped steps grow about linearly with L).
    """
    value, slacks = problem.evaluate(x, mu)
    if shift is not None:
        x, value, slacks = _line_search(problem, x, value, shift, mu, 0.0) or (x, value, slacks)
    max_steps = _MAX_STAGE_ITERATIONS + x.size
    for steps in range(max_steps + 1):
        r, curvature = problem.derivatives(x, mu, slacks)
        direction, decrement_sq = curvature.solve(r)
        if decrement_sq <= _DECREMENT_TOL:
            return x, steps, curvature
        if steps == max_steps:
            break
        accepted = _line_search(problem, x, value, direction, mu, _ARMIJO_C * decrement_sq)
        if accepted is None:
            raise LineSearchError(
                "barrier stage stalled",
                barrier_mu=mu,
                newton_decrement_sq=decrement_sq,
            )
        x, value, slacks = accepted
    raise ConvergenceError(
        "barrier stage reached its Newton step cap",
        barrier_mu=mu,
        newton_decrement_sq=decrement_sq,
        steps=max_steps,
    )


def _path_tangent(problem: _BarrierProblem, x, curvature: _Curvature):
    """The central path's tangent ``dx/dmu`` at its point ``x``, given the
    barrier curvature there.

    A centred point zeroes the barrier gradient ``grad(rate) + mu *
    grad(phi)``, ``phi`` the sum of the barrier logarithms; differentiating
    in ``mu`` gives ``H dx/dmu = -grad(phi) = grad(rate)/mu`` (Allgower &
    Georg, *Introduction to Numerical Continuation Methods*, chapter 2).
    ``H`` is the curvature formed for the stage's final decrement test, and
    the solve takes the same structured route as a Newton step.
    """
    n = problem.lam.size
    rate_gradient = np.zeros_like(x)
    rate_gradient[:n] = -0.5 / x[:n]
    return curvature.inverse(rate_gradient) / curvature.mu


def _interior_start(problem: _BarrierProblem):
    """The closed-form strictly interior start (see the module docstring).

    Raises
    ------
    DomainError
        If under- or overflow leaves the start outside the interior.
    """
    lam = problem.lam
    g = np.full(lam.size, min(0.5, problem.D / (2.0 * float(np.sum(lam)))))
    x = g if problem.pinned else np.concatenate([g, np.ones_like(g)])
    if problem.slacks(x) is None:
        raise DomainError("the closed-form barrier start is not strictly interior")
    return x


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
    ConvergenceError
        If a barrier stage reaches its Newton step cap.
    """
    problem = _BarrierProblem(s, q.distortion_budget, q.perception_budget, q.metric)
    x, newton_steps, shift = _interior_start(problem), 0, None
    for mu, next_mu in zip(_BARRIER_WEIGHTS, _BARRIER_WEIGHTS[1:] + (None,)):
        x, steps, curvature = _minimize_stage(problem, x, mu, shift)
        newton_steps += steps
        if next_mu is not None:
            shift = (next_mu - mu) * _path_tangent(problem, x, curvature)
    g, h = problem.split(x)
    return OracleResult(
        rate=_rate(g),
        point=PrimalPoint(gammas=problem.lam * g, lambda_hats=problem.lam * h),
        newton_steps=newton_steps,
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
    """Central finite differences against the barrier's analytic slopes.

    Takes the point to the barrier's coordinates ``g = gamma/lam`` and
    ``h = lambda_hat/lam``, perturbs every coordinate by ``1e-6`` of its
    magnitude, and compares the resulting partials of each budget's sum of
    per-component terms (the distortion, and the perception loss unless it
    is unconstrained) with the slope functions the barrier runs on,
    returning the worst relative error.
    """
    metric = q.metric
    lam = s.lambdas
    n = lam.size
    x = np.concatenate([point.gammas / lam, point.lambda_hats / lam])
    budgets = [(_distortion_terms, _distortion_slopes)]
    if metric is not PerceptionMetric.UNCONSTRAINED:
        p_terms, p_slopes, _ = _PERCEPTION[metric]
        budgets.append(
            (lambda g, h: p_terms(h), lambda g, h: (np.zeros_like(g), p_slopes(h)))
        )
    worst = 0.0
    for terms, slopes in budgets:
        analytic = np.concatenate(slopes(x[:n], x[n:]))
        for i in range(2 * n):
            step = 1e-6 * x[i]
            plus, minus = x.copy(), x.copy()
            plus[i] += step
            minus[i] -= step
            fd = float(np.sum(terms(plus[:n], plus[n:]) - terms(minus[:n], minus[n:])))
            fd /= 2.0 * step
            worst = max(worst, abs(fd - analytic[i]) / max(1.0, abs(analytic[i])))
    return worst
