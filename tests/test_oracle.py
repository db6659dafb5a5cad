"""Tests for the barrier-method primal oracle.

The oracle exists to certify the dual-search solver through an independent
route, so most assertions here are cross-checks between the two, plus the
structural facts (convexity, rank-one distortion curvature) the barrier
method relies on.
"""

import json
import math

import numpy as np
import pytest

from gaussian_rdp import oracle, solver
from gaussian_rdp.cli import RunConfig, main, run_verify
from gaussian_rdp.errors import ConvergenceError, DomainError, OutOfRangeError
from gaussian_rdp.model import PerceptionMetric, SourceSpectrum, TradeoffQuery

HALF_LOG_2 = 0.693147180559945309417232121458 / 2.0
HALF_LOG_4_3 = 0.143841036225890463719609502997


def spectrum(*lams):
    return SourceSpectrum(np.array(lams, dtype=float))


# scalar per-component losses, written out here so that these checks do not
# lean on the library's own loss terms


def distortion_component(lam, gamma, lambda_hat):
    return lam - 2.0 * math.sqrt(lambda_hat * max(lam - gamma, 0.0)) + lambda_hat


def perception_component_kl(lam, lambda_hat):
    if lambda_hat == 0.0:
        return math.inf
    x = lambda_hat / lam - 1.0
    return 0.5 * (x - math.log1p(x))


def perception_component_w2(lam, lambda_hat):
    return (math.sqrt(lam) - math.sqrt(lambda_hat)) ** 2


def total_distortion(lam, gammas, hats):
    return sum(
        distortion_component(float(l), float(g), float(h))
        for l, g, h in zip(lam, gammas, hats)
    )


def total_perception(lam, hats, metric):
    if metric is PerceptionMetric.KL:
        return sum(perception_component_kl(float(l), float(h)) for l, h in zip(lam, hats))
    return sum(perception_component_w2(float(l), float(h)) for l, h in zip(lam, hats))


def test_point_validation():
    with pytest.raises(DomainError):
        oracle.PrimalPoint(gammas=np.array([1.0]), lambda_hats=np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        oracle.PrimalPoint(gammas=np.array([0.0]), lambda_hats=np.array([1.0]))
    with pytest.raises(DomainError):
        oracle.PrimalPoint(gammas=np.array([1.0]), lambda_hats=np.array([math.nan]))


def test_scalar_rd_example():
    res = oracle.minimize_primal(
        spectrum(1.0), TradeoffQuery(0.5, math.inf, PerceptionMetric.UNCONSTRAINED)
    )
    assert abs(res.rate - HALF_LOG_2) < 1e-6
    assert abs(res.point.gammas[0] - 0.5) < 1e-6
    assert res.newton_steps > 0


def test_no_barrier_stage_runs_to_its_cap(monkeypatch):
    # query 0 of the solver's wide-range fuzz recipe (D/tr = 1.5e-6): once
    # the Newton decrement sat just above its threshold, every accepted step
    # left the barrier value unchanged and two stages ran to the cap
    lam = np.array([
        23255.826681197683, 0.33446655565403627, 2.3557449744368935,
        2798.2533734964823, 1.8395359991191307, 21.48956798061472,
    ])
    q = TradeoffQuery(0.03890093509935501, 0.0006970915510164051, PerceptionMetric.KL)
    stage_steps = []
    stage = oracle._minimize_stage

    def recorded(problem, x, mu, shift):
        x, steps, curvature = stage(problem, x, mu, shift)
        stage_steps.append(steps)
        return x, steps, curvature

    monkeypatch.setattr(oracle, "_minimize_stage", recorded)
    res = oracle.minimize_primal(SourceSpectrum(lam), q)
    assert stage_steps and max(stage_steps) < oracle._MAX_STAGE_ITERATIONS
    ref = solver.solve(SourceSpectrum(lam), q).total_rate
    assert abs(res.rate - ref) <= 1e-6 * ref


def _stage_steps(monkeypatch, s, q):
    """The Newton steps of each barrier stage of one oracle run."""
    steps_taken = []
    stage = oracle._minimize_stage

    def recorded(problem, x, mu, shift):
        x, steps, curvature = stage(problem, x, mu, shift)
        steps_taken.append(steps)
        return x, steps, curvature

    monkeypatch.setattr(oracle, "_minimize_stage", recorded)
    oracle.minimize_primal(s, q)
    monkeypatch.setattr(oracle, "_minimize_stage", stage)
    return steps_taken


@pytest.mark.parametrize("P", [0.05, 0.0])
def test_a_stage_at_its_cap_raises(monkeypatch, tmp_path, P):
    # a stage stopped early leaves the rate far from the optimum, so the
    # cap must not pass silently; a stage that centres on its last allowed
    # step is not capped
    s = spectrum(3.0, 2.0, 1.0)
    q = TradeoffQuery(2.0, P, PerceptionMetric.KL)
    size = 3 if P == 0.0 else 6
    most = max(_stage_steps(monkeypatch, s, q))
    monkeypatch.setattr(oracle, "_MAX_STAGE_ITERATIONS", most - size)
    oracle.minimize_primal(s, q)
    monkeypatch.setattr(oracle, "_MAX_STAGE_ITERATIONS", most - size - 1)
    with pytest.raises(ConvergenceError) as caught:
        oracle.minimize_primal(s, q)
    assert type(caught.value) is ConvergenceError
    diagnostics = caught.value.diagnostics
    assert diagnostics["steps"] == most - 1
    assert diagnostics["barrier_mu"] in oracle._BARRIER_WEIGHTS
    assert diagnostics["newton_decrement_sq"] > oracle._DECREMENT_TOL
    code = main([
        "verify", "--lambdas", "3,2,1", "--metric", "kl", "--distortion", "2",
        "--perception", repr(P), "--samples", "1000",
        "--output", str(tmp_path / "report.json"),
    ])
    assert code == 3


@pytest.mark.parametrize("kind", ["kl", "w2", "none", "p0"])
def test_path_tangent_matches_central_differences(monkeypatch, kind):
    # centre tightly at mu and mu*(1 +- eps): the central path's difference
    # quotient must match the tangent solved from the curvature at mu
    monkeypatch.setattr(oracle, "_DECREMENT_TOL", 1e-15)
    rng = np.random.default_rng(67)
    for _ in range(3):
        problem, x = _interior_barrier_problem(kind, rng)
        for mu in (1e-1, 1e-2, 1e-3):
            eps = 1e-3
            x, _, curvature = oracle._minimize_stage(problem, x, mu)
            tangent = oracle._path_tangent(problem, x, curvature)
            plus = oracle._minimize_stage(problem, x, mu * (1.0 + eps))[0]
            minus = oracle._minimize_stage(problem, x, mu * (1.0 - eps))[0]
            err = (plus - minus) / (2.0 * eps * mu) - tangent
            _, hess = _dense_derivatives(problem, x, mu)
            assert math.sqrt(err @ hess @ err) <= 1e-5 * math.sqrt(tangent @ hess @ tangent)


@pytest.mark.parametrize("kind", ["kl", "w2", "none", "p0"])
def test_predicted_start_is_interior_and_never_raises_the_barrier(kind):
    # also with the shift overshooting thirtyfold, which must be cut back,
    # and reversed, uphill, which must leave the point where it is
    rng = np.random.default_rng(71)
    weights = oracle._BARRIER_WEIGHTS
    accepted = 0
    for _ in range(5):
        problem, x = _interior_barrier_problem(kind, rng)
        shift = None
        for k, mu in enumerate(weights):
            x_value, x_slacks = problem.evaluate(x, mu)
            for factor in (1.0, 30.0, -1.0):
                found = None
                if shift is not None:
                    # a stage's start: the line search with no required decrease
                    found = oracle._line_search(problem, x, x_value, factor * shift, mu, 0.0)
                start, value, slacks = found or (x, x_value, x_slacks)
                assert problem.slacks(start) == slacks is not None
                assert value == problem.evaluate(start, mu)[0]
                if start is not x:
                    assert value < x_value
                    accepted += factor == 1.0
                else:
                    assert factor == -1.0 or shift is None
            x, _, curvature = oracle._minimize_stage(problem, x, mu, shift)
            if k + 1 < len(weights):
                shift = (weights[k + 1] - mu) * oracle._path_tangent(problem, x, curvature)
    # the prediction is taken at most transitions, not just kept as a no-op
    assert accepted >= 4 * (len(weights) - 1)


def test_w2_tiny_budget_approximates_perfect_perception():
    res = oracle.minimize_primal(
        spectrum(1.0), TradeoffQuery(1.0, 1e-10, PerceptionMetric.W2)
    )
    assert abs(res.rate - HALF_LOG_4_3) < 1e-3
    # the looser budget can only lower the rate
    assert res.rate <= HALF_LOG_4_3 + 1e-9


def test_cross_solver_example():
    s = spectrum(2.0, 1.0)
    q = TradeoffQuery(1.0, 0.05, PerceptionMetric.KL)
    res = oracle.minimize_primal(s, q)
    ref = solver.solve(s, q)
    assert abs(res.rate - ref.total_rate) < 1e-4


FROZEN_RATES = [
    (PerceptionMetric.KL, 1.0, 4.0 / 9.0, 0.0145461030293419277314577540898,
     0.42364893019360180685505375326),
    (PerceptionMetric.W2, 1.0, 0.445180948628113670541695583231,
     0.0150212396261669364530955413506, 0.421799361484442769768076146102),
    (PerceptionMetric.KL, 2.0, 0.686675555172164667963947708714,
     0.0247901672565583366451698052056, 0.536387147091907119194532523767),
    (PerceptionMetric.W2, 2.0, 0.67507692777217769972463183763,
     0.0332541780543894073310417320185, 0.54758235605980960982539494006),
]


@pytest.mark.parametrize("metric,lam,D,P,rate", FROZEN_RATES)
def test_frozen_scalar_rates(metric, lam, D, P, rate):
    res = oracle.minimize_primal(spectrum(lam), TradeoffQuery(D, P, metric))
    assert abs(res.rate - rate) < 1e-6
    # the barrier point is strictly feasible by construction
    assert total_distortion([lam], res.point.gammas, res.point.lambda_hats) <= D
    assert total_perception([lam], res.point.lambda_hats, metric) <= P


def test_p0_scalar_water_level():
    res = oracle.minimize_primal_p0(spectrum(1.0), 1.0)
    assert abs(res.point.gammas[0] - 0.75) < 1e-6
    assert np.array_equal(res.point.lambda_hats, [1.0])


def test_p0_symmetric_pair():
    res = oracle.minimize_primal_p0(spectrum(1.0, 1.0), 2.0)
    assert np.allclose(res.point.gammas, [0.75, 0.75], atol=1e-6)
    assert abs(res.point.gammas[0] - res.point.gammas[1]) < 1e-9


def test_p0_rate_vanishes_at_ceiling():
    s = spectrum(1.0, 2.0)
    res = oracle.minimize_primal_p0(s, 2.0 * s.total_variance * (1.0 - 1e-6))
    assert 0.0 <= res.rate < 1e-6


def test_p0_matches_dual_route():
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    for D in (2.0, 7.5, 20.0):
        res = oracle.minimize_primal_p0(s, D)
        ref = solver.solve_perfect_perception(s, D)
        assert abs(res.rate - ref.total_rate) < 1e-6


@pytest.mark.parametrize("metric", [PerceptionMetric.KL, PerceptionMetric.W2])
def test_zero_perception_query_is_the_pinned_run(metric):
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    for D in (1e-9, 2.0, 20.0):
        routed = oracle.minimize_primal(s, TradeoffQuery(D, 0.0, metric))
        pinned = oracle.minimize_primal_p0(s, D)
        assert routed.rate == pinned.rate
        assert np.array_equal(routed.point.gammas, pinned.point.gammas)
        assert np.array_equal(routed.point.lambda_hats, pinned.point.lambda_hats)
        assert routed.newton_steps == pinned.newton_steps


def test_p0_out_of_range():
    s = spectrum(1.0)
    for bad in (0.0, -0.5, 2.0, 2.5, math.nan):
        with pytest.raises(OutOfRangeError):
            oracle.minimize_primal_p0(s, bad)


def test_gradient_check_interior_points():
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    pt = oracle.PrimalPoint(gammas=0.4 * s.lambdas, lambda_hats=0.8 * s.lambdas)
    for metric, P in ((PerceptionMetric.KL, 0.5), (PerceptionMetric.W2, 2.0)):
        err = oracle.check_gradients(s, TradeoffQuery(5.0, P, metric), pt)
        assert err <= 1e-5


def test_gradient_check_named_partials():
    # at lam = 1, gamma = lambda_hat = 1/2 the distortion slope in gamma is 1
    s = spectrum(1.0)
    pt = oracle.PrimalPoint(gammas=np.array([0.5]), lambda_hats=np.array([0.5]))
    err = oracle.check_gradients(s, TradeoffQuery(1.0, 0.5, PerceptionMetric.KL), pt)
    assert err <= 1e-5
    # at lambda_hat = lam the divergence slope vanishes
    pinned = oracle.PrimalPoint(gammas=np.array([0.5]), lambda_hats=np.array([1.0]))
    err = oracle.check_gradients(s, TradeoffQuery(1.5, 0.5, PerceptionMetric.KL), pinned)
    assert err <= 1e-5


def test_convexity_witness():
    rng = np.random.default_rng(31)
    lam = np.array([2.0, 1.0])
    D, P = 1.3, 0.3
    metric = PerceptionMetric.KL

    def sample_feasible():
        while True:
            g = lam * rng.uniform(0.1, 0.95, size=2)
            h = lam * rng.uniform(0.3, 1.3, size=2)
            if total_distortion(lam, g, h) < D and total_perception(lam, h, metric) < P:
                return np.concatenate([g, h])

    def objective(x):
        return float(0.5 * np.sum(np.log(lam / x[:2])))

    for _ in range(100):
        a = sample_feasible()
        b = sample_feasible()
        mid = 0.5 * (a + b)
        # the feasible set is convex, so midpoints stay feasible
        assert total_distortion(lam, mid[:2], mid[2:]) < D + 1e-12
        assert total_perception(lam, mid[2:], metric) < P + 1e-12
        assert objective(mid) <= 0.5 * (objective(a) + objective(b)) + 1e-12


def test_distortion_hessian_rank_one_spotcheck():
    rng = np.random.default_rng(47)
    for _ in range(20):
        lam = float(rng.uniform(0.5, 5.0))
        g = lam * float(rng.uniform(0.2, 0.8))
        h = lam * float(rng.uniform(0.3, 1.5))
        dg = 1e-4 * g
        dh = 1e-4 * h

        def d(gg, hh):
            return distortion_component(lam, gg, hh)

        dgg = (d(g + dg, h) - 2.0 * d(g, h) + d(g - dg, h)) / dg**2
        dhh = (d(g, h + dh) - 2.0 * d(g, h) + d(g, h - dh)) / dh**2
        dgh = (
            d(g + dg, h + dh) - d(g + dg, h - dh) - d(g - dg, h + dh) + d(g - dg, h - dh)
        ) / (4.0 * dg * dh)
        assert dgg >= -1e-8 and dhh >= -1e-8
        assert abs(dgg * dhh - dgh * dgh) <= 1e-4 * max(1.0, dgg * dhh)


def test_oracle_matches_dual_solver_random():
    rng = np.random.default_rng(101)
    for trial in range(12):
        lam = rng.uniform(0.3, 6.0, size=int(rng.integers(1, 5)))
        s = SourceSpectrum(lam)
        D = float(rng.uniform(0.2, 0.7)) * s.total_variance
        if trial % 2 == 0:
            metric, P = PerceptionMetric.KL, float(rng.uniform(0.05, 0.5))
        else:
            metric, P = PerceptionMetric.W2, float(
                rng.uniform(0.05, 0.3) * s.total_variance
            )
        q = TradeoffQuery(D, P, metric)
        res = oracle.minimize_primal(s, q)
        ref = solver.solve(s, q)
        assert abs(res.rate - ref.total_rate) <= max(1e-4, 1e-3 * ref.total_rate)


@pytest.mark.parametrize("kind", ["kl", "w2", "p0"])
@pytest.mark.parametrize("ratio", [1e-12, 1e-9, 1e-7, 0.3, 1.5])
def test_oracle_agrees_with_solver_down_to_tiny_budgets(kind, ratio):
    # the closed-form start is strictly interior however small D is
    s = spectrum(3.0, 2.0, 1.0)
    D = ratio * s.total_variance
    if kind == "kl":
        q = TradeoffQuery(D, 0.1, PerceptionMetric.KL)
    elif kind == "w2":
        q = TradeoffQuery(D, 0.1 * s.total_variance, PerceptionMetric.W2)
    else:
        q = TradeoffQuery(D, 0.0, PerceptionMetric.W2)
    ref = solver.solve(s, q).total_rate
    res = oracle.minimize_primal(s, q)
    assert abs(res.rate - ref) <= max(1e-4, 1e-3 * ref)


def test_rate_is_free_of_units_over_the_whole_double_range():
    # the barrier runs in units of each source variance, so no product of
    # two variances is formed and the run is the same at any scale
    lam = np.array([3.0, 2.0, 1.0])

    def rate(c):
        q = TradeoffQuery(2.0 * c, 0.05, PerceptionMetric.KL)
        return oracle.minimize_primal(SourceSpectrum(c * lam), q).rate

    ref = rate(1.0)
    for c in (1e-300, 1e-200, 1e-160, 1e-100, 1e100, 1e156, 1e200, 1e300):
        assert abs(rate(c) - ref) <= 1e-12 * ref, c


def _verify_report(tmp_path, lams, metric, D, P):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--lambdas", ",".join(map(repr, lams)), "--metric", metric,
        "--distortion", repr(D), "--perception", repr(P), "--samples", "1000",
        "--output", str(out),
    ])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("ratio", [1e-13, 1e-14, 1e-16, 1e-20, 1e-30, 1e-50, 1e-100])
@pytest.mark.parametrize("lams", [(3.0, 2.0, 1.0), (5.0, 1.0, 0.2, 0.01)])
def test_verify_rates_agree_at_tiny_distortion(tmp_path, lams, ratio):
    # the distortion lam*(g + (sqrt(h) - sqrt(1 - g))**2) does not cancel
    # where lam - 2*sqrt(lambda_hat*(lam - gamma)) + lambda_hat is all
    # rounding; nor does the sampler's coefficient l11 - l21 (from 1e-50 on
    # the second spectrum) or the water-filling certificate's lambda_hat
    # residual (at 1e-13 ... 1e-16)
    tr = sum(lams)
    D = ratio * tr
    for metric, P in (("kl", 0.1), ("w2", 0.05 * tr), ("w2", 0.0)):
        code, report = _verify_report(tmp_path, lams, metric, D, P)
        assert code == 0 and report["all_pass"], (metric, P, report)


@pytest.mark.parametrize(
    "L,spread,seed,metric,budget",
    [
        (300, 6.0, 0, "kl", 15.0),
        (300, 6.0, 1, "kl", 15.0),
        (500, 9.0, 2, "kl", 25.0),
        (300, 12.0, 0, "w2", 0.05),
    ],
    ids=["0", "1", "500-e9-2-kl", "300-e12-0-w2"],
)
def test_verify_rates_agree_at_large_dimension(tmp_path, L, spread, seed, metric, budget):
    # lambda = e^U(-spread, spread), D = 0.3 tr, and a W2 budget given over
    # tr.  At L = 300, spread 6, barrier stages need up to 168 Newton steps,
    # and a stage stopped at 120 leaves the rate 0.66 (seed 0) and 1.16
    # (seed 1) nats above the optimum.  The other two rows end 0.109 and
    # 3.67 nats above it when the Newton step is formed from the full
    # barrier gradient, whose two large parts cancel near the centre
    lams = np.exp(np.random.default_rng(seed).uniform(-spread, spread, L))
    tr = float(lams.sum())
    P = budget * tr if metric == "w2" else budget
    _, report = _verify_report(tmp_path, lams.tolist(), metric, 0.3 * tr, P)
    assert report["rate_agreement_pass"], report["rate_abs_diff"]


@pytest.mark.parametrize("ratio", [1e-20, 1e-100])
def test_verify_passes_at_tiny_distortion(tmp_path, ratio):
    code, report = _verify_report(tmp_path, (3.0, 2.0, 1.0), "kl", 6.0 * ratio, 0.1)
    assert code == 0 and report["all_pass"], report


def test_gradient_check_sees_a_wrong_distortion_slope(monkeypatch):
    # check_gradients differentiates the same slope function the barrier
    # runs, so a slope off by 1e-3 of itself must show
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    pt = oracle.PrimalPoint(gammas=0.4 * s.lambdas, lambda_hats=0.8 * s.lambdas)
    q = TradeoffQuery(5.0, 0.5, PerceptionMetric.KL)
    assert oracle.check_gradients(s, q, pt) <= 1e-5
    slopes = oracle._distortion_slopes
    monkeypatch.setattr(
        oracle, "_distortion_slopes", lambda g, h: tuple(1.001 * v for v in slopes(g, h))
    )
    assert oracle.check_gradients(s, q, pt) > 1e-5


def test_start_lost_to_underflow_is_a_domain_error():
    # half the smallest subnormal budget rounds the water levels to zero
    with pytest.raises(DomainError):
        oracle.minimize_primal(
            spectrum(1.0), TradeoffQuery(5e-324, 0.1, PerceptionMetric.KL)
        )


def _interior_barrier_problem(kind, rng):
    """A barrier problem over a spectrum spanning 6 decades, and a strictly
    interior point of it, in units of each source variance, with every
    budget slack between 1% and 100%."""
    lam = 10.0 ** rng.uniform(-6.0, 0.0, size=7)
    lam[:2] = 1.0, 1e-6
    s = SourceSpectrum(lam * 10.0 ** rng.uniform(-3.0, 3.0))
    lam = s.lambdas
    gammas = lam * rng.uniform(0.01, 0.99, size=lam.size)
    hats = lam if kind == "p0" else lam * rng.uniform(0.2, 2.0, size=lam.size)
    D = total_distortion(lam, gammas, hats) * (1.0 + rng.uniform(0.01, 1.0))
    metric = {
        "kl": PerceptionMetric.KL,
        "w2": PerceptionMetric.W2,
    }.get(kind, PerceptionMetric.UNCONSTRAINED)
    if kind == "p0":
        P = 0.0
    elif kind == "none":
        P = math.inf
    else:
        P = total_perception(lam, hats, metric) * (1.0 + rng.uniform(0.01, 1.0))
    problem = oracle._BarrierProblem(s, D, P, metric)
    x = gammas / lam if kind == "p0" else np.concatenate([gammas / lam, hats / lam])
    assert problem.slacks(x) is not None
    return problem, x


def _dense_derivatives(problem, x, mu):
    """Gradient and dense Hessian of the barrier function, assembled from
    the blocks and rank-one terms the barrier problem returns."""
    r, c = problem.derivatives(x, mu, problem.slacks(x))
    grad = r + mu * c.u.sum(axis=0)
    n = c.h_gamma.size
    idx = np.arange(n)
    hess = sum(mu * np.outer(v, v) for v in c.u)
    hess[idx, idx] += c.h_gamma
    if c.h_hat is not None:
        hess[idx + n, idx + n] += c.h_hat
        hess[idx, idx + n] += c.h_cross
        hess[idx + n, idx] += c.h_cross
    return grad, hess


@pytest.mark.parametrize("kind", ["kl", "w2", "none", "p0"])
def test_barrier_hessian_is_positive_definite_inside(kind):
    # every barrier stage takes the Newton direction with no fallback: that
    # is sound because the Hessian is positive definite at every strictly
    # interior point, whatever the barrier weight
    rng = np.random.default_rng(59)
    for _ in range(20):
        problem, x = _interior_barrier_problem(kind, rng)
        for mu in (1.0, 1e-4, 1e-8):
            _, hess = _dense_derivatives(problem, x, mu)
            assert np.array_equal(hess, hess.T)
            np.linalg.cholesky(hess)


@pytest.mark.parametrize("kind", ["kl", "w2", "none", "p0"])
def test_structured_newton_direction_matches_a_dense_solve(kind):
    # the oracle solves the Newton system by its blocks and rank-one terms;
    # the reference is a dense solve of the Jacobi-scaled Hessian, since an
    # unscaled LU of this spread of scales is itself off by up to 1e-9
    rng = np.random.default_rng(59)
    for _ in range(20):
        problem, x = _interior_barrier_problem(kind, rng)
        for mu in (1.0, 1e-4, 1e-8):
            grad, hess = _dense_derivatives(problem, x, mu)
            scale = 1.0 / np.sqrt(np.diag(hess))
            ref = scale * np.linalg.solve(scale[:, None] * hess * scale, -grad * scale)
            r, curvature = problem.derivatives(x, mu, problem.slacks(x))
            err = curvature.solve(r)[0] - ref
            assert math.sqrt(err @ hess @ err) <= 1e-12 * math.sqrt(ref @ hess @ ref)


def test_oracle_makes_no_dense_solve(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the oracle called numpy.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", refused)
    s = spectrum(3.0, 2.0, 1.0)
    for q in (
        TradeoffQuery(2.0, 0.05, PerceptionMetric.KL),
        TradeoffQuery(2.0, 0.2, PerceptionMetric.W2),
        TradeoffQuery(2.0, math.inf, PerceptionMetric.UNCONSTRAINED),
        TradeoffQuery(2.0, 0.0, PerceptionMetric.W2),
    ):
        res = oracle.minimize_primal(s, q)
        assert abs(res.rate - solver.solve(s, q).total_rate) <= 1e-6


@pytest.mark.parametrize("kind", ["kl", "w2", "none", "p0"])
def test_barrier_derivatives_match_central_differences(kind):
    rng = np.random.default_rng(61)
    problem, x = _interior_barrier_problem(kind, rng)
    mu = 1e-2
    grad, hess = _dense_derivatives(problem, x, mu)
    for i in range(x.size):
        h = 1e-6 * x[i]
        plus, minus = x.copy(), x.copy()
        plus[i] += h
        minus[i] -= h
        fd = (problem.evaluate(plus, mu)[0] - problem.evaluate(minus, mu)[0]) / (2.0 * h)
        # each coordinate's own scale: its slope plus the slope change over
        # a relative move of one
        assert abs(fd - grad[i]) <= 1e-5 * (abs(grad[i]) + hess[i, i] * x[i])
        fd_row = (
            _dense_derivatives(problem, plus, mu)[0] - _dense_derivatives(problem, minus, mu)[0]
        ) / (2.0 * h)
        scale = np.sqrt(np.abs(np.diag(hess)) * abs(hess[i, i]))
        assert np.all(np.abs(fd_row - hess[i]) <= 1e-5 * scale)


def _scaled_oracle_run(kind, c):
    lam = c * np.geomspace(1.0, 1e-3, 5)
    s = SourceSpectrum(lam)
    D = 0.3 * s.total_variance
    if kind == "p0":
        return oracle.minimize_primal_p0(s, D)
    if kind == "kl":
        return oracle.minimize_primal(s, TradeoffQuery(D, 0.05, PerceptionMetric.KL))
    return oracle.minimize_primal(
        s, TradeoffQuery(D, 0.05 * s.total_variance, PerceptionMetric.W2)
    )


@pytest.mark.parametrize("kind", ["kl", "w2", "p0"])
def test_scaling_the_source_leaves_the_barrier_run_unchanged(kind):
    # lam, D and the W2 budget scale together (a KL budget is unitless), so
    # the barrier iterates scale with the source: the rate and the number
    # of Newton steps must not depend on the units
    runs = [_scaled_oracle_run(kind, c) for c in (1e-3, 1.0, 1e3)]
    rates = [r.rate for r in runs]
    assert max(rates) - min(rates) <= 1e-9
    assert len({r.newton_steps for r in runs}) == 1


def test_verify_reports_oracle_newton_steps():
    cfg = RunConfig(
        lambdas=(2.0, 1.0),
        covariance_path=None,
        metric=PerceptionMetric.KL,
        distortion=1.0,
        perception=0.05,
        samples=1000,
    )
    direct = oracle.minimize_primal(
        spectrum(2.0, 1.0), TradeoffQuery(1.0, 0.05, PerceptionMetric.KL)
    )
    assert run_verify(cfg)["oracle_newton_steps"] == direct.newton_steps > 0
    trivial = RunConfig(
        lambdas=(1.0,),
        covariance_path=None,
        metric=PerceptionMetric.KL,
        distortion=5.0,
        perception=0.0,
        samples=1000,
    )
    assert run_verify(trivial)["oracle_newton_steps"] == 0
