"""End-to-end tests for the two-budget rate solver.

Frozen reference values come from a 50-digit arbitrary precision solve of
the scalar stationarity systems; at those points the dual pair is unique,
so the solver must reproduce it, not just the constraint equalities.
"""

import math

import numpy as np
import pytest

from gaussian_rdp import solver
from gaussian_rdp.classic_rd import reverse_waterfill
from gaussian_rdp.errors import ConvergenceError, DomainError, OutOfRangeError
from gaussian_rdp.kkt import solution_residuals
from gaussian_rdp.model import (
    PerceptionMetric,
    SolutionCase,
    SourceSpectrum,
    TradeoffQuery,
)

HALF_LOG_4_3 = 0.143841036225890463719609502997

# Scalar sources whose (distortion, perception) sums at the frozen dual
# points become the budgets; solving those budgets must return the duals.
FROZEN_POINTS = [
    # lam, metric, D, P, nu1, nu2, gamma, rate
    (
        1.0,
        PerceptionMetric.KL,
        4.0 / 9.0,
        0.0145461030293419277314577540898,
        1.0,
        1.0,
        3.0 / 7.0,
        0.42364893019360180685505375326,
    ),
    (
        1.0,
        PerceptionMetric.W2,
        0.445180948628113670541695583231,
        0.0150212396261669364530955413506,
        1.0,
        1.0,
        0.43015970900194673408860004188,
        0.421799361484442769768076146102,
    ),
    (
        2.0,
        PerceptionMetric.KL,
        0.686675555172164667963947708714,
        0.0247901672565583366451698052056,
        0.7,
        0.3,
        0.684116459364421137324960606353,
        0.536387147091907119194532523767,
    ),
    (
        2.0,
        PerceptionMetric.W2,
        0.67507692777217769972463183763,
        0.0332541780543894073310417320185,
        0.7,
        0.3,
        0.668969017517289849398522131749,
        0.54758235605980960982539494006,
    ),
]


def spectrum(*lams):
    return SourceSpectrum(np.array(lams, dtype=float))


def test_config_validation():
    for kwargs in (
        {"distortion_tol": 0.0},
        {"perception_tol": -1e-9},
        {"max_dual_iterations": 0},
        {"dual_step_init": 0.0},
    ):
        with pytest.raises(DomainError):
            solver.SolverConfig(**kwargs)


def test_config_defaults():
    cfg = solver.SolverConfig()
    assert cfg.distortion_tol == 1e-9
    assert cfg.perception_tol == 1e-9
    assert cfg.max_dual_iterations == 500
    assert cfg.dual_step_init == 1.0


@pytest.mark.parametrize("lam,metric,D,P,nu1,nu2,gamma,rate", FROZEN_POINTS)
def test_frozen_scalar_points(lam, metric, D, P, nu1, nu2, gamma, rate):
    s = spectrum(lam)
    sol = solver.solve(s, TradeoffQuery(D, P, metric))
    assert sol.case_tag is SolutionCase.BOTH_ACTIVE
    assert abs(sol.total_rate - rate) < 1e-9
    assert abs(sol.gammas[0] - gamma) < 1e-9
    assert abs(sol.dual.nu1 - nu1) < 1e-6
    assert abs(sol.dual.nu2 - nu2) < 1e-6
    assert abs(sol.achieved_distortion - D) < 2e-9 * s.total_variance
    assert abs(sol.achieved_perception - P) < 2e-9
    assert sol.kkt_residual < 1e-8


def test_zero_rate_at_doubled_variance_kl():
    # a unit source can be reconstructed at rate zero with matched marginal
    # once the distortion budget reaches twice the variance
    sol = solver.solve(spectrum(1.0), TradeoffQuery(2.0, 0.0, PerceptionMetric.KL))
    assert sol.total_rate == 0.0
    assert sol.case_tag is SolutionCase.DISTORTION_INACTIVE
    assert sol.dual.nu1 == 0.0
    assert math.isinf(sol.dual.nu2)


def test_distortion_inactive_finite_budget_duals():
    sol = solver.solve(spectrum(1.0), TradeoffQuery(2.5, 0.7, PerceptionMetric.KL))
    assert sol.case_tag is SolutionCase.DISTORTION_INACTIVE
    assert sol.total_rate == 0.0
    assert sol.dual.nu1 == 0.0 and sol.dual.nu2 == 0.0
    assert sol.achieved_perception <= 0.7 + 1e-12


def test_scalar_perfect_perception_example():
    sol = solver.solve(spectrum(1.0), TradeoffQuery(1.0, 0.0, PerceptionMetric.W2))
    assert sol.case_tag is SolutionCase.BOTH_ACTIVE
    assert abs(sol.gammas[0] - 0.75) < 1e-12
    assert abs(sol.total_rate - HALF_LOG_4_3) < 1e-12
    assert abs(sol.dual.nu1 - 1.0 / 3.0) < 1e-10
    assert math.isinf(sol.dual.nu2)


def test_pair_perfect_perception_example():
    s = spectrum(1.0, 1.0)
    for metric in (PerceptionMetric.KL, PerceptionMetric.W2):
        sol = solver.solve(s, TradeoffQuery(2.0, 0.0, metric))
        assert abs(sol.total_rate - 2.0 * HALF_LOG_4_3) < 1e-10
        assert abs(sol.total_rate - 0.287682) < 1e-6


def test_solve_perfect_perception_matches_solve():
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    for D in (0.5, 5.0, 15.0, 25.0):
        direct = solver.solve_perfect_perception(s, D)
        routed = solver.solve(s, TradeoffQuery(D, 0.0, PerceptionMetric.W2))
        assert abs(direct.total_rate - routed.total_rate) < 1e-8


def test_perfect_perception_out_of_range():
    s = spectrum(1.0, 2.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(OutOfRangeError):
            solver.solve_perfect_perception(s, bad)


def test_perfect_perception_ceiling_flag():
    s = spectrum(1.0, 2.0)
    for D in (6.0, 7.5):
        sol = solver.solve_perfect_perception(s, D)
        assert sol.total_rate == 0.0
        assert sol.case_tag is SolutionCase.DISTORTION_INACTIVE


def test_perfect_perception_near_ceiling_underflow():
    # one ulp below the ceiling the rate is ~1e-19 and must stay positive
    sol = solver.solve_perfect_perception(spectrum(1.0), 2.0 - 1e-9)
    est, _ = solver.high_distortion_p0_estimate(spectrum(1.0), 1e-9)
    assert 0.0 < sol.total_rate < 1e-15
    assert abs(sol.total_rate / est - 1.0) < 1e-3


def test_perfect_perception_near_ceiling_accuracy():
    # within 1e-9 of the ceiling the rate follows the second-order law to
    # rounding, once the shortfall from the ceiling is solved for directly
    for lams in ((1.0,), (3.0, 2.0, 5.0, 4.0, 1.0)):
        s = spectrum(*lams)
        for eps_rel in (1e-9, 1e-11):
            D = (1.0 - eps_rel) * 2.0 * s.total_variance
            eps = 2.0 * s.total_variance - D
            sol = solver.solve_perfect_perception(s, D)
            est, _ = solver.high_distortion_p0_estimate(s, eps)
            assert abs(sol.total_rate / est - 1.0) < 1e-9


def test_scalar_p0_reduces_to_classic_rd():
    lam = 2.0
    s = spectrum(lam)
    for D in np.linspace(0.05, 3.95, 25):
        p0 = solver.solve_perfect_perception(s, float(D))
        shifted = float(D - D * D / (4.0 * lam))
        rd = reverse_waterfill(s, shifted)
        assert abs(p0.total_rate - rd.total_rate) < 1e-8


def test_unconstrained_reproduces_waterfill():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lam = rng.uniform(0.2, 8.0, size=int(rng.integers(1, 5)))
        s = SourceSpectrum(lam)
        D = float(rng.uniform(0.05, 0.9)) * s.total_variance
        sol = solver.solve(s, TradeoffQuery(D, math.inf, PerceptionMetric.UNCONSTRAINED))
        rd = reverse_waterfill(s, D)
        assert np.max(np.abs(sol.gammas - rd.gammas)) < 1e-10
        assert abs(sol.total_rate - rd.total_rate) < 1e-12


def test_metric_ordering_in_perception_budget():
    s = spectrum(3.0, 1.0)
    D = 1.5
    loose = solver.solve(
        s, TradeoffQuery(D, math.inf, PerceptionMetric.UNCONSTRAINED)
    ).total_rate
    exact = solver.solve(s, TradeoffQuery(D, 0.0, PerceptionMetric.W2)).total_rate
    for metric, P in (
        (PerceptionMetric.KL, 0.05),
        (PerceptionMetric.W2, 0.2),
    ):
        mid = solver.solve(s, TradeoffQuery(D, P, metric)).total_rate
        assert loose - 1e-12 <= mid <= exact + 1e-12


def test_rate_monotone_in_distortion():
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    grid = np.linspace(0.5, 29.0, 20)
    for metric, P in ((PerceptionMetric.KL, 0.1), (PerceptionMetric.W2, 1.0)):
        rates = [
            solver.solve(s, TradeoffQuery(float(D), P, metric)).total_rate
            for D in grid
        ]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_rate_monotone_in_perception():
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    D = 7.5
    for metric, grid in (
        (PerceptionMetric.KL, np.linspace(0.005, 2.0, 20)),
        (PerceptionMetric.W2, np.linspace(0.05, 12.0, 20)),
    ):
        rates = [
            solver.solve(s, TradeoffQuery(D, float(P), metric)).total_rate
            for P in grid
        ]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_five_component_example_consistency():
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    sol = solver.solve(s, TradeoffQuery(7.5, 0.1, PerceptionMetric.KL))
    assert sol.case_tag is SolutionCase.BOTH_ACTIVE
    assert abs(sol.achieved_distortion - 7.5) < 2e-9 * s.total_variance
    assert abs(sol.achieved_perception - 0.1) < 2e-9
    assert sol.kkt_residual < 1e-8
    assert np.all(sol.rates > 0.0)


def test_both_active_strict_positivity():
    s = spectrum(2.0, 0.5)
    # the plain waterfill at this budget collapses the small component, so
    # any finite divergence budget forces every component back to positive rate
    rd = reverse_waterfill(s, 1.2)
    assert rd.lambda_hats[1] == 0.0
    sol = solver.solve(s, TradeoffQuery(1.2, 1.0, PerceptionMetric.KL))
    assert sol.case_tag is SolutionCase.BOTH_ACTIVE
    assert np.all(sol.gammas < s.lambdas)
    assert np.all(sol.lambda_hats > 0.0)
    assert np.all(sol.rates > 0.0)


def test_w2_tolerates_collapsed_component():
    s = spectrum(2.0, 0.5)
    sol = solver.solve(s, TradeoffQuery(1.2, 0.6, PerceptionMetric.W2))
    assert sol.case_tag is SolutionCase.DISTORTION_ONLY
    rd = reverse_waterfill(s, 1.2)
    assert np.allclose(sol.gammas, rd.gammas, atol=1e-12)
    assert sol.achieved_perception <= 0.6


def test_stationarity_residuals_random_instances():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 25:
        lam = rng.uniform(0.5, 5.0, size=int(rng.integers(2, 5)))
        s = SourceSpectrum(lam)
        D = float(rng.uniform(0.15, 0.5)) * s.total_variance
        if checked % 2 == 0:
            metric, P = PerceptionMetric.KL, float(rng.uniform(0.03, 0.2))
        else:
            metric, P = PerceptionMetric.W2, float(
                rng.uniform(0.02, 0.1) * s.total_variance
            )
        sol = solver.solve(s, TradeoffQuery(D, P, metric))
        if sol.case_tag is not SolutionCase.BOTH_ACTIVE:
            continue
        res = solution_residuals(s, sol, metric, D, P)
        assert np.max(np.abs(res.stationarity_gamma)) < 1e-8
        assert np.max(np.abs(res.stationarity_lambda_hat)) < 1e-8
        checked += 1


def test_budget_feasibility_random_instances():
    rng = np.random.default_rng(23)
    for trial in range(30):
        lam = rng.uniform(0.1, 10.0, size=int(rng.integers(1, 7)))
        s = SourceSpectrum(lam)
        D = float(rng.uniform(0.05, 2.2)) * s.total_variance
        if trial % 2 == 0:
            metric, P = PerceptionMetric.KL, float(10.0 ** rng.uniform(-3.0, 0.5))
        else:
            metric, P = PerceptionMetric.W2, float(
                10.0 ** rng.uniform(-3.0, 0.0) * s.total_variance
            )
        sol = solver.solve(s, TradeoffQuery(D, P, metric))
        tol_d = 2e-9 * s.total_variance
        assert sol.achieved_distortion <= D + tol_d
        assert sol.achieved_perception <= P + 2e-9 * max(1.0, P)
        assert sol.total_rate >= 0.0
        assert np.all(sol.rates >= 0.0)


def test_high_distortion_estimate_converges():
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    ceiling = 2.0 * s.total_variance
    for eps_rel, tol in ((1e-2, 0.05), (1e-3, 0.01)):
        eps = eps_rel * s.total_variance
        sol = solver.solve_perfect_perception(s, ceiling - eps)
        est, levels = solver.high_distortion_p0_estimate(s, eps)
        assert abs(sol.total_rate / est - 1.0) < tol
        assert levels.shape == s.lambdas.shape
        assert np.all(levels < s.lambdas)


def test_low_distortion_estimate_converges():
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    for eps_rel, tol in ((1e-2, 0.05), (1e-3, 0.01)):
        eps = eps_rel * s.total_variance
        sol = solver.solve_perfect_perception(s, eps)
        est, levels = solver.low_distortion_p0_estimate(s, eps)
        assert abs(sol.total_rate / est - 1.0) < tol
        assert np.all(levels > 0.0)


def test_low_distortion_estimate_example():
    # unit pair at eps = 0.2: log(10) plus the perception surcharge 0.025
    est, _ = solver.low_distortion_p0_estimate(spectrum(1.0, 1.0), 0.2)
    assert abs(est - 2.32758509299404568401799145468) < 1e-14


def test_estimate_domain_errors():
    s = spectrum(1.0)
    with pytest.raises(DomainError):
        solver.high_distortion_p0_estimate(s, -0.1)
    assert solver.high_distortion_p0_estimate(s, 0.0)[0] == 0.0
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            solver.low_distortion_p0_estimate(s, bad)


def test_convergence_error_carries_diagnostics():
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    cfg = solver.SolverConfig(max_dual_iterations=1)
    with pytest.raises(ConvergenceError) as info:
        solver.solve(s, TradeoffQuery(7.5, 0.1, PerceptionMetric.KL), cfg)
    diag = info.value.diagnostics
    for key in ("iterations", "nu1", "nu2", "slack_distortion", "slack_perception"):
        assert key in diag


def wide_fuzz_queries(count):
    """The first ``count`` queries of the wide-range fuzz recipe.

    L uniform in [1, 11]; eigenvalues log-uniform over a spread of up to
    1e8 times a scale log-uniform in [1e-4, 1e4]; D/tr log-uniform in
    [1e-6, 2]; P = 0 with probability 0.1, else log-uniform in [1e-8, 10]
    (times tr for W2); KL and W2 alternate.
    """
    rng = np.random.default_rng(1)
    out = []
    for i in range(count):
        dim = int(rng.integers(1, 12))
        spread = 10.0 ** rng.uniform(0.0, 8.0)
        scale = 10.0 ** rng.uniform(-4.0, 4.0)
        lam = scale * np.exp(rng.uniform(0.0, math.log(spread), dim))
        tr = float(lam.sum())
        D = tr * 10.0 ** rng.uniform(-6.0, math.log10(2.0))
        metric = PerceptionMetric.KL if i % 2 == 0 else PerceptionMetric.W2
        if rng.uniform() < 0.1:
            P = 0.0
        else:
            P = 10.0 ** rng.uniform(-8.0, 1.0)
            if metric is PerceptionMetric.W2:
                P *= tr
        out.append((lam, D, P, metric))
    return out


WIDE_QUERIES = wide_fuzz_queries(30)


@pytest.mark.parametrize(
    "query", WIDE_QUERIES, ids=[f"q{i}" for i in range(len(WIDE_QUERIES))]
)
def test_wide_range_queries_meet_their_budgets(query):
    # scales from 1e-4 to 1e12 and budgets down to 1e-8: each query must
    # return, and meet D and P to 1e-6 of that budget itself
    lam, D, P, metric = query
    sol = solver.solve(SourceSpectrum(lam), TradeoffQuery(D, P, metric))
    assert sol.achieved_distortion <= D * (1.0 + 1e-6)
    assert sol.achieved_perception <= P * (1.0 + 1e-6)
