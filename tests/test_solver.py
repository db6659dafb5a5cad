"""End-to-end tests for the two-budget rate solver.

Frozen reference values come from a 50-digit arbitrary precision solve of
the scalar stationarity systems; at those points the dual pair is unique,
so the solver must reproduce it, not just the constraint equalities.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

from gaussian_rdp import kernels, solver
from gaussian_rdp.classic_rd import reverse_waterfill
from gaussian_rdp.cli import main
from gaussian_rdp.errors import ConvergenceError, DomainError, LineSearchError, OutOfRangeError
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


def test_budget_below_the_total_variance_skips_the_zero_rate_bracket(monkeypatch):
    # every zero-rate reconstruction has distortion tr + sum(lambda_hat) >= tr,
    # so a budget below tr cannot be met at rate zero and the KL bracket
    # for the cheapest one is never run
    def refused(*args, **kwargs):
        raise AssertionError("zero_rate_reconstruction called with D < tr")

    s = spectrum(3.0, 2.0, 1.0)
    q = TradeoffQuery(0.9 * s.total_variance, 0.05, PerceptionMetric.KL)
    expected = solver.solve(s, q).total_rate
    monkeypatch.setattr(solver, "zero_rate_reconstruction", refused)
    assert solver.solve(s, q).total_rate == expected > 0.0


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


def test_convergence_error_carries_diagnostics(monkeypatch):
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    monkeypatch.setattr(solver, "_MAX_DUAL_ITERATIONS", 1)
    with pytest.raises(ConvergenceError) as info:
        solver.solve(s, TradeoffQuery(7.5, 0.1, PerceptionMetric.KL))
    diag = info.value.diagnostics
    for key in ("iterations", "nu1", "nu2", "slack_distortion", "slack_perception"):
        assert key in diag


def wide_fuzz_queries(count, seed=1):
    """The first ``count`` queries of the wide-range fuzz recipe.

    L uniform in [1, 11]; eigenvalues log-uniform over a spread of up to
    1e8 times a scale log-uniform in [1e-4, 1e4]; D/tr log-uniform in
    [1e-6, 2]; P = 0 with probability 0.1, else log-uniform in [1e-8, 10]
    (times tr for W2); KL and W2 alternate; ``seed`` seeds the generator.
    """
    rng = np.random.default_rng(seed)
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


def normalized(query):
    """The query with lambda, D and a W2 budget divided by tr(Sigma)."""
    lam, D, P, metric = query
    tr = float(lam.sum())
    return lam / tr, D / tr, P / tr if metric is PerceptionMetric.W2 else P, metric


# (seed, query) pairs of the recipe, with variances of 2e5-6e9, that once
# needed a projected-gradient fallback to the Newton step; it stalled on
# (40, 6), and on (17, 141) once normalized
FALLBACK_QUERIES = [
    (7, 255), (9, 113), (14, 219), (17, 34), (17, 141), (33, 5),
    (34, 217), (37, 53), (40, 6), (40, 45), (41, 105),
]
_RECIPES = {seed: wide_fuzz_queries(300, seed) for seed, _ in FALLBACK_QUERIES}
WIDE_QUERIES = {f"q{i}": q for i, q in enumerate(wide_fuzz_queries(30))}
WIDE_QUERIES.update({f"s{seed}q{i}": _RECIPES[seed][i] for seed, i in FALLBACK_QUERIES})
WIDE_QUERIES["s17q141-normalized"] = normalized(_RECIPES[17][141])
# large KL budgets, where lambda_hat/lam falls far below one on a small
# component and nu2 falls like exp(-2P) or faster: the KL term once lost
# that ratio's digits, and steps in nu rather than log(nu) crawled through
# the iteration budget from P = 8 (3, 2, 1), 13 (spread) and 14 (two). Log
# steps kept only where they cut the slacks by a tenth, with no shorter log
# step before the damped fallback, still failed at P = 100 (two, spread)
# and from P = 10 on (3, 2, 1). Still raising: (3, 2, 1) at P = 100
_LARGE_KL_BUDGETS = (8.0, 10.0, 12.0, 13.0, 14.0, 16.0, 20.0, 30.0, 40.0)
WIDE_QUERIES.update(
    {
        f"kl-{name}-P{P:g}": (np.array(lam), D, P, PerceptionMetric.KL)
        for name, lam, D, budgets in (
            ("two", [0.01, 1.0], 0.5, _LARGE_KL_BUDGETS + (100.0,)),
            ("spread", [1e-6, 1.0, 1e6, 3.0], 1.0, _LARGE_KL_BUDGETS + (100.0,)),
            ("321", [3.0, 2.0, 1.0], 3.0, _LARGE_KL_BUDGETS),
        )
        for P in budgets
    }
)


@pytest.mark.parametrize("query", WIDE_QUERIES.values(), ids=WIDE_QUERIES.keys())
def test_wide_range_queries_meet_their_budgets(query):
    # scales from 1e-4 to 1e12 and budgets down to 1e-8: each query must
    # return, and meet D and P to 1e-6 of that budget itself
    lam, D, P, metric = query
    sol = solver.solve(SourceSpectrum(lam), TradeoffQuery(D, P, metric))
    assert sol.achieved_distortion <= D * (1.0 + 1e-6)
    assert sol.achieved_perception <= P * (1.0 + 1e-6)


def test_rest_of_the_fuzz_recipe_meets_its_budgets():
    # queries 30-299 of the same recipe, in one test: q57 (W2), q104 and
    # q158 (KL), with variances up to 4e6, once exhausted the dual search
    failed = []
    for i, (lam, D, P, metric) in enumerate(wide_fuzz_queries(300)[30:], start=30):
        try:
            sol = solver.solve(SourceSpectrum(lam), TradeoffQuery(D, P, metric))
        except ConvergenceError:
            failed.append(f"q{i}")
            continue
        if sol.achieved_distortion > D * (1.0 + 1e-6) or sol.achieved_perception > P * (1.0 + 1e-6):
            failed.append(f"q{i}")
    assert failed == []


# solve-mix pool candidate 9 of stratum 100 (perfbench workloads.sized_query),
# a KL query whose rate is near zero: nu1*D is 2.7e3 times the rate, so a
# search that stopped with both budgets met to 2e-10 of themselves returned
# a rate 2.0e-7 off, where the benchmark's reference check allows 1e-7
CANDIDATE_9_100 = (
    [
        0.886321794663313, 0.5549212066928098, 0.3626109662162228, 0.18249628302558546,
        0.15581568206025423, 0.0984786604523441, 0.07465886536018457, 0.04036900628476817,
        0.020899427349430465, 0.02004009758507413, 0.010239819407982662, 0.00824727295236679,
        0.005493474306116202, 0.0031350502346516236, 0.0023014909231220985,
        0.0010609322437124078,
    ],
    3.5746158471368803,
    0.5891530749105383,
)


def test_rate_near_zero_is_accurate_to_its_own_digits():
    # the rate with both budgets met to 1e-13 of themselves
    # (solver._BUDGET_RTOL = 1e-13)
    lam, D, P = CANDIDATE_9_100
    sol = solver.solve(SourceSpectrum(lam), TradeoffQuery(D, P, PerceptionMetric.KL))
    assert sol.case_tag is SolutionCase.BOTH_ACTIVE
    assert abs(sol.total_rate - 1.8414261287e-6) <= 1e-9 * 1.8414261287e-6


# spectra 0, 2, 3, 4 and 9 of a seeded tiny-budget sweep (numpy
# default_rng(20261020), L = integers(1, 9), lambda = exp(uniform(0, log 100,
# L)), D = 0.3 tr); P is the KL budget itself, or P/tr for W2
TINY_BUDGET_SPECTRA = {
    0: [1.853388906478313, 52.58487620789364, 5.563365270435626, 26.739978821226625,
        62.025967096112616, 1.5175676018761146, 67.75266423458588],
    2: [33.85479735434536, 20.94653415586685, 11.612326986094617, 13.91774206278429,
        5.221630686709379],
    3: [30.267209937005834, 23.335913016080806, 1.242967680636447, 1.3489120186121746,
        6.124621228269264],
    4: [5.018667374438065, 25.610469242148852, 17.118804868453967, 68.39954564890864,
        9.062912016160052],
    9: [67.35770988140824, 2.2718348818083554],
}
# the perception sum's rounding error is 6 to 55 times 1e-9 of P here, so
# no multiplier pair may meet that tolerance: a search that stopped only
# there landed within it by luck, and once spun through its iteration
# budget on each of these. The rates are those of such lucky searches
TINY_BUDGET_QUERIES = {
    "kl-s3-1e-15": (3, PerceptionMetric.KL, 1e-15, 2.0091439444128),
    "w2-s0-1e-16": (0, PerceptionMetric.W2, 1e-16, 2.88403670812848),
    "w2-s0-1e-15.5": (0, PerceptionMetric.W2, 10**-15.5, 2.88403668425906),
    "w2-s2-1e-15.5": (2, PerceptionMetric.W2, 10**-15.5, 2.84940303020452),
    "w2-s3-1e-16.5": (3, PerceptionMetric.W2, 10**-16.5, 2.00914395670033),
    "w2-s4-1e-14.5": (4, PerceptionMetric.W2, 10**-14.5, 2.44237386936639),
    "w2-s9-1e-16": (9, PerceptionMetric.W2, 1e-16, 0.731251024924712),
}


@pytest.mark.parametrize("query", TINY_BUDGET_QUERIES.values(), ids=TINY_BUDGET_QUERIES.keys())
def test_tiny_perception_budgets_are_met_to_their_rounding_error(query):
    spectrum, metric, p, rate = query
    lam = np.array(TINY_BUDGET_SPECTRA[spectrum])
    tr = float(lam.sum())
    D, P = 0.3 * tr, p * tr if metric is PerceptionMetric.W2 else p
    sol = solver.solve(SourceSpectrum(lam), TradeoffQuery(D, P, metric))
    assert sol.case_tag is SolutionCase.BOTH_ACTIVE
    assert sol.achieved_distortion <= D * (1.0 + 1e-6)
    assert sol.achieved_perception <= P * (1.0 + 1e-6)
    assert abs(sol.total_rate - rate) <= 1e-10 * rate


@pytest.mark.parametrize(
    "spectrum,metric,p",
    [
        (2, PerceptionMetric.KL, 1e-21),
        (9, PerceptionMetric.W2, 10**-23.5),
        (2, PerceptionMetric.KL, 1e-22),
        (9, PerceptionMetric.W2, 1e-20),
    ],
    ids=["kl-s2-1e-21", "w2-s9-1e-23.5", "kl-s2-1e-22", "w2-s9-1e-20"],
)
def test_budgets_below_their_rounding_error_raise(spectrum, metric, p):
    # here the perception sum's rounding error exceeds 1e-6 of P, so no
    # point can be shown to meet the budget: the search raises, where
    # stopping within that error returned a budget miss. The last two once
    # returned, landing within 1e-6 of P by luck: the true perception of
    # the first exceeded P by 1.13e-5 of P
    lam = np.array(TINY_BUDGET_SPECTRA[spectrum])
    tr = float(lam.sum())
    P = p * tr if metric is PerceptionMetric.W2 else p
    with pytest.raises(ConvergenceError):
        solver.solve(SourceSpectrum(lam), TradeoffQuery(0.3 * tr, P, metric))


@pytest.mark.parametrize(
    "metric,budget",
    [
        (PerceptionMetric.KL, lambda c: 0.05),
        (PerceptionMetric.W2, lambda c: 0.3 * c),
        (PerceptionMetric.W2, lambda c: 0.0),
        (PerceptionMetric.UNCONSTRAINED, lambda c: math.inf),
    ],
    ids=["kl", "w2", "p0", "none"],
)
def test_solve_is_free_of_units_over_the_whole_double_range(metric, budget):
    # lambda = c*(3, 2, 1), D = 2c: the KL search once formed nu1^2, which
    # overflows beyond c of about 1e-153, and raised at 148 of these scales
    def rate(c):
        q = TradeoffQuery(2.0 * c, budget(c), metric)
        return solver.solve(SourceSpectrum(c * np.array([3.0, 2.0, 1.0])), q).total_rate

    ref = rate(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        off = {k: rate(10.0**k) / ref - 1.0 for k in range(-300, 301, 2)}
    assert {k: d for k, d in off.items() if not abs(d) <= 1e-12} == {}


def test_a_search_that_stops_moving_raises_at_once():
    # (3, 2, 1), D = 3, KL P = 100: the root sits at nu1 = 1/(2*lambda_3),
    # where the third component's gap vanishes, and the search lands on
    # nu1 = 0.5 exactly with nu2 near 1e-164; no candidate step passes
    # there. At P = 10 a damped step was once accepted with nu unchanged,
    # and the search repeated it to the end of its iteration budget
    with pytest.raises(LineSearchError, match="stalled") as info:
        solver.solve(SourceSpectrum([3.0, 2.0, 1.0]), TradeoffQuery(3.0, 100.0, PerceptionMetric.KL))
    assert info.value.diagnostics["iterations"] < solver._MAX_DUAL_ITERATIONS


def test_distortion_budget_is_met_relative_to_itself():
    # recipe seed 6, q158: D is 2.5% of the total variance, so a tolerance
    # relative to the total let the distortion exceed D by 1.6e-8 of D
    lam, D, P, metric = wide_fuzz_queries(159, seed=6)[158]
    sol = solver.solve(SourceSpectrum(lam), TradeoffQuery(D, P, metric))
    assert sol.case_tag is SolutionCase.BOTH_ACTIVE
    assert sol.achieved_distortion <= D * (1.0 + 1.01e-9)


# Spectrum of a 16 x 16 square-Wishart covariance (benchmark seed 208).
# At the W2 query below the smallest component keeps a gap lam - gamma of
# ~1e-26: positive, though its water level rounds to its variance.
SPECTRUM_208 = [
    2.8964854506463285, 2.5540674938385286, 2.213744218206299, 1.58512275656357,
    1.4337267252712245, 1.3047931676798048, 0.9030401321073412, 0.7785159147885591,
    0.39160295971051795, 0.2903143893194152, 0.26054687223713513, 0.1447705722734061,
    0.08894504890290586, 0.021303170965131134, 0.007217492518163343,
    5.054362820056077e-09,
]
QUERY_208 = TradeoffQuery(4.462258911024813, 0.7437098185041356, PerceptionMetric.W2)


def test_component_near_zero_rate_keeps_a_positive_rate():
    sol = solver.solve(SourceSpectrum(SPECTRUM_208), QUERY_208)
    assert sol.case_tag is SolutionCase.BOTH_ACTIVE
    assert np.all(sol.rates > 0.0)
    assert sol.kkt_residual <= 1e-6


def test_search_ending_on_a_zero_gap_raises_convergence_error(monkeypatch):
    # the gap formed by subtraction reads zero where the water level rounds
    # to the variance; the search must then fail as a convergence failure
    # (exit code 3), by a check that no interpreter flag can skip
    def subtracted(lam, nu1, nu2):
        gammas, _, hats = kernels.stationary_pair_w2(lam, nu1, nu2)
        return gammas, lam - np.minimum(gammas, lam), hats

    monkeypatch.setattr(solver, "stationary_pair_w2", subtracted)
    with pytest.raises(ConvergenceError) as info:
        solver.solve(SourceSpectrum(SPECTRUM_208), QUERY_208)
    assert "slack_perception" in info.value.diagnostics
    argv = [
        "verify", "--lambdas", ",".join(repr(v) for v in SPECTRUM_208),
        "--metric", "w2", "--distortion", repr(QUERY_208.distortion_budget),
        "--perception", repr(QUERY_208.perception_budget),
    ]
    assert main(argv) == 3


@pytest.mark.parametrize(
    "metric,P", [(PerceptionMetric.KL, 0.8), (PerceptionMetric.W2, 0.0)], ids=["kl", "p0"]
)
def test_certificate_holds_on_components_near_zero_rate(metric, P):
    s = SourceSpectrum(SPECTRUM_208)
    sol = solver.solve(s, TradeoffQuery(0.3 * s.total_variance, P, metric))
    assert sol.case_tag is SolutionCase.BOTH_ACTIVE
    assert sol.kkt_residual <= 1e-6


def test_perfect_perception_certificate_near_ceiling():
    sol = solver.solve_perfect_perception(spectrum(1.0), 2.0 - 2e-9)
    assert sol.kkt_residual <= 1e-12


FIVE = (3.0, 2.0, 5.0, 4.0, 1.0)
SOLVE_PATHS = {
    # name: (lambdas, D, P, metric, expected case)
    "zero_rate_kl": ((1.0,), 2.5, 0.7, PerceptionMetric.KL, SolutionCase.DISTORTION_INACTIVE),
    "zero_rate_p0": (FIVE, 31.0, 0.0, PerceptionMetric.W2, SolutionCase.DISTORTION_INACTIVE),
    "waterfill": (FIVE, 7.5, math.inf, PerceptionMetric.UNCONSTRAINED,
                  SolutionCase.DISTORTION_ONLY),
    "waterfill_w2": ((2.0, 0.5), 1.2, 0.6, PerceptionMetric.W2, SolutionCase.DISTORTION_ONLY),
    "dual_kl": (FIVE, 7.5, 0.1, PerceptionMetric.KL, SolutionCase.BOTH_ACTIVE),
    "dual_w2": (FIVE, 7.5, 1.0, PerceptionMetric.W2, SolutionCase.BOTH_ACTIVE),
    "p0_w2": (FIVE, 7.5, 0.0, PerceptionMetric.W2, SolutionCase.BOTH_ACTIVE),
    "p0_kl": (FIVE, 0.5, 0.0, PerceptionMetric.KL, SolutionCase.BOTH_ACTIVE),
}


@pytest.mark.parametrize("path", list(SOLVE_PATHS))
def test_solution_residuals_reproduce_the_certificate(path):
    lams, D, P, metric, case = SOLVE_PATHS[path]
    s = spectrum(*lams)
    sol = solver.solve(s, TradeoffQuery(D, P, metric))
    assert sol.case_tag is case
    assert solution_residuals(s, sol, metric, D, P).max_abs() == sol.kkt_residual
    if metric is PerceptionMetric.UNCONSTRAINED:
        rd = reverse_waterfill(s, D)
        assert rd == sol
        assert solution_residuals(s, rd, metric, D, P).max_abs() == rd.kkt_residual


def relative_hessian_at(lam, nu1, nu2, metric):
    lam = np.asarray(lam, dtype=float)
    state = solver._evaluate_dual(lam, nu1, nu2, metric, 0.0, 0.0)
    h00, h01, h11 = solver._relative_hessian(lam, nu1, nu2, state, metric)
    return np.array([[h00, h01], [h01, h11]]), state


def central_slack_jacobian(lam, nu1, nu2, metric, rel):
    nu = np.array([nu1, nu2])
    jac = np.empty((2, 2))
    for j in range(2):
        h = rel * nu[j]
        up, down = nu.copy(), nu.copy()
        up[j] += h
        down[j] -= h
        a = solver._evaluate_dual(lam, up[0], up[1], metric, 0.0, 0.0)
        b = solver._evaluate_dual(lam, down[0], down[1], metric, 0.0, 0.0)
        jac[:, j] = [(a.slack_d - b.slack_d) / (2.0 * h), (a.slack_p - b.slack_p) / (2.0 * h)]
    return jac


# the slacks carry the rounding of the stationary maps: at nu1/nu2 = 1e3 the
# W2 differences at this step are off by 4e-7 of the Hessian, at 1e4 by
# 5e-5, so the grid stops at 1e2 (the mpmath point below needs no
# differences)
HESSIAN_DUALS = [
    (nu1, nu2)
    for nu1 in np.geomspace(0.1, 1e3, 5)
    for nu2 in np.geomspace(0.1, 1e3, 5)
    if nu1 < 1e3 * nu2
]


@pytest.mark.parametrize("metric", [PerceptionMetric.KL, PerceptionMetric.W2], ids=["kl", "w2"])
def test_slack_jacobian_matches_central_differences(metric):
    # the slack Jacobian in relative coordinates, H = -diag(nu) J diag(nu)
    lam = np.geomspace(1e-3, 1.0, 4)
    worst = 0.0
    for nu1, nu2 in HESSIAN_DUALS:
        hess, _ = relative_hessian_at(lam, nu1, nu2, metric)
        fd = -np.outer([nu1, nu2], [nu1, nu2]) * central_slack_jacobian(lam, nu1, nu2, metric, 1e-4)
        # entries relative to sqrt(|H_ii H_jj|), which bounds the off-diagonal
        # of a definite matrix, keeps a near-zero entry meaningful and is
        # the same for J as for H
        diag = np.abs(np.diag(hess))
        worst = max(worst, float(np.max(np.abs(hess - fd) / np.sqrt(np.outer(diag, diag)))))
    assert worst <= 1e-6


def step_query(lam, nu1, nu2, metric):
    # budgets met at (1.3 nu1, 0.7 nu2), so a step from (nu1, nu2) is a real one
    target = solver._evaluate_dual(lam, 1.3 * nu1, 0.7 * nu2, metric, 0.0, 0.0)
    D, P = target.slack_d, target.slack_p
    state = solver._evaluate_dual(lam, nu1, nu2, metric, D, P)
    hess = solver._relative_hessian(lam, nu1, nu2, state, metric)
    return D, P, state, hess


@pytest.mark.parametrize("metric", [PerceptionMetric.KL, PerceptionMetric.W2], ids=["kl", "w2"])
def test_damped_step_matches_a_dense_solve(metric):
    # each damped candidate must be nu*(1 + y) for y = (H + mu I)^-1 b with
    # the relative Hessian H, b = nu*slacks and mu stepped tenfold from its
    # floor, 1e-6 of the larger of tr H and max |b|
    lam = np.geomspace(1e-3, 1.0, 4)
    worst = 0.0
    for nu1, nu2 in HESSIAN_DUALS:
        D, P, state, (h00, h01, h11) = step_query(lam, nu1, nu2, metric)
        nu = np.array([nu1, nu2])
        hess = np.array([[h00, h01], [h01, h11]])
        b = nu * np.array([state.slack_d, state.slack_p])
        mu = 1e-6 * max(h00 + h11, float(np.max(np.abs(b))))
        expected = []
        for _ in range(solver._MAX_DAMPINGS):
            y = np.linalg.solve(hess + mu * np.eye(2), b)
            if np.all(y > -0.9):
                expected.append(nu * (1.0 + y))
            mu *= 10.0
        damped = [
            np.array(cand)
            for cand, _, armijo in solver._candidates(nu1, nu2, state, (h00, h01, h11), D, P)
            if armijo
        ]
        assert len(damped) == len(expected) > 0
        for cand, ref in zip(damped, expected):
            worst = max(worst, float(np.max(np.abs(cand - ref) / cand)))
    assert worst <= 1e-13


@pytest.mark.parametrize("metric", [PerceptionMetric.KL, PerceptionMetric.W2], ids=["kl", "w2"])
def test_log_step_matches_a_dense_solve(metric):
    # dt solves diag(1/dist, 1/perc) J diag(nu) dt = -(log(dist/D), log(perc/P)),
    # where diag(1/dist, 1/perc) J diag(nu) = -diag(1/(nu*sums)) H
    lam = np.geomspace(1e-3, 1.0, 4)
    worst = 0.0
    for nu1, nu2 in HESSIAN_DUALS:
        D, P, state, (h00, h01, h11) = step_query(lam, nu1, nu2, metric)
        dt = solver._log_step(nu1, nu2, state, (h00, h01, h11), D, P)
        assert dt is not None
        sums = np.array([D + state.slack_d, P + state.slack_p])
        jac_log = -np.array([[h00, h01], [h01, h11]]) / (np.array([nu1, nu2]) * sums)[:, None]
        ref = np.linalg.solve(jac_log, -np.log(sums / np.array([D, P])))
        # within the step cap, so the step is the Newton step itself
        assert np.max(np.abs(ref)) < solver._MAX_LOG_STEP
        worst = max(worst, float(np.max(np.abs(np.array(dt) - ref))))
    assert worst <= 1e-13


def mp_budget_sums(lam, nu1, nu2, metric, gammas):
    """Distortion and perception sums at the 60-digit stationary points.

    Each component's water level solves the lambda_hat condition with
    ``lambda_hat = gap/(2*gamma*nu1)^2`` from the gamma condition, bracketed
    around the double-precision level.
    """
    dist = perc = mpmath.mpf(0)
    for l, g0 in zip(lam, gammas):
        l, g0 = mpmath.mpf(l), mpmath.mpf(g0)

        def hat(g):
            return (l - g) / (2 * g * nu1) ** 2

        def slope(h):
            if metric is PerceptionMetric.KL:
                return (1 / l - 1 / h) / 2
            return 1 - mpmath.sqrt(l / h)

        bracket = (g0 * (1 - mpmath.mpf("1e-9")), g0 * (1 + mpmath.mpf("1e-9")))
        g = mpmath.findroot(
            lambda g: nu1 * (1 - 2 * g * nu1) + nu2 * slope(hat(g)), bracket, solver="illinois"
        )
        h = hat(g)
        dist += l - 2 * mpmath.sqrt(h * (l - g)) + h
        if metric is PerceptionMetric.KL:
            perc += (h / l - 1 - mpmath.log(h / l)) / 2
        else:
            perc += (mpmath.sqrt(l) - mpmath.sqrt(h)) ** 2
    return dist, perc


def mp_kl_rate(lam, D, P, nu1, nu2):
    """KL rate at the 50-digit root of both budget equations, sought from (nu1, nu2).

    Each component's gap ``lam - gamma`` solves its gamma condition
    ``nu1*(1 - 2*gamma*nu1) + nu2*(1/lam - 1/lambda_hat)/2 = 0`` with
    ``lambda_hat = gap/(2*gamma*nu1)^2``, by bisection in ``log(gap)``,
    where the condition rises; Newton in ``(nu1, log(nu2))`` meets both
    budgets.
    """
    with mpmath.workdps(50):
        lam = [mpmath.mpf(v) for v in lam]

        def allocation(n1, n2):
            out = []
            for l in lam:
                def condition(x):
                    gap = mpmath.exp(x)
                    cap = 2 * (l - gap) * n1
                    return n1 * (1 - cap) + n2 * (1 / l - cap**2 / gap) / 2

                lo, hi = mpmath.log(l) - 1000, mpmath.log(l) - mpmath.mpf("1e-40")
                for _ in range(200):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if condition(mid) < 0 else (lo, mid)
                gap = mpmath.exp((lo + hi) / 2)
                out.append((l, gap, gap / (2 * (l - gap) * n1) ** 2))
            return out

        def relative_slacks(n1, t2):
            dist = perc = 0
            for l, gap, h in allocation(n1, mpmath.exp(t2)):
                dist += l - 2 * mpmath.sqrt(h * gap) + h
                perc += (h / l - 1 - mpmath.log(h / l)) / 2
            return [dist / D - 1, perc / P - 1]

        n1, t2 = mpmath.findroot(relative_slacks, (mpmath.mpf(nu1), mpmath.log(nu2)))
        rates = (-mpmath.log1p(-gap / l) / 2 for l, gap, _ in allocation(n1, mpmath.exp(t2)))
        return float(sum(rates))


def test_large_kl_budget_rate_matches_mpmath():
    # nu2 is near 7.7e-29 here, and the collapsed component keeps
    # lambda_hat/lam near 4e-27: far below where the KL term's digits and
    # steps in nu once gave out
    lam, D, P = [0.01, 1.0], 0.5, 30.0
    sol = solver.solve(SourceSpectrum(lam), TradeoffQuery(D, P, PerceptionMetric.KL))
    ref = mp_kl_rate(lam, D, P, sol.dual.nu1, sol.dual.nu2)
    assert abs(sol.total_rate - ref) <= 1e-12 * ref


@pytest.mark.parametrize("metric", [PerceptionMetric.KL, PerceptionMetric.W2], ids=["kl", "w2"])
def test_slack_jacobian_matches_mpmath(metric):
    # entry by entry, relative: the same bound for J as for H
    lam, nu1, nu2 = (0.05, 0.4, 2.0), 3.0, 0.5
    hess, state = relative_hessian_at(lam, nu1, nu2, metric)
    with mpmath.workdps(60):
        nu = [mpmath.mpf(nu1), mpmath.mpf(nu2)]
        ref = np.empty((2, 2))
        for j in range(2):
            h = nu[j] * mpmath.mpf("1e-25")
            up, down = list(nu), list(nu)
            up[j] += h
            down[j] -= h
            a = mp_budget_sums(lam, up[0], up[1], metric, state.gammas)
            b = mp_budget_sums(lam, down[0], down[1], metric, state.gammas)
            ref[:, j] = [float(-nu[i] * (a[i] - b[i]) / (2 * h) * nu[j]) for i in range(2)]
    assert np.max(np.abs(hess - ref) / np.abs(ref)) <= 1e-12


def assert_damped_step(lam, nu, state, metric):
    # D = 1 and P = 0.1, met to 1e-9 of themselves; RuntimeWarnings raise.
    # There is no log step here, so the step taken is a damped one
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        hess = solver._relative_hessian(lam, nu[0], nu[1], state, metric)
        assert solver._log_step(nu[0], nu[1], state, hess, 1.0, 0.1) is None
        step = solver._try_newton(lam, nu, state, metric, 1.0, 0.1, 1e-9, 1e-10)
    assert step is not None
    cand, _ = step
    assert np.all(np.isfinite(cand)) and np.all(cand > 0.0)


def test_slack_jacobian_on_the_kl_zero_rate_boundary():
    # on the zero-rate boundary (gaps 0) gamma is pinned and only lambda_hat
    # responds: in units of each variance, with k = nu1*lam, w = nu2 and
    # h = lambda_hat/lam, H = sum [k^2, k*w*p'; k*w*p', w^2*p'^2]/(w*p'').
    # Multipliers small enough to reach the boundary by underflow leave the
    # dual value non-finite, so the boundary state is set by hand
    lam = np.array([1e-3, 0.5, 2.0])
    nu1, nu2 = 0.3, 2.0
    state = solver._evaluate_dual(lam, nu1, nu2, PerceptionMetric.KL, 0.0, 0.0)
    state.gammas[:] = lam
    state.gaps[:] = 0.0
    state.hats[:] = lam * nu2 / (nu2 + 2.0 * nu1 * lam)
    h00, h01, h11 = solver._relative_hessian(lam, nu1, nu2, state, PerceptionMetric.KL)
    k, h = nu1 * lam, state.hats / lam
    dp = 0.5 * (1.0 - 1.0 / h)
    c = nu2 * 0.5 / h**2
    expected = [np.sum(k * k / c), np.sum(k * nu2 * dp / c), np.sum(nu2 * nu2 * dp * dp / c)]
    assert np.all(np.array(expected) != 0.0)
    assert np.allclose([h00, h01, h11], expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_newton_rejects_a_candidate_whose_dual_value_is_not_finite(monkeypatch, value):
    # where the KL stationary point underflows, a slack and so the dual
    # value are not finite, and a value of +inf would pass the rise test:
    # a candidate evaluated to any non-finite value must not be taken,
    # though its slacks, left as they are, would pass the slack test
    lam, nu = np.array([1e-3, 0.5, 2.0]), np.array([0.3, 2.0])
    args = (PerceptionMetric.KL, 1.0, 0.1)
    state = solver._evaluate_dual(lam, nu[0], nu[1], *args)
    step = solver._try_newton(lam, nu, state, *args, 1e-9, 1e-10)
    assert step is not None
    evaluate = solver._evaluate_dual

    def nonfinite_value(*a):
        st = evaluate(*a)
        st.value = value
        return st

    monkeypatch.setattr(solver, "_evaluate_dual", nonfinite_value)
    assert solver._try_newton(lam, nu, state, *args, 1e-9, 1e-10) is None


def test_damped_step_on_a_nonfinite_jacobian():
    lam = np.array([0.5, 2.0])
    nu = np.array([1.0, 1.0])
    state = solver._evaluate_dual(lam, nu[0], nu[1], PerceptionMetric.W2, 1.0, 0.1)
    state.hats[0] = 0.0
    hess = solver._relative_hessian(lam, nu[0], nu[1], state, PerceptionMetric.W2)
    assert not all(map(math.isfinite, hess))
    # the step falls back to H = 0: a damped gradient step in relative units
    assert_damped_step(lam, nu, state, PerceptionMetric.W2)
