"""Tests for core model types and the zero-rate feasibility helpers."""

import math

import numpy as np
import pytest

from gaussian_rdp.errors import (
    DimensionZeroError,
    DomainError,
    NonPositiveDistortionError,
)
from gaussian_rdp.model import (
    DualPoint,
    PerceptionMetric,
    RdpSolution,
    SolutionCase,
    SourceSpectrum,
    TradeoffQuery,
    from_covariance,
    zero_rate_reconstruction,
)

# Oracle: scalar KL budget (log 2 - 1/2)/2 is met with multiplier mu = 2,
# giving lambda_hat = 1/2 and zero-rate distortion 3/2.
KL_HALF_BUDGET = (math.log(2.0) - 0.5) / 2.0


def test_metric_from_name():
    assert PerceptionMetric.from_name("kl") is PerceptionMetric.KL
    assert PerceptionMetric.from_name("W2") is PerceptionMetric.W2
    assert PerceptionMetric.from_name("none") is PerceptionMetric.UNCONSTRAINED
    with pytest.raises(DomainError):
        PerceptionMetric.from_name("hellinger")


def test_spectrum_validation():
    with pytest.raises(DimensionZeroError):
        SourceSpectrum(np.array([]))
    with pytest.raises(DomainError):
        SourceSpectrum(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        SourceSpectrum(np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        SourceSpectrum(np.array([1.0, np.inf]))


def test_spectrum_preserves_order_and_sums():
    s = SourceSpectrum(np.array([0.5, 2.0]))
    assert np.array_equal(s.lambdas, [0.5, 2.0])
    assert s.dim == 2
    assert s.total_variance == 2.5


def test_spectrum_array_is_readonly():
    s = SourceSpectrum(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.lambdas[0] = 9.0


def test_from_covariance_sorts_descending():
    s = from_covariance(np.diag([3.0, 2.0, 5.0, 4.0, 1.0]))
    assert np.array_equal(s.lambdas, [5.0, 4.0, 3.0, 2.0, 1.0])
    assert s.basis is not None


def test_from_covariance_strips_null_modes():
    q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))
    m = q @ np.diag([2.0, 1.0, 0.0]) @ q.T
    s = from_covariance(0.5 * (m + m.T))
    assert s.dim == 2
    assert np.allclose(s.lambdas, [2.0, 1.0], atol=1e-10)


def test_query_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NonPositiveDistortionError):
            TradeoffQuery(bad, 0.1, PerceptionMetric.KL)
    with pytest.raises(DomainError):
        TradeoffQuery(1.0, -0.5, PerceptionMetric.KL)
    # Unconstrained metric pairs only with an infinite budget, and conversely.
    with pytest.raises(DomainError):
        TradeoffQuery(1.0, 2.0, PerceptionMetric.UNCONSTRAINED)
    with pytest.raises(DomainError):
        TradeoffQuery(1.0, math.inf, PerceptionMetric.KL)
    q = TradeoffQuery(1.0, math.inf, PerceptionMetric.UNCONSTRAINED)
    assert math.isinf(q.perception_budget)
    q0 = TradeoffQuery(1.0, 0.0, PerceptionMetric.W2)
    assert q0.perception_budget == 0.0


def _solution(gammas, hats, rates):
    return RdpSolution(
        total_rate=0.0, gammas=gammas, lambda_hats=hats, rates=rates,
        dual=DualPoint(nu1=0.0, nu2=0.0), case_tag=SolutionCase.DISTORTION_ONLY,
        kkt_residual=0.0, achieved_distortion=1.0, achieved_perception=0.0,
    )


def test_allocation_and_dual_validation():
    with pytest.raises(DomainError):
        _solution([0.0], [1.0], [0.0])
    with pytest.raises(DomainError):
        _solution([0.5], [-1.0], [0.0])
    with pytest.raises(DomainError):
        _solution([0.5], [1.0], [-1e-3])
    with pytest.raises(DomainError):
        _solution([0.5, 0.5], [1.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        DualPoint(nu1=math.inf, nu2=1.0)
    d = DualPoint(nu1=0.0, nu2=math.inf)
    assert math.isinf(d.nu2)


def test_solution_arrays_are_readonly_and_compare_by_value():
    g = np.array([0.5, 0.25])
    sol = _solution(g, [0.5, 0.0], [0.1, 0.0])
    g[0] = 0.4  # the solution holds its own copy
    assert sol.gammas[0] == 0.5
    for name in ("gammas", "lambda_hats", "rates"):
        with pytest.raises(ValueError):
            getattr(sol, name)[0] = 1.0
    assert sol == _solution([0.5, 0.25], [0.5, 0.0], [0.1, 0.0])
    assert sol != _solution([0.5, 0.25], [0.5, 0.0], [0.1, 1e-300])


def test_zero_rate_unconstrained_collapses_to_zero():
    s = SourceSpectrum(np.array([2.0, 0.5]))
    hats, dist = zero_rate_reconstruction(
        s, PerceptionMetric.UNCONSTRAINED, math.inf
    )
    assert np.array_equal(hats, [0.0, 0.0])
    assert dist == 2.5


def test_zero_rate_perfect_perception_doubles_variance():
    s = SourceSpectrum(np.array([2.0, 0.5]))
    for metric in (PerceptionMetric.KL, PerceptionMetric.W2):
        hats, dist = zero_rate_reconstruction(s, metric, 0.0)
        assert np.array_equal(hats, [2.0, 0.5])
        assert dist == 5.0
        assert zero_rate_reconstruction(s, metric, 0.0)[1] == 5.0


def test_zero_rate_kl_scalar_oracle_point():
    s = SourceSpectrum(np.array([1.0]))
    hats, dist = zero_rate_reconstruction(s, PerceptionMetric.KL, KL_HALF_BUDGET)
    assert abs(hats[0] - 0.5) < 1e-12
    assert abs(dist - 1.5) < 1e-12


def test_zero_rate_w2_scalar_closed_form():
    # P = lam forces t* = 0, so the reconstruction collapses entirely.
    s = SourceSpectrum(np.array([1.0]))
    hats, dist = zero_rate_reconstruction(s, PerceptionMetric.W2, 1.0)
    assert hats[0] == 0.0
    assert dist == 1.0
    # P = lam/4 gives t* = 1/2, hat = 1/4, distortion 5/4.
    hats, dist = zero_rate_reconstruction(s, PerceptionMetric.W2, 0.25)
    assert abs(hats[0] - 0.25) < 1e-15
    assert abs(dist - 1.25) < 1e-15


def test_zero_rate_w2_multicomponent_shrinks_uniformly():
    s = SourceSpectrum(np.array([3.0, 1.0]))
    hats, dist = zero_rate_reconstruction(s, PerceptionMetric.W2, 1.0)
    t = 1.0 - 0.5  # 1 - sqrt(P / total)
    assert np.allclose(hats, t * t * s.lambdas, atol=1e-15)
    w2 = np.sum((np.sqrt(s.lambdas) - np.sqrt(hats)) ** 2)
    assert abs(w2 - 1.0) < 1e-12


def test_zero_rate_budgets_met_with_equality_when_binding():
    rng = np.random.default_rng(21)
    for trial in range(10):
        lam = rng.uniform(0.2, 5.0, size=int(rng.integers(1, 5)))
        s = SourceSpectrum(lam)
        for metric in (PerceptionMetric.KL, PerceptionMetric.W2):
            cap = zero_rate_reconstruction(s, metric, 0.0)[1]
            p = float(rng.uniform(0.01, 0.5))
            hats, dist = zero_rate_reconstruction(s, metric, p)
            if metric is PerceptionMetric.KL:
                achieved = 0.5 * np.sum(
                    hats / lam - 1.0 + np.log(lam / hats)
                )
            else:
                achieved = np.sum((np.sqrt(lam) - np.sqrt(hats)) ** 2)
            assert achieved <= p + 1e-9
            # The minimum-distortion point spends the whole budget.
            assert achieved >= p - 1e-7 or dist <= s.total_variance + 1e-12
            assert dist <= cap + 1e-12


def test_zero_rate_distortion_monotone_in_budget():
    s = SourceSpectrum(np.array([2.0, 0.7, 0.1]))
    for metric in (PerceptionMetric.KL, PerceptionMetric.W2):
        budgets = [0.0, 0.05, 0.2, 0.8, 3.0]
        dists = [
            zero_rate_reconstruction(s, metric, p)[1] for p in budgets
        ]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-10


def test_zero_rate_large_kl_budget_reaches_floor():
    # A generous budget lets the reconstruction collapse toward zero, so the
    # distortion approaches the variance floor from above.
    s = SourceSpectrum(np.array([1.0, 4.0]))
    hats, dist = zero_rate_reconstruction(s, PerceptionMetric.KL, 10.0)
    assert np.all(hats > 0.0)
    assert s.total_variance < dist < s.total_variance * 1.001
