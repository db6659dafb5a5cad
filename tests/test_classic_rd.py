"""Tests for classical reverse water-filling without a perception constraint."""

import math

import numpy as np
import pytest

from gaussian_rdp.classic_rd import (
    high_distortion_rd_estimate,
    low_distortion_rd_estimate,
    reverse_waterfill,
    water_level,
)
from gaussian_rdp.errors import DomainError, NonPositiveDistortionError
from gaussian_rdp.model import PerceptionMetric, SolutionCase, SourceSpectrum, TradeoffQuery
from gaussian_rdp.solver import solve


def spectrum(*lams):
    return SourceSpectrum(np.array(lams, dtype=float))


def test_water_level_rejects_bad_distortion():
    s = spectrum(1.0)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(NonPositiveDistortionError):
            water_level(s, bad)


def test_unit_pair_splits_evenly():
    w = water_level(spectrum(1.0, 1.0), 1.0)
    assert w.nu == 0.5
    assert np.array_equal(w.per_component, [0.5, 0.5])


def test_two_level_example():
    w = water_level(spectrum(2.0, 0.5), 1.2)
    assert abs(w.nu - 0.7) < 1e-15
    assert np.allclose(w.per_component, [0.7, 0.5], atol=1e-15)


def test_level_saturates_at_total_variance():
    s = spectrum(2.0, 0.5)
    for d in (2.5, 3.0, 100.0):
        w = water_level(s, d)
        assert w.nu == 2.0
        assert np.array_equal(w.per_component, [2.0, 0.5])


def test_per_component_preserves_input_order():
    w = water_level(spectrum(0.5, 2.0), 1.2)
    assert np.allclose(w.per_component, [0.5, 0.7], atol=1e-15)


def test_allocations_sum_to_distortion_below_saturation():
    rng = np.random.default_rng(42)
    for trial in range(25):
        lam = rng.uniform(0.1, 4.0, size=int(rng.integers(1, 7)))
        s = SourceSpectrum(lam)
        d = float(rng.uniform(0.01, 0.999) * s.total_variance)
        w = water_level(s, d)
        assert abs(float(np.sum(w.per_component)) - d) < 1e-10 * s.total_variance
        assert np.all(w.per_component > 0.0)
        assert np.all(w.per_component <= lam)


def test_unit_pair_rate_is_log_two():
    sol = reverse_waterfill(spectrum(1.0, 1.0), 1.0)
    assert abs(sol.total_rate - math.log(2.0)) < 1e-15
    assert sol.case_tag is SolutionCase.DISTORTION_ONLY


def test_two_level_rate():
    sol = reverse_waterfill(spectrum(2.0, 0.5), 1.2)
    assert abs(sol.total_rate - 0.5 * math.log(2.0 / 0.7)) < 1e-14
    assert np.allclose(sol.gammas, [0.7, 0.5], atol=1e-15)
    # Inactive component carries zero rate.
    assert sol.rates[1] == 0.0
    assert abs(sol.rates[0] - 0.5 * math.log(2.0 / 0.7)) < 1e-14


def test_reconstruction_variances_complement_allocations():
    sol = reverse_waterfill(spectrum(2.0, 0.5), 1.2)
    assert np.allclose(sol.lambda_hats, [1.3, 0.0], atol=1e-15)


def test_rate_zero_at_and_beyond_total_variance():
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    for d in (15.0, 20.0):
        sol = reverse_waterfill(s, d)
        assert sol.total_rate == 0.0
        assert np.array_equal(sol.gammas, s.lambdas)
        assert sol.dual.nu1 == 0.0
        assert sol.achieved_distortion == 15.0
        assert sol.case_tag is SolutionCase.DISTORTION_INACTIVE


def test_reverse_waterfill_equals_unconstrained_solve():
    # at D >= tr the answer is the zero-rate point, tagged DistortionInactive
    # by solve; reverse_waterfill once tagged it DistortionOnly
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = SourceSpectrum(np.exp(rng.uniform(-3.0, 3.0, int(rng.integers(1, 9)))))
        tr = s.total_variance
        for d in [tr * (k / 20.0) for k in range(1, 41)] + [float(np.nextafter(tr, 0.0))]:
            q = TradeoffQuery(d, math.inf, PerceptionMetric.UNCONSTRAINED)
            assert reverse_waterfill(s, d) == solve(s, q), (s.lambdas, d)


def test_dual_value_matches_interior_level():
    sol = reverse_waterfill(spectrum(2.0, 0.5), 1.2)
    assert abs(sol.dual.nu1 - 1.0 / 1.4) < 1e-15
    assert sol.dual.nu2 == 0.0


def test_kkt_residual_small():
    rng = np.random.default_rng(7)
    for trial in range(20):
        lam = rng.uniform(0.1, 4.0, size=int(rng.integers(1, 6)))
        s = SourceSpectrum(lam)
        d = float(rng.uniform(0.05, 1.4) * s.total_variance)
        sol = reverse_waterfill(s, d)
        assert sol.kkt_residual < 1e-9


def test_rate_monotone_nonincreasing_in_distortion():
    s = spectrum(3.0, 1.0, 0.2)
    grid = np.linspace(0.01, 1.2 * s.total_variance, 60)
    rates = [reverse_waterfill(s, float(d)).total_rate for d in grid]
    for a, b in zip(rates, rates[1:]):
        assert b <= a + 1e-12


def test_rate_convex_in_distortion():
    s = spectrum(3.0, 1.0, 0.2)
    grid = np.linspace(0.05, 0.95 * s.total_variance, 40)
    rates = [reverse_waterfill(s, float(d)).total_rate for d in grid]
    for r0, r1, r2 in zip(rates, rates[1:], rates[2:]):
        assert r1 <= 0.5 * (r0 + r2) + 1e-10


def test_scalar_rate_closed_form():
    rng = np.random.default_rng(3)
    for trial in range(20):
        lam = float(rng.uniform(0.1, 5.0))
        d = float(rng.uniform(0.01, 0.99) * lam)
        sol = reverse_waterfill(spectrum(lam), d)
        assert abs(sol.total_rate - 0.5 * math.log(lam / d)) < 1e-12


def test_high_distortion_expansion():
    # Near-saturation slope is 1 / (2 max lam), shared across the top set.
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    for eps in (1e-3, 1e-5, 1e-7):
        est_rate, est_levels = high_distortion_rd_estimate(s, eps)
        sol = reverse_waterfill(s, 15.0 - eps)
        assert abs(est_rate - eps / 10.0) < 1e-15
        assert abs(sol.total_rate - est_rate) < eps * eps
        assert np.max(np.abs(sol.gammas - est_levels)) < eps * eps


def test_high_distortion_expansion_tied_top():
    s = spectrum(2.0, 2.0, 0.5)
    eps = 1e-4
    est_rate, est_levels = high_distortion_rd_estimate(s, eps)
    sol = reverse_waterfill(s, 4.5 - eps)
    assert abs(est_rate - eps / 4.0) < 1e-16
    assert np.allclose(est_levels, [2.0 - eps / 2, 2.0 - eps / 2, 0.5])
    assert abs(sol.total_rate - est_rate) < eps * eps


def test_high_distortion_rejects_negative_eps():
    with pytest.raises(DomainError):
        high_distortion_rd_estimate(spectrum(1.0), -1e-3)


def test_low_distortion_exact_below_smallest_level():
    # Once every component is active the rate formula is exact, not asymptotic.
    s = spectrum(3.0, 2.0, 5.0, 4.0, 1.0)
    for eps in (0.5, 1e-2, 1e-6):
        est_rate, level = low_distortion_rd_estimate(s, eps)
        sol = reverse_waterfill(s, eps)
        assert abs(sol.total_rate - est_rate) < 1e-12 * max(1.0, est_rate)
        assert np.max(np.abs(sol.gammas - level)) < 1e-15
        assert abs(level - eps / 5.0) < 1e-18


def test_low_distortion_rejects_nonpositive_eps():
    with pytest.raises(DomainError):
        low_distortion_rd_estimate(spectrum(1.0), 0.0)
