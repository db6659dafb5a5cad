"""Tests for first-order optimality residual evaluation."""

import math

import numpy as np

from gaussian_rdp import kkt
from gaussian_rdp.model import PerceptionMetric

KL = PerceptionMetric.KL
W2 = PerceptionMetric.W2
NONE = PerceptionMetric.UNCONSTRAINED


def test_interior_kl_point_is_stationary():
    # Exact rational stationary point at unit duals: gamma 3/7, hat 7/9.
    d = 4.0 / 9.0
    p = (math.log(9.0 / 7.0) - 2.0 / 9.0) / 2.0
    r = kkt.residuals(
        np.array([1.0]), np.array([3.0 / 7.0]), np.array([4.0 / 7.0]),
        np.array([7.0 / 9.0]), 1.0, 1.0, KL, d, p,
    )
    assert r.max_abs() < 1e-14
    assert r.xi[0] == 0.0


def test_interior_w2_point_is_stationary():
    g = 0.668969017517289849398522131749
    h = 1.51746989714315878799344519405
    d = 0.67507692777217769972463183763
    p = 0.0332541780543894073310417320185
    r = kkt.residuals(
        np.array([2.0]), np.array([g]), np.array([2.0 - g]), np.array([h]),
        0.7, 0.3, W2, d, p,
    )
    assert r.max_abs() < 1e-13


def test_waterfill_corner_with_collapsed_component():
    # Second component sits at the corner gamma = lam, hat = 0; its vanishing
    # multiplier pressures must cancel by the matched-ratio convention.
    r = kkt.residuals(
        np.array([2.0, 0.5]), np.array([0.7, 0.5]), np.array([1.3, 0.0]),
        np.array([1.3, 0.0]), 1.0 / 1.4, 0.0, NONE, 1.2, math.inf,
    )
    assert r.max_abs() == 0.0


def test_pinned_perfect_perception_scalar():
    # nu2 = +inf pins hat = lam; the hat-stationarity row is defined as zero.
    r = kkt.residuals(
        np.array([1.0]), np.array([7.0 / 16.0]), np.array([9.0 / 16.0]),
        np.array([1.0]), 6.0 / 7.0, math.inf, W2, 0.5, 0.0,
    )
    assert r.max_abs() == 0.0


def test_violated_stationarity_is_reported():
    # Perturbing gamma off the stationary point must show a nonzero residual.
    r = kkt.residuals(
        np.array([1.0]), np.array([3.0 / 7.0 + 1e-3]), np.array([4.0 / 7.0 - 1e-3]),
        np.array([7.0 / 9.0]), 1.0, 1.0, KL, 4.0 / 9.0, (math.log(9.0 / 7.0) - 2.0 / 9.0) / 2.0,
    )
    assert r.max_abs() > 1e-4


def test_complementarity_flags_slack_with_positive_multiplier():
    # Budget far above the achieved distortion while nu1 > 0: the product
    # nu1 * slack shows up in the complementarity entry.
    r = kkt.residuals(
        np.array([1.0]), np.array([3.0 / 7.0]), np.array([4.0 / 7.0]),
        np.array([7.0 / 9.0]), 1.0, 1.0, KL, 10.0, (math.log(9.0 / 7.0) - 2.0 / 9.0) / 2.0,
    )
    assert r.complementarity > 1.0


def test_zero_multiplier_ignores_slack():
    # nu1 = 0 makes the distortion constraint slack admissible.
    s = np.array([2.0, 0.5])
    r = kkt.residuals(
        s, s.copy(), np.zeros(2), s.copy(), 0.0, 0.0, NONE, 10.0, math.inf,
    )
    assert r.complementarity == 0.0


def test_collapsed_component_with_metric_pressure_is_infeasible_corner():
    # A collapsed reconstruction under an active divergence budget cannot be
    # stationary: the metric pulls hat upward with infinite force.
    r = kkt.residuals(
        np.array([1.0]), np.array([1.0]), np.array([0.0]), np.array([0.0]),
        0.5, 0.5, KL, 1.0, 0.1,
    )
    assert math.isinf(r.max_abs())
