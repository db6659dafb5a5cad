"""Tests for per-component kernels and stationary-point maps.

High-precision reference values were produced with a 50-digit arbitrary
precision solve of the scalar stationarity conditions and are frozen here.

The library's stationary maps and loss terms work on whole arrays of
components.  The scalar per-component functions they replaced are kept
below as independent references: each stationary map solves one component
by bisection plus a Newton polish, and the array maps must agree with them.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from gaussian_rdp import kernels
from gaussian_rdp.errors import DomainError, DualDegenerateError
from gaussian_rdp.model import PerceptionMetric

# ---------------------------------------------------------------------------
# Scalar references


def _bisect(f, lo, hi, f_lo=None, f_hi=None):
    """Root of ``f`` on the sign-change bracket ``[lo, hi]`` by plain bisection.

    Endpoint values may be given when an endpoint is not safely evaluable;
    only their signs are used.  Stops once ``hi - lo <= 1e-14*max(|lo|,
    |hi|)`` or the midpoint meets an endpoint, and fails after 200 halvings.
    """
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    s_lo = math.copysign(1.0, f_lo)
    assert s_lo != math.copysign(1.0, f_hi), "no sign change over bracket"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-14 * max(abs(lo), abs(hi)) or not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if math.copysign(1.0, f_mid) == s_lo:
            lo = mid
        else:
            hi = mid
    raise AssertionError("bisection did not converge in 200 halvings")


def _check_lambda(lam):
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError(f"component variance must be positive and finite, got {lam!r}")


def _check_duals(nu1, nu2):
    if not nu1 > 0.0 or not nu2 > 0.0:
        raise DualDegenerateError(
            f"stationary maps need strictly positive multipliers, got ({nu1!r}, {nu2!r})"
        )


def distortion_component(lam, gamma, lambda_hat):
    """Mean squared error of one component, ``>= 0`` for all valid inputs."""
    _check_lambda(lam)
    if not 0.0 < gamma <= lam:
        raise DomainError(f"gamma must lie in (0, {lam}], got {gamma!r}")
    if lambda_hat < 0.0 or math.isnan(lambda_hat):
        raise DomainError(f"lambda_hat must be nonnegative, got {lambda_hat!r}")
    return lam - 2.0 * math.sqrt(lambda_hat * max(lam - gamma, 0.0)) + lambda_hat


def perception_component_kl(lam, lambda_hat):
    """KL divergence of one component; ``+inf`` at ``lambda_hat = 0``."""
    _check_lambda(lam)
    if lambda_hat < 0.0 or math.isnan(lambda_hat):
        raise DomainError(f"lambda_hat must be nonnegative, got {lambda_hat!r}")
    if lambda_hat == 0.0:
        return math.inf
    x = lambda_hat / lam - 1.0
    return 0.5 * (x - math.log1p(x))


def perception_component_w2(lam, lambda_hat):
    """Squared Wasserstein-2 distance between the two component laws."""
    _check_lambda(lam)
    if lambda_hat < 0.0 or math.isnan(lambda_hat):
        raise DomainError(f"lambda_hat must be nonnegative, got {lambda_hat!r}")
    d = math.sqrt(lam) - math.sqrt(lambda_hat)
    return d * d


def kl_unique_residual(lam, nu1, nu2, gamma):
    """Residual of the KL stationarity equation at a candidate gamma."""
    return nu1 * (1.0 - 2.0 * nu1 * gamma) - 0.5 * nu2 * (
        4.0 * gamma * gamma * nu1 * nu1 / (lam - gamma) - 1.0 / lam
    )


def _kl_quadratic_coeffs(lam, nu1, nu2):
    a = 2.0 * nu1 * nu1 * (1.0 - nu2)
    b = -(nu1 + 2.0 * nu1 * nu1 * lam + 0.5 * nu2 / lam)
    c = nu1 * lam + 0.5 * nu2
    return a, b, c


def stationary_gamma_kl(lam, nu1, nu2):
    """KL water level by bisection on the (lam-g)-scaled quadratic."""
    _check_lambda(lam)
    _check_duals(nu1, nu2)
    a, b, c = _kl_quadratic_coeffs(lam, nu1, nu2)

    def h(g):
        return (a * g + b) * g + c

    # endpoint signs are known analytically: h(0) = c > 0, h(lam) = -2*nu1^2*lam^2*nu2 < 0
    root = _bisect(h, 0.0, lam, f_lo=c, f_hi=-2.0 * nu1 * nu1 * lam * lam * nu2)
    for _ in range(3):
        slope = 2.0 * a * root + b
        if slope == 0.0:
            break
        candidate = root - h(root) / slope
        if 0.0 < candidate < lam and abs(h(candidate)) <= abs(h(root)):
            root = candidate
        else:
            break
    return root


def stationary_gamma_kl_quadratic(lam, nu1, nu2):
    """Explicit-formula KL water level: the root of the quadratic in (0, lam)."""
    _check_lambda(lam)
    _check_duals(nu1, nu2)
    a, b, c = _kl_quadratic_coeffs(lam, nu1, nu2)
    if a == 0.0:
        return -c / b
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise DomainError("quadratic discriminant negative; no real stationary point")
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    inside = [r for r in roots if 0.0 < r < lam]
    if not inside:
        raise DomainError(f"no quadratic root inside (0, {lam}): {roots}")
    return inside[0]


def stationary_gap_kl(lam, nu1, nu2):
    """Gap ``lam - gamma`` from the quadratic shifted to the gap variable."""
    _check_lambda(lam)
    _check_duals(nu1, nu2)
    a, b0, _ = _kl_quadratic_coeffs(lam, nu1, nu2)
    b = -(2.0 * a * lam + b0)
    c = -2.0 * nu1 * nu1 * lam * lam * nu2
    if a == 0.0:
        return -c / b
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise DomainError("quadratic discriminant negative; no real stationary point")
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    inside = [r for r in roots if 0.0 < r < lam]
    if not inside:
        raise DomainError(f"no gap root inside (0, {lam}): {roots}")
    return min(inside)


def stationary_pair_kl(lam, nu1, nu2):
    """Scalar KL ``(gamma, gap, lambda_hat)``: gap form while the gap is <= lam/2."""
    try:
        gap = stationary_gap_kl(lam, nu1, nu2)
    except DomainError:
        gap = None
    if gap is not None and gap <= 0.5 * lam:
        gamma = lam - gap
    else:
        gamma = stationary_gamma_kl(lam, nu1, nu2)
        gap = lam - gamma
    denom = 4.0 * gamma * gamma * nu1 * nu1
    lam_hat = gap / denom if denom > 0.0 else math.nan
    return gamma, gap, lam_hat


def stationary_lambda_hat_kl(lam, gamma, nu1):
    """Optimal reconstruction variance under KL, given the water level."""
    _check_lambda(lam)
    if not 0.0 < gamma < lam:
        raise DomainError(f"gamma must lie in (0, {lam}), got {gamma!r}")
    if not nu1 > 0.0:
        raise DualDegenerateError(f"nu1 must be positive, got {nu1!r}")
    return (lam - gamma) / (4.0 * gamma * gamma * nu1 * nu1)


def gamma_from_lambda_hat(lam, lambda_hat, nu1):
    """Water level from the reconstruction variance, KL stationarity inverse."""
    _check_lambda(lam)
    if not lambda_hat > 0.0:
        raise DomainError(f"lambda_hat must be positive, got {lambda_hat!r}")
    if not nu1 > 0.0:
        raise DualDegenerateError(f"nu1 must be positive, got {nu1!r}")
    # hypot form of sqrt(1 + 16*lam*lambda_hat*nu1^2) avoids squaring; the
    # split square roots keep lam*lambda_hat itself in double range
    z = 4.0 * nu1 * math.sqrt(lam) * math.sqrt(lambda_hat)
    if z > 1e17:
        # 1 + sqrt(1 + z^2) equals z to machine precision, including z = inf
        return math.sqrt(lam) / math.sqrt(lambda_hat) / (2.0 * nu1)
    return 2.0 * lam / (1.0 + math.hypot(1.0, z))


@dataclass(frozen=True)
class ThetaFixedPoint:
    """Root of the W2 balance equation with its achieved residual."""

    theta: float
    residual: float


def w2_balance(lam, nu1, nu2, t):
    """Left minus right side of the W2 balance equation at ``theta = t``."""
    u = nu1 / nu2
    cap = 2.0 * nu1 * lam
    return t / (1.0 + (1.0 - t) * u) - math.sqrt(max(1.0 - t / cap, 0.0))


def w2_balance_slope(lam, nu1, nu2, t):
    u = nu1 / nu2
    cap = 2.0 * nu1 * lam
    den = 1.0 + (1.0 - t) * u
    inner = max(1.0 - t / cap, 1e-300)
    return (1.0 + u) / (den * den) + 0.5 / (cap * math.sqrt(inner))


def theta_fixed_point_w2(lam, nu1, nu2):
    """W2 balance root by bisection over (0, min(1, 2 nu1 lam)) plus Newton."""
    _check_lambda(lam)
    _check_duals(nu1, nu2)
    cap = 2.0 * nu1 * lam

    def g(t):
        return w2_balance(lam, nu1, nu2, t)

    def g_prime(t):
        return w2_balance_slope(lam, nu1, nu2, t)

    hi = min(1.0, cap)
    root = _bisect(g, 0.0, hi, f_lo=-1.0)
    for _ in range(4):
        candidate = root - g(root) / g_prime(root)
        if 0.0 < candidate < hi and abs(g(candidate)) <= abs(g(root)):
            root = candidate
        else:
            break
    return ThetaFixedPoint(theta=root, residual=g(root))


def stationary_pair_w2(lam, nu1, nu2):
    """Scalar W2 ``(gamma, gap, lambda_hat)`` from the balance root."""
    theta = theta_fixed_point_w2(lam, nu1, nu2).theta
    gamma = theta / (2.0 * nu1)
    den = 1.0 + (1.0 - theta) * nu1 / nu2
    lam_hat = lam / (den * den)
    return gamma, theta * theta * lam_hat, lam_hat


def array_pair(metric, lam, nu1, nu2):
    """The library's array map at a single variance, as three floats."""
    pair = kernels.stationary_pair_kl if metric == "kl" else kernels.stationary_pair_w2
    return tuple(float(a[0]) for a in pair(np.array([lam]), nu1, nu2))


def array_terms(lam, gamma, lambda_hat):
    """The library's array loss terms at one component: (distortion, KL, W2)."""
    lam, gamma, lambda_hat = np.array([lam]), np.array([gamma]), np.array([lambda_hat])
    return (
        float(kernels.distortion_terms(gamma, lam - gamma, lambda_hat)[0]),
        float(kernels.perception_terms(lam, lambda_hat, PerceptionMetric.KL)[0]),
        float(kernels.perception_terms(lam, lambda_hat, PerceptionMetric.W2)[0]),
    )


# ---------------------------------------------------------------------------

# Scalar stationary points at lam = 1, nu1 = 1, nu2 = 1.  The divergence
# metric case solves in closed form: gamma = 3/7, lambda_hat = 7/9.
KL_UNIT = {
    "gamma": 3.0 / 7.0,
    "lambda_hat": 7.0 / 9.0,
    "distortion": 4.0 / 9.0,
    "perception": 0.0145461030293419277314577540898,
}

# Transport metric at the same duals: theta is the root of
# t^3 - 4t^2 + 12t - 8 = 0 in (0, 1).
W2_UNIT = {
    "theta": 0.860319418003893468177200083761,
    "gamma": 0.43015970900194673408860004188,
    "lambda_hat": 0.769898905872859696502604437709,
    "distortion": 0.445180948628113670541695583231,
    "perception": 0.0150212396261669364530955413506,
}

# Asymmetric point: lam = 2, nu1 = 0.7, nu2 = 0.3.
KL_ASYM = {
    "gamma": 0.684116459364421137324960606353,
    "lambda_hat": 1.43450248397586439108851365165,
    "distortion": 0.686675555172164667963947708714,
    "perception": 0.0247901672565583366451698052056,
}

W2_ASYM = {
    "theta": 0.936556624524205789157930984449,
    "gamma": 0.668969017517289849398522131749,
    "lambda_hat": 1.51746989714315878799344519405,
    "distortion": 0.67507692777217769972463183763,
    "perception": 0.0332541780543894073310417320185,
}


def test_distortion_component_values():
    for dist in (distortion_component, lambda *args: array_terms(*args)[0]):
        assert dist(1.0, 0.5, 0.5) == 0.5
        # At lambda_hat = lam - gamma the distortion equals gamma.
        assert abs(dist(2.0, 0.7, 1.3) - 0.7) < 1e-15
        # Collapse corner: lambda_hat = 0 gives distortion lam.
        assert dist(3.0, 1.0, 0.0) == 3.0
        # Zero-rate corner gamma = lambda_hat = lam gives distortion 2 lam.
        assert abs(dist(2.0, 2.0, 2.0) - 4.0) < 1e-15


def test_distortion_terms_keep_low_distortion_digits():
    # lam = 1, gamma = 1e-12, lambda_hat = gap: the distortion is gamma, which
    # the expanded form lam - 2 sqrt(hat gap) + hat loses to cancellation
    gamma = np.array([1e-12])
    gap = 1.0 - gamma
    assert kernels.distortion_terms(gamma, gap, gap)[0] == gamma[0]


def test_distortion_component_domain():
    with pytest.raises(DomainError):
        distortion_component(0.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        distortion_component(1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        distortion_component(1.0, 1.5, 0.5)
    with pytest.raises(DomainError):
        distortion_component(1.0, 0.5, -0.1)


def test_kl_component_values():
    assert perception_component_kl(1.0, 1.0) == 0.0
    assert array_terms(1.0, 0.5, 1.0)[1] == 0.0
    want = (math.e - 2.0) / 2.0
    assert abs(perception_component_kl(1.0, math.e) - want) < 1e-15
    assert abs(array_terms(1.0, 0.5, math.e)[1] - want) < 1e-15
    assert math.isinf(perception_component_kl(1.0, 0.0))
    assert math.isinf(array_terms(1.0, 0.5, 0.0)[1])
    # lambda_hat = lam/4: (1/4 - 1 - log(1/4))/2
    want = (math.log(4.0) - 0.75) / 2.0
    assert abs(array_terms(4.0, 4.0, 1.0)[1] - want) < 1e-15


@pytest.mark.parametrize("lam", [1.0, 3.7, 2e-5])
def test_kl_terms_keep_the_digits_of_a_small_variance_ratio(lam):
    # x = lambda_hat/lam - 1 rounds away the digits of a small ratio r, so
    # x - log1p(x) loses about eps/r relative (1e-8 at r = 1e-9); the
    # kernel takes x - log(r) there
    ratios = [0.4, 1e-3, 1e-9, 1e-15, 1e-300]
    hats = np.array([r * lam for r in ratios])
    got = kernels.perception_terms(np.full(len(ratios), lam), hats, PerceptionMetric.KL)
    with mpmath.workdps(50):
        for value, hat in zip(got, hats):
            r = mpmath.mpf(float(hat)) / mpmath.mpf(lam)
            want = float((r - 1 - mpmath.log(r)) / 2)
            assert abs(value - want) <= 1e-14 * want, (hat / lam, value, want)


def test_w2_component_values():
    for w2 in (perception_component_w2, lambda lam, hat: array_terms(lam, 0.5, hat)[2]):
        assert w2(1.0, 1.0) == 0.0
        assert w2(4.0, 0.0) == 4.0
        assert abs(w2(4.0, 1.0) - 1.0) < 1e-15
        assert abs(w2(1.0, 0.25) - 0.25) < 1e-15


def test_rate_terms_take_small_rates_from_the_gap():
    lam = np.array([1.0, 1.0, 4.0, 1e-8])
    gaps = np.array([0.5, 0.75, 0.0, 1.7e-26])
    gammas = lam - gaps
    rates = kernels.rate_terms(lam, gammas, gaps)
    assert abs(rates[0] - 0.5 * math.log(2.0)) < 1e-16
    assert abs(rates[1] - math.log(2.0)) < 1e-15
    assert rates[2] == 0.0 and not math.copysign(1.0, rates[2]) < 0.0
    # the water level rounds to lam, yet the rate is gap/(2 lam) to rounding
    assert gammas[3] == lam[3]
    assert abs(rates[3] / (0.5 * 1.7e-18) - 1.0) < 1e-15


def test_kl_stationary_unit_point():
    g = stationary_gamma_kl(1.0, 1.0, 1.0)
    assert abs(g - KL_UNIT["gamma"]) < 1e-14
    h = stationary_lambda_hat_kl(1.0, g, 1.0)
    assert abs(h - KL_UNIT["lambda_hat"]) < 1e-13
    ga, _, ha = array_pair("kl", 1.0, 1.0, 1.0)
    assert abs(ga - KL_UNIT["gamma"]) < 1e-14
    assert abs(ha - KL_UNIT["lambda_hat"]) < 1e-13
    assert abs(
        distortion_component(1.0, g, h) - KL_UNIT["distortion"]
    ) < 1e-13
    assert abs(
        perception_component_kl(1.0, h) - KL_UNIT["perception"]
    ) < 1e-13


def test_kl_stationary_asymmetric_point():
    g = stationary_gamma_kl(2.0, 0.7, 0.3)
    assert abs(g - KL_ASYM["gamma"]) < 1e-13
    h = stationary_lambda_hat_kl(2.0, g, 0.7)
    assert abs(h - KL_ASYM["lambda_hat"]) < 1e-12
    ga, _, ha = array_pair("kl", 2.0, 0.7, 0.3)
    assert abs(ga - KL_ASYM["gamma"]) < 1e-13
    assert abs(ha - KL_ASYM["lambda_hat"]) < 1e-12
    assert abs(
        distortion_component(2.0, g, h) - KL_ASYM["distortion"]
    ) < 1e-12
    assert abs(
        perception_component_kl(2.0, h) - KL_ASYM["perception"]
    ) < 1e-13


def test_kl_quadratic_route_agrees():
    # The closed-form quadratic is kept as an independent route; both must
    # land on the same root even when the leading coefficient changes sign.
    cases = [
        (1.0, 1.0, 1.0),
        (2.0, 0.7, 0.3),
        (0.5, 3.0, 2.0),
        (4.0, 0.05, 5.0),
        (1.0, 2.0, 1.0),  # degenerate leading coefficient: nu2 = 1
    ]
    for lam, nu1, nu2 in cases:
        a = stationary_gamma_kl(lam, nu1, nu2)
        b = stationary_gamma_kl_quadratic(lam, nu1, nu2)
        assert abs(a - b) < 1e-12 * lam


def test_kl_stationary_residual_is_tiny():
    rng = np.random.default_rng(17)
    for trial in range(40):
        lam = float(rng.uniform(0.05, 8.0))
        nu1 = float(rng.uniform(0.02, 4.0))
        nu2 = float(rng.uniform(0.02, 4.0))
        g = stationary_gamma_kl(lam, nu1, nu2)
        assert 0.0 < g < lam
        r = kl_unique_residual(lam, nu1, nu2, g)
        scale = max(nu1, nu2 / lam, 1.0)
        assert abs(r) < 1e-11 * scale


def test_kl_degenerate_duals_raise():
    with pytest.raises(DualDegenerateError):
        stationary_gamma_kl(1.0, 0.0, 1.0)
    with pytest.raises(DualDegenerateError):
        stationary_gamma_kl(1.0, 1.0, 0.0)
    for pair in (kernels.stationary_pair_kl, kernels.stationary_pair_w2):
        for nu1, nu2 in ((0.0, 1.0), (1.0, 0.0)):
            with pytest.raises(DualDegenerateError):
                pair(np.array([1.0]), nu1, nu2)


def test_gamma_lambda_hat_roundtrip():
    rng = np.random.default_rng(29)
    for trial in range(40):
        lam = float(rng.uniform(0.05, 8.0))
        nu1 = float(rng.uniform(0.02, 4.0))
        g = float(rng.uniform(0.01, 0.99) * lam)
        h = stationary_lambda_hat_kl(lam, g, nu1)
        back = gamma_from_lambda_hat(lam, h, nu1)
        assert abs(back - g) < 1e-12 * lam


def test_gamma_from_lambda_hat_huge_arguments():
    # The inverse map must survive arguments whose squares overflow.
    g = gamma_from_lambda_hat(1e200, 1e200, 1e150)
    assert 0.0 < g < 1e200


def test_w2_theta_unit_point():
    fp = theta_fixed_point_w2(1.0, 1.0, 1.0)
    assert abs(fp.theta - W2_UNIT["theta"]) < 1e-14
    assert abs(fp.residual) < 1e-12
    # Cubic witness for the same root.
    t = fp.theta
    assert abs(t**3 - 4.0 * t**2 + 12.0 * t - 8.0) < 1e-12


def test_w2_pair_unit_point():
    for g, _, h in (array_pair("w2", 1.0, 1.0, 1.0), stationary_pair_w2(1.0, 1.0, 1.0)):
        assert abs(g - W2_UNIT["gamma"]) < 1e-14
        assert abs(h - W2_UNIT["lambda_hat"]) < 1e-13
        assert abs(
            distortion_component(1.0, g, h) - W2_UNIT["distortion"]
        ) < 1e-13
        assert abs(
            perception_component_w2(1.0, h) - W2_UNIT["perception"]
        ) < 1e-13


def test_w2_pair_asymmetric_point():
    fp = theta_fixed_point_w2(2.0, 0.7, 0.3)
    assert abs(fp.theta - W2_ASYM["theta"]) < 1e-13
    for g, _, h in (array_pair("w2", 2.0, 0.7, 0.3), stationary_pair_w2(2.0, 0.7, 0.3)):
        assert abs(g - W2_ASYM["gamma"]) < 1e-13
        assert abs(h - W2_ASYM["lambda_hat"]) < 1e-12
        assert abs(
            distortion_component(2.0, g, h) - W2_ASYM["distortion"]
        ) < 1e-12
        assert abs(
            perception_component_w2(2.0, h) - W2_ASYM["perception"]
        ) < 1e-13


def test_w2_theta_residual_bound_holds_broadly():
    rng = np.random.default_rng(31)
    for trial in range(40):
        lam = float(rng.uniform(0.05, 8.0))
        nu1 = float(rng.uniform(0.02, 4.0))
        nu2 = float(rng.uniform(0.02, 4.0))
        fp = theta_fixed_point_w2(lam, nu1, nu2)
        assert 0.0 < fp.theta < min(1.0, 2.0 * nu1 * lam) + 1e-15
        assert abs(fp.residual) <= 1e-12
        g, _, h = array_pair("w2", lam, nu1, nu2)
        assert abs(w2_balance(lam, nu1, nu2, 2.0 * nu1 * g)) <= 1e-12
        assert 0.0 < g < lam
        assert h > 0.0


def test_w2_uniqueness_by_sign_scan():
    # The defining function crosses zero exactly once on the bracket.
    lam, nu1, nu2 = 1.7, 0.9, 0.4
    u = nu1 / nu2
    cap = 2.0 * nu1 * lam
    hi = min(1.0, cap)

    def g(t):
        return t / (1.0 + (1.0 - t) * u) - math.sqrt(max(1.0 - t / cap, 0.0))

    ts = np.linspace(1e-9, hi - 1e-9, 2000)
    signs = np.sign([g(float(t)) for t in ts])
    flips = np.sum(signs[:-1] != signs[1:])
    assert flips == 1


def test_perfect_perception_gamma():
    # At nu1 = sqrt(3)/4, lam = 1 the closed form gives gamma = 2/3.
    g = kernels.perfect_perception_gamma(1.0, math.sqrt(3.0 / 16.0))
    assert abs(g - 2.0 / 3.0) < 1e-15
    # Scalar anchor: lam = 1, nu1 = 6/7 gives gamma = 7/16.
    assert abs(kernels.perfect_perception_gamma(1.0, 6.0 / 7.0) - 7.0 / 16.0) < 1e-15
    # Tiny multiplier approaches the zero-rate corner gamma -> lam.
    assert abs(kernels.perfect_perception_gamma(2.0, 1e-12) - 2.0) < 1e-10


def test_perfect_perception_gamma_matches_pinned_inverse():
    rng = np.random.default_rng(41)
    for trial in range(30):
        lam = float(rng.uniform(0.05, 8.0))
        nu1 = float(rng.uniform(0.01, 5.0))
        a = kernels.perfect_perception_gamma(lam, nu1)
        b = gamma_from_lambda_hat(lam, lam, nu1)
        assert abs(a - b) < 1e-14 * lam


def _pair_grid(rng, draws, size, ratio_decades):
    """Random (lam array, nu1, nu2): lam log-uniform in [1e-4, 1e4], nu1/nu2
    log-uniform over +-ratio_decades, nu1*lam spread around one."""
    for _ in range(draws):
        lam = 10.0 ** rng.uniform(-4.0, 4.0, size)
        nu1 = 10.0 ** rng.uniform(-4.0, 4.0) / float(np.median(lam))
        nu2 = nu1 / 10.0 ** rng.uniform(-ratio_decades, ratio_decades)
        yield lam, nu1, nu2


@pytest.mark.parametrize("metric", ["kl", "w2"])
def test_array_maps_agree_with_scalar_references(metric):
    scalar = stationary_pair_kl if metric == "kl" else stationary_pair_w2
    pair = kernels.stationary_pair_kl if metric == "kl" else kernels.stationary_pair_w2
    worst = 0.0
    for lam, nu1, nu2 in _pair_grid(np.random.default_rng(53), 60, 40, 3.0):
        ref = np.array([scalar(float(l), nu1, nu2) for l in lam])
        for k, got in enumerate(pair(lam, nu1, nu2)):
            worst = max(worst, float(np.max(np.abs(got / ref[:, k] - 1.0))))
    assert worst <= 1e-13


def test_w2_map_at_extreme_multiplier_ratio():
    # at nu1/nu2 ~ 1e12 and 2*nu1*lam > 1, theta sits within ~1e-12 of one
    # and the balance equation's slope is ~1e12, so one ulp of theta moves
    # the balance by ~1e-4 and neither version can agree with the other to
    # 1e-13; the residual is measured in theta instead, as the Newton
    # correction that would still remain, relative to theta
    for lam, nu1, nu2 in _pair_grid(np.random.default_rng(59), 20, 40, 0.5):
        nu2 *= 1e-12
        gammas, _, _ = kernels.stationary_pair_w2(lam, nu1, nu2)
        for l, g in zip(lam.tolist(), gammas.tolist()):
            t = 2.0 * nu1 * g
            correction = w2_balance(l, nu1, nu2, t) / w2_balance_slope(l, nu1, nu2, t)
            assert abs(correction) <= 1e-12 * t


# ---------------------------------------------------------------------------
# W2 map against 50-digit references of its cubic


def _w2_reference(lam, nu1, nu2, digits=50):
    """(gamma, gap, lambda_hat) of one W2 component at ``digits`` digits.

    The positive root of ``u r^3 + r^2 + ((1 + u(1 - cap))/cap) r - 1``
    lies in ``[1/(u + 1 + max(b, 0)), 1]`` for ``b`` its linear
    coefficient and is found by bisection of the logarithm.
    """
    with mpmath.workdps(digits + 10):
        lam, nu1, nu2 = mpmath.mpf(lam), mpmath.mpf(nu1), mpmath.mpf(nu2)
        u = nu1 / nu2
        cap = 2 * nu1 * lam
        b = (1 + u * (1 - cap)) / cap

        def f(r):
            return ((u * r + 1) * r + b) * r - 1

        lo, hi = 1 / (u + 1 + max(b, 0)), mpmath.mpf(1)
        while hi / lo - 1 > mpmath.mpf(10) ** -(digits + 2):
            mid = mpmath.sqrt(lo * hi)
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        r = (lo + hi) / 2
        theta = r * (1 + u) / (1 + u * r)
        return theta / (2 * nu1), lam * r * r, lam * ((1 + u * r) / (1 + u)) ** 2


def test_w2_map_matches_50_digit_references():
    # nu1 is a power of two, so 2*nu1*lam = cap holds exactly in doubles
    rng = np.random.default_rng(61)
    for _ in range(24):
        cap = 10.0 ** rng.uniform(-6.0, 6.0)
        u = 10.0 ** rng.uniform(-8.0, 8.0)
        nu1 = 2.0 ** int(rng.integers(-20, 21))
        lam = cap / (2.0 * nu1)
        nu2 = nu1 / u
        got = kernels.stationary_pair_w2(np.array([lam]), nu1, nu2)
        want = _w2_reference(lam, nu1, nu2)
        for g, w in zip(got, want):
            assert abs(float(g[0]) / float(w) - 1.0) <= 1e-14


def _w2_map_checked(lam, nu1, nu2):
    """The W2 map and its Newton pass count, with any RuntimeWarning or
    floating-point exception raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = kernels.stationary_pair_w2(lam, nu1, nu2)
            p, q = (max(nu2 / nu1, 5e-324), 1.0) if nu1 > nu2 else (1.0, nu1 / nu2)
            _, passes = kernels._rho_w2(2.0 * nu1 * lam, p, q)
    gamma, gap, hat = out
    assert passes <= 6
    assert np.all(np.isfinite(np.stack(out)))
    assert np.all(gamma > 0.0) and np.all(gap >= 0.0) and np.all(hat >= 0.0)
    assert np.all(np.abs(gamma + gap - lam) <= 1e-14 * lam)
    return out


def test_w2_map_at_extreme_multipliers():
    # u from 1e-300 up to the largest double, and one ratio (8192/1e-305)
    # that overflows it; cap = 2*nu1*lam over [1e-12, 1e12], exact for
    # nu1 = 2^13. Gaps and reconstruction variances below the double range
    # round to zero; every value the range holds must match the uncapped
    # reference
    nu1 = 8192.0
    caps = 10.0 ** np.arange(-12.0, 13.0, 2.0)
    lam = caps / (2.0 * nu1)
    nu2s = [nu1 / 10.0**e for e in (-300, -100, -30, -8, -1, 0, 1, 8, 30, 100, 300)]
    for nu2 in nu2s + [nu1 / sys.float_info.max, 1e-305]:
        gamma, gap, hat = _w2_map_checked(lam, nu1, nu2)
        for k in range(lam.size):
            want = _w2_reference(float(lam[k]), nu1, nu2, digits=30)
            for g, w in zip((gamma[k], gap[k], hat[k]), want):
                if w >= sys.float_info.min:
                    assert abs(float(g) / float(w) - 1.0) <= 1e-13
    # the ratio 8192/1e-305 at cap = 1, where the gap goes as u^(-2/3)
    _, gap, _ = _w2_map_checked(lam, nu1, 1e-305)
    assert abs(float(gap[6]) / 6.97e-211 - 1.0) <= 1e-3
    # nu2/nu1 rounds to zero: the smallest subnormal takes its place, and the
    # map stays finite and warning-free with gamma + gap = lam
    assert 1e-320 / nu1 == 0.0
    _w2_map_checked(lam, nu1, 1e-320)
