"""Tests for the safeguarded Newton root finder and its zero-rate KL use."""

import math

import mpmath
import numpy as np
import pytest

from gaussian_rdp.errors import ConvergenceError
from gaussian_rdp.model import PerceptionMetric, SourceSpectrum, zero_rate_reconstruction
from gaussian_rdp.rootfind import bisect_root


@pytest.mark.parametrize("x0", [-4.0, 4.0])
def test_root_is_reached_from_either_side(x0):
    def f(x):
        return -math.sinh(x - 0.3), -math.cosh(x - 0.3)

    assert bisect_root(f, x0) == pytest.approx(0.3, rel=1e-15)


def test_a_step_leaving_the_bracket_is_replaced_by_bisection():
    # Newton on -atan diverges from |x| > 1.39: the second step lands beyond
    # the first point and must be replaced by the bracket's midpoint
    points = []

    def f(x):
        points.append(x)
        return -math.atan(x), -1.0 / (1.0 + x * x)

    root = bisect_root(f, 1.5)
    assert abs(root) <= 1e-14
    assert points[2] == 0.5 * (points[0] + points[1])


def test_iteration_cap_raises_convergence_error():
    # positive and decreasing with no root: every Newton step moves right by
    # one and the bracket never closes
    with pytest.raises(ConvergenceError) as info:
        bisect_root(lambda x: (math.exp(-x), -math.exp(-x)), 0.0)
    assert info.value.diagnostics["hi"] == math.inf


def _kl_zero_rate_reference(lam, P, log_mu):
    """lambda_hat at 40 digits: the root of KL(mu) = P near ``log_mu``."""
    with mpmath.workdps(40):
        lam = [mpmath.mpf(float(v)) for v in lam]

        def excess(s):
            mu = mpmath.exp(s)
            return sum(
                (mpmath.log(1 + 2 * v / mu) - 2 * v / (mu + 2 * v)) / 2 for v in lam
            ) - mpmath.mpf(P)

        s = mpmath.findroot(excess, (log_mu - 1, log_mu + 1), solver="anderson")
        mu = mpmath.exp(s)
        return [v * mu / (mu + 2 * v) for v in lam]


@pytest.mark.parametrize(
    "lam", [[7.5], [3.0, 2.0, 1.0], [1e4, 1.0, 1e-4]], ids=["L1", "L3", "spread1e8"]
)
@pytest.mark.parametrize("budget_per_component", [1e-8, 1e-3, 0.3, 5.0, 120.0, 200.0])
def test_kl_zero_rate_matches_mpmath(lam, budget_per_component):
    # lambda_hat/lambda falls as exp(-2P/L), so a relative error e in KL
    # moves it by 2(P/L)*e: 4e-14 for one rounding at P/L = 200
    lam = np.array(lam)
    P = budget_per_component * lam.size
    hats, dist = zero_rate_reconstruction(SourceSpectrum(lam), PerceptionMetric.KL, P)
    log_mu = math.log(2.0 * hats[0] * lam[0] / (lam[0] - hats[0]))
    ref = _kl_zero_rate_reference(lam, P, log_mu)
    for hat, r in zip(hats, ref):
        assert abs(hat - r) <= 1e-13 * r
    if budget_per_component >= 120.0:
        # the budgets reach reconstructions below 1e-100 of the source
        assert np.all(hats / lam < 1e-100)
    assert dist == pytest.approx(lam.sum() + hats.sum(), rel=1e-15)
