"""Tests for the sampling-based verification layer.

The sampler draws the same values for the same seed, sample count and
numpy version, so the statistical assertions here are fixed regressions
for the seeds used, not flaky checks.  Each is a 4-standard-error bound, which a
correct sampler misses with probability about 6e-5 on any other draw.
"""

import dataclasses
import math
import random
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from gaussian_rdp import (
    PerceptionMetric,
    SourceSpectrum,
    TradeoffQuery,
    from_covariance,
    montecarlo,
    reverse_waterfill,
    solve,
    solve_perfect_perception,
)
from gaussian_rdp.errors import DomainError, NotPsdError
from gaussian_rdp.montecarlo import (
    JointGaussianPair,
    build_pair,
    sample_and_measure,
    verify_solution,
)


def _random_pairs(count):
    rng = random.Random(83)
    pairs = []
    for _ in range(count):
        lam = 10.0 ** rng.uniform(-3.0, 3.0)
        pairs.append((lam, rng.uniform(0.01, 1.0) * lam, rng.uniform(0.0, 2.0) * lam))
    return pairs


CORNER_TRIPLES = [
    (2.0, 0.7, 0.0),  # collapsed reconstruction
    (1.5, 1.5, 0.8),  # independent reconstruction
    (3.0, 3.0, 0.0),  # both corners at once
    (4.0, 4e-12, 1.6),  # nearly noiseless coding
]


def _lower_factor(pair):
    """Closed-form 2x2 Cholesky factor (l11, l21, l22) of the pair covariance."""
    lam, gamma, lambda_hat = pair.lam, pair.gamma, pair.lambda_hat
    return (
        math.sqrt(lam),
        math.sqrt(lambda_hat * (lam - gamma) / lam),
        math.sqrt(lambda_hat * gamma / lam),
    )


def _elementwise_reference(pair, n, seed, stream):
    """Sampled statistics from an elementwise pass over all the draws.

    It forms z, zhat and (z - zhat)^2 per sample, over all ``n`` draws at
    once, and sums them.  Returns (mean distortion, its standard error).
    """
    l11, l21, l22 = _lower_factor(pair)
    n0, n1 = np.random.Generator(np.random.SFC64([seed, stream])).standard_normal((n, 2)).T
    z = l11 * n0
    zh = l21 * n0 + l22 * n1
    d = (z - zh) ** 2
    sum_d, sum_d2 = float(np.sum(d)), float(np.sum(d * d))
    mean_d = sum_d / n
    var_d = max(sum_d2 - n * mean_d * mean_d, 0.0) / (n - 1)
    return mean_d, math.sqrt(var_d / n)


@pytest.mark.parametrize("lam, gamma, lambda_hat", _random_pairs(6) + CORNER_TRIPLES)
@pytest.mark.parametrize("n", [1000, 50_000, 100_003])
def test_sampler_matches_elementwise_reference(lam, gamma, lambda_hat, n):
    # the sampler draws the mean of n squared differences from its law in
    # one chi-square variate, the reference sums n pairs of normals, so the
    # two are independent draws of one statistic: the means agree within 4
    # of their combined standard errors, and the standard errors, whose
    # relative spread is about 2.3/sqrt(n) between the two, within 10/sqrt(n)
    pair = build_pair(lam, gamma, lambda_hat)
    rep = sample_and_measure(pair, n, 19)
    mean_ref, se_ref = _elementwise_reference(pair, n, 19, 4)
    gap = abs(rep.empirical_distortion - mean_ref)
    assert gap <= 4.0 * math.hypot(rep.standard_error, se_ref), (gap, mean_ref)
    assert abs(rep.standard_error - se_ref) <= 10.0 / math.sqrt(n) * se_ref
    assert rep.analytic_distortion == float(
        montecarlo.distortion_terms(gamma, lam - gamma, lambda_hat)
    )


def test_sampled_variance_matches_distortion_terms():
    # the sampler's variance of z - z_hat comes from the Cholesky
    # coefficients, the analytic distortion from the kernels; the two are
    # independent forms of one number, cancellation-free both, and meet to
    # a few ulps (9.6e-16 relative at worst on these triples)
    triples = _random_pairs(2000) + CORNER_TRIPLES
    triples += [(3.7, 1e-12 * 3.7, r * 3.7) for r in (1.0, 0.4)]
    lam, gamma, lambda_hat = np.array(triples).T
    want = montecarlo.distortion_terms(gamma, lam - gamma, lambda_hat)
    got = montecarlo._difference_variance(lam, gamma, lambda_hat)
    assert float(np.max(np.abs(got - want) / want)) <= 2e-15


@pytest.mark.parametrize("lambda_hat_ratio", [1.0, 0.4])
def test_sampler_is_exact_where_the_elementwise_form_cancels(lambda_hat_ratio):
    # at gamma = 1e-12*lam, z and z_hat agree to about 1e-6 of either, so
    # z - z_hat formed per sample, or its variance expanded as
    # l11^2 - 2*l11*l21 + l21^2 + l22^2, cancels (2.5e-13 relative at
    # lambda_hat = lam); the sampler's variance of z - z_hat must match the
    # 40-digit lam + lambda_hat - 2*sqrt(lambda_hat*(lam - gamma))
    lam = 3.7
    pair = build_pair(lam, 1e-12 * lam, lambda_hat_ratio * lam)
    with mpmath.workdps(40):
        l, g, h = (mpmath.mpf(v) for v in (pair.lam, pair.gamma, pair.lambda_hat))
        exact = float(l + h - 2 * mpmath.sqrt(h * (l - g)))
    triple = np.array([[pair.lam], [pair.gamma], [pair.lambda_hat]])
    got = float(montecarlo._difference_variance(*triple)[0])
    assert abs(got - exact) <= 2e-15 * exact, (got, exact)


@pytest.mark.parametrize("seed, n", [(0, 1000), (19, 50_000), (2**63, 10**12)])
def test_same_seed_gives_an_equal_report(seed, n):
    s, sol = _both_active_five()
    first = verify_solution(s, sol, n, seed, PerceptionMetric.KL)
    assert verify_solution(s, sol, n, seed, PerceptionMetric.KL) == first


def test_z_scores_over_400_components_of_one_run_are_standard():
    # the z-score of a chi-square mean taken with its sampled standard
    # error has mean about -sqrt(2/n) = -0.045 and spread about 1 at n = 1000
    lam, gamma, lambda_hat = np.array(_random_pairs(400)).T
    reports = montecarlo._sample(lam, gamma, lambda_hat, 1000, 5)
    z = [(r.empirical_distortion - r.analytic_distortion) / r.standard_error for r in reports]
    assert abs(float(np.mean(z))) <= 0.25
    assert 0.85 <= float(np.std(z, ddof=1)) <= 1.15


def test_sampler_memory_does_not_grow_with_n():
    # one chi-square draw stands for all n samples; drawing the n pairs of
    # normals themselves would take 16 MB here
    pair = build_pair(1.0, 0.5, 0.5)
    sample_and_measure(pair, 1000, 1)  # numpy.random is imported on first use
    tracemalloc.start()
    try:
        sample_and_measure(pair, 10**6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


@pytest.mark.parametrize(
    "count, want", [(1, 4.0), (48, 4.0), (49, 4.0049), (2000, 4.8086), (5000, 4.9886)]
)
def test_family_threshold(count, want):
    assert abs(montecarlo._family_threshold(count) - want) <= 1e-4


@pytest.mark.parametrize("count", [49, 300, 2000, 5000, 10**6])
def test_family_threshold_holds_the_48_component_false_alarm_rate(count):
    # Sidak: count independent tests at k standard errors each miss with
    # probability 1 - (1 - erfc(k/sqrt(2)))**count, held at its value for
    # 48 tests at 4 standard errors
    def family_rate(k, m):
        return -math.expm1(m * math.log1p(-math.erfc(k / math.sqrt(2.0))))

    want = family_rate(4.0, 48)
    got = family_rate(montecarlo._family_threshold(count), count)
    assert abs(got - want) <= 1e-9 * want


@pytest.mark.parametrize("size", [5, 48, 49, 300])
def test_verify_solution_sets_the_family_threshold(size):
    lam = np.exp(np.random.default_rng(size).uniform(-1.0, 1.0, size))
    s = SourceSpectrum(tuple(lam.tolist()))
    sol = reverse_waterfill(s, 0.3 * float(lam.sum()))
    reports = verify_solution(s, sol, 1000, 1, PerceptionMetric.UNCONSTRAINED)
    assert {r.threshold for r in reports} == {montecarlo._family_threshold(size)}


def _both_active_five():
    s = SourceSpectrum((3.0, 2.0, 5.0, 4.0, 1.0))
    return s, solve(s, TradeoffQuery(7.5, 0.1, PerceptionMetric.KL))


def _ar1_48_p0():
    i = np.arange(48)
    s = from_covariance(0.95 ** np.abs(i[:, None] - i[None, :]))
    return s, solve(s, TradeoffQuery(14.4, 0.0, PerceptionMetric.W2))


def _w2_2000():
    lam = np.exp(np.random.default_rng(0).uniform(-1.0, 1.0, 2000))
    tr = float(lam.sum())
    s = SourceSpectrum(tuple(lam.tolist()))
    return s, solve(s, TradeoffQuery(0.3 * tr, 0.05 * tr, PerceptionMetric.W2))


_PROBLEMS = {
    _both_active_five: PerceptionMetric.KL,
    _ar1_48_p0: PerceptionMetric.W2,
    _w2_2000: PerceptionMetric.W2,
}


@pytest.mark.parametrize("problem", list(_PROBLEMS))
@pytest.mark.parametrize("n, seed", [(50_000, 0), (10**12, 2**63)])
def test_first_report_is_sample_and_measure(problem, n, seed):
    # one sampling path: component 0 of a solution is the one-component
    # sample of its pair, judged at the family threshold
    s, sol = problem()
    reports = verify_solution(s, sol, n, seed, _PROBLEMS[problem])
    lam, gamma, lambda_hat = s.lambdas[0], sol.gammas[0], sol.lambda_hats[0]
    pair = build_pair(float(lam), float(min(gamma, lam)), float(lambda_hat))
    want = sample_and_measure(pair, n, seed)
    assert reports[0] == dataclasses.replace(want, threshold=montecarlo._family_threshold(s.dim))


@pytest.mark.parametrize("problem", list(_PROBLEMS))
@pytest.mark.parametrize("n, seed", [(50_000, 0), (10**12, 2**63)])
def test_first_reports_of_a_run_are_a_shorter_run(problem, n, seed):
    # component i draws the i-th variate of the seed's one generator, so it
    # depends only on (seed, i, n): the first k reports of an L-component
    # run are those of a k-component run, up to the family threshold
    s, sol = problem()
    lam = s.lambdas
    gamma = np.minimum(sol.gammas, lam)
    reports = verify_solution(s, sol, n, seed, _PROBLEMS[problem])
    for k in sorted({1, 2, 5, lam.size // 2, lam.size - 1}):
        head = montecarlo._sample(lam[:k], gamma[:k], sol.lambda_hats[:k], n, seed)
        threshold = montecarlo._family_threshold(k)
        assert [dataclasses.replace(r, threshold=threshold) for r in reports[:k]] == head, k


# sampled (empirical_distortion, standard_error) per component of the
# both-active five-component KL solution, as drawn from each seed's one
# generator; a change to the seeding or to s2 shows here, not only between
# two runs of one build
FROZEN_DRAWS = {
    (50_000, 0): [
        (1.5887831773283023, 0.010048347097033254),
        (1.426445761681123, 0.009021635131212166),
        (1.7328090460846166, 0.010959246671542126),
        (1.672997259463197, 0.01058096371824678),
        (1.0690500575500093, 0.006761266229184229),
    ],
    (10**12, 2**63): [
        (1.594267160220253, 2.2546342400295217e-06),
        (1.4291688648788785, 2.0211499916330713e-06),
        (1.7313037432841016, 2.4484332343396837e-06),
        (1.6808609069017781, 2.3770962910032347e-06),
        (1.0644060176602175, 1.5052974260466156e-06),
    ],
}


@pytest.mark.parametrize("n, seed", list(FROZEN_DRAWS))
def test_draws_are_frozen(n, seed):
    # s2 may differ in its last bit between ways of squaring l11 - l21, so
    # the bound is about two ulps of relative error, not bit equality
    s, sol = _both_active_five()
    reports = verify_solution(s, sol, n, seed, metric=PerceptionMetric.KL)
    for rep, (mean_d, se) in zip(reports, FROZEN_DRAWS[n, seed], strict=True):
        assert abs(rep.empirical_distortion - mean_d) <= 4.5e-16 * mean_d
        assert abs(rep.standard_error - se) <= 4.5e-16 * se


def test_verdicts_are_free_of_units_over_the_whole_double_range():
    # lambda = (c, 2c), D = c, W2 P = 0.1c at the CLI's 50,000 samples and
    # seed 0: s2 was once formed from lambda_hat*gamma, a product of two
    # variances, which overflowed beyond c of about 1e154 (every sampled
    # distortion and standard error inf, so the check passed vacuously)
    # and lost its digits below about 1e-162 (the samples fell to 0.46 and
    # 0.23 of the analytic distortion)
    def run(c):
        s = SourceSpectrum((c, 2.0 * c))
        sol = solve(s, TradeoffQuery(c, 0.1 * c, PerceptionMetric.W2))
        reports = verify_solution(s, sol, 50_000, 0, PerceptionMetric.W2)
        z = [(r.empirical_distortion - r.analytic_distortion) / r.standard_error for r in reports]
        return [r.within_threshold for r in reports], z, [r.standard_error for r in reports]

    verdicts, z_ref, _ = run(1.0)
    assert verdicts == [True, True]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in range(-300, 301, 2):
            c = 10.0**k
            got, z, se = run(c)
            assert got == verdicts, k
            assert max(abs(a - b) for a, b in zip(z, z_ref)) <= 1e-12, (k, z)
            assert all(0.0 < e < math.inf for e in se), (k, se)


def test_build_pair_covariance_entries():
    pair = build_pair(1.0, 0.5, 1.0)
    assert pair.cov[0, 0] == 1.0
    assert pair.cov[1, 1] == 1.0
    assert pair.cov[0, 1] == math.sqrt(0.5)
    assert pair.cov[1, 0] == pair.cov[0, 1]


def test_build_pair_identity_when_independent():
    # gamma = lam makes the cross term vanish
    pair = build_pair(1.0, 1.0, 1.0)
    assert np.array_equal(pair.cov, np.eye(2))


def test_build_pair_validation():
    with pytest.raises(DomainError):
        build_pair(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        build_pair(1.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        build_pair(1.0, 0.5, -0.1)
    with pytest.raises(DomainError):
        build_pair(0.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        build_pair(float("nan"), 0.5, 1.0)
    with pytest.raises(DomainError):
        build_pair(1.0, 0.5, float("inf"))


def test_pair_covariance_is_frozen():
    pair = build_pair(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        pair.cov[0, 0] = 5.0


def test_pair_determinant_identity():
    # det of the joint covariance collapses to gamma * lambda_hat
    rng = random.Random(17)
    for _ in range(50):
        lam = rng.uniform(0.2, 8.0)
        gamma = rng.uniform(0.05, 1.0) * lam
        lam_hat = rng.uniform(0.0, 2.0) * lam
        pair = build_pair(lam, gamma, lam_hat)
        det = float(np.linalg.det(pair.cov))
        target = gamma * lam_hat
        assert abs(det - target) <= 1e-12 * max(1.0, abs(target))


def test_pair_conditional_variance_is_gamma():
    rng = random.Random(29)
    for _ in range(25):
        lam = rng.uniform(0.5, 5.0)
        gamma = rng.uniform(0.1, 0.95) * lam
        lam_hat = rng.uniform(0.3, 2.0) * lam
        pair = build_pair(lam, gamma, lam_hat)
        c = pair.cov[0, 1]
        cond = lam - c * c / lam_hat
        assert abs(cond - gamma) <= 1e-12 * lam


@pytest.mark.parametrize("lam, gamma, lambda_hat", _random_pairs(20) + CORNER_TRIPLES)
def test_lower_factor_reproduces_the_pair_covariance(lam, gamma, lambda_hat):
    # the elementwise reference's draws are only as right as its factor:
    # l11^2 = lam, l11*l21 = c and l21^2 + l22^2 = lambda_hat, each to a
    # few ulps
    pair = build_pair(lam, gamma, lambda_hat)
    l11, l21, l22 = _lower_factor(pair)
    c = float(pair.cov[0, 1])
    for got, want in ((l11 * l11, lam), (l11 * l21, c), (l21 * l21 + l22 * l22, lambda_hat)):
        assert abs(got - want) <= 4.0 * math.ulp(want), (got, want)


def test_sample_and_measure_rejects_small_n():
    pair = build_pair(1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        sample_and_measure(pair, 999, 0)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9])
def test_not_psd_guard_on_inconsistent_pair(scale):
    # bypass build_pair validation on purpose: gamma just above lam leaves
    # a radicand of -1e-7*scale, which an absolute tolerance would accept
    lam = scale
    gamma = (1.0 + 1e-7) * lam
    cov = np.array([[lam, 0.0], [0.0, lam]])
    pair = JointGaussianPair(cov=cov, lam=lam, gamma=gamma, lambda_hat=lam)
    with pytest.raises(NotPsdError):
        sample_and_measure(pair, 1000, 0)


@pytest.mark.parametrize("lam, gamma, lambda_hat", [(1.0, 1.5, 0.0), (1.0, 0.0, -0.5)])
def test_not_psd_guard_where_one_radicand_is_negative(lam, gamma, lambda_hat):
    # a collapsed reconstruction with gamma above lam, and a negative
    # lambda_hat with gamma = 0, leave only sqrt(lam - gamma) or
    # sqrt(lambda_hat) negative: the guard must name the pair, not take a
    # root of a negative number
    cov = np.array([[lam, 0.0], [0.0, lambda_hat]])
    pair = JointGaussianPair(cov=cov, lam=lam, gamma=gamma, lambda_hat=lambda_hat)
    with pytest.raises(NotPsdError):
        sample_and_measure(pair, 1000, 0)


def test_independent_pair_large_sample():
    # independent unit-variance coordinates: E(Z - Zhat)^2 = 2
    pair = build_pair(1.0, 1.0, 1.0)
    rep = sample_and_measure(pair, 10**6, 1234)
    assert rep.analytic_distortion == 2.0
    assert rep.n_samples == 10**6
    assert rep.seed == 1234
    assert rep.standard_error > 0.0
    # 4 standard errors is about 0.011 here
    assert 4.0 * rep.standard_error < 0.012
    assert rep.within_threshold


def test_matched_pair_distortion_half():
    pair = build_pair(1.0, 0.5, 0.5)
    rep = sample_and_measure(pair, 10**5, 5)
    assert rep.analytic_distortion == 0.5
    assert rep.within_threshold


def test_collapsed_reconstruction():
    pair = build_pair(2.0, 2.0, 0.0)
    rep = sample_and_measure(pair, 2000, 9)
    assert rep.analytic_distortion == 2.0
    assert rep.standard_error > 0.0
    assert rep.within_threshold


def test_sampling_is_bit_identical():
    pair = build_pair(1.0, 0.5, 0.5)
    a = sample_and_measure(pair, 10**4, 7)
    b = sample_and_measure(pair, 10**4, 7)
    assert a == b


def test_seeds_and_components_draw_different_values():
    pair = build_pair(1.0, 0.5, 0.5)
    base = sample_and_measure(pair, 10**4, 7)
    other_seed = sample_and_measure(pair, 10**4, 8)
    assert base.empirical_distortion != other_seed.empirical_distortion
    # one pair sampled twice in one run draws two different variates
    lam, gamma, lambda_hat = np.array([[1.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
    twice = montecarlo._sample(lam, gamma, lambda_hat, 10**4, 7)
    assert twice[0] == base
    assert twice[1].empirical_distortion != base.empirical_distortion


def test_negative_seed_draws_as_its_residue():
    s, sol = _both_active_five()
    neg = verify_solution(s, sol, 10**4, -5, PerceptionMetric.KL)
    pos = verify_solution(s, sol, 10**4, 2**64 - 5, PerceptionMetric.KL)
    assert {r.seed for r in neg} == {-5}
    assert [dataclasses.replace(r, seed=2**64 - 5) for r in neg] == pos


def test_random_pairs_within_four_se():
    rng = random.Random(61)
    for _ in range(10):
        lam = rng.uniform(0.3, 6.0)
        gamma = rng.uniform(0.1, 1.0) * lam
        lam_hat = rng.uniform(0.1, 2.0) * lam
        pair = build_pair(lam, gamma, lam_hat)
        rep = sample_and_measure(pair, 20000, rng.randrange(1 << 32))
        assert rep.within_threshold


def test_verify_classic_rd_pair():
    s = SourceSpectrum((1.0, 1.0))
    sol = reverse_waterfill(s, 1.0)
    reports = verify_solution(s, sol, 10**6, 42, PerceptionMetric.UNCONSTRAINED)
    assert len(reports) == 2
    total = sum(r.empirical_distortion for r in reports)
    pooled = math.sqrt(sum(r.standard_error**2 for r in reports))
    assert abs(total - 1.0) <= 4.0 * pooled


def test_verify_perfect_perception_scalar():
    s = SourceSpectrum((1.0,))
    sol = solve_perfect_perception(s, 1.0)
    reports = verify_solution(s, sol, 10**5, 7, PerceptionMetric.W2)
    assert len(reports) == 1
    assert abs(reports[0].analytic_distortion - 1.0) < 1e-9
    assert reports[0].within_threshold


def test_verify_both_active_solution():
    s = SourceSpectrum((3.0, 2.0, 5.0, 4.0, 1.0))
    sol = solve(s, TradeoffQuery(7.5, 0.1, PerceptionMetric.KL))
    reports = verify_solution(s, sol, 5000, 99, metric=PerceptionMetric.KL)
    assert len(reports) == 5
    assert all(r.within_threshold for r in reports)
    total = sum(r.analytic_distortion for r in reports)
    assert abs(total - sol.achieved_distortion) <= 1e-10 * max(
        1.0, sol.achieved_distortion
    )


def test_verify_rejects_wrong_metric():
    s = SourceSpectrum((3.0, 2.0, 5.0, 4.0, 1.0))
    sol = solve(s, TradeoffQuery(7.5, 0.1, PerceptionMetric.KL))
    with pytest.raises(DomainError):
        verify_solution(s, sol, 5000, 99, metric=PerceptionMetric.W2)


def test_verify_w2_solution_perception_total():
    s = SourceSpectrum((2.0, 0.5))
    sol = solve(s, TradeoffQuery(1.2, 0.2, PerceptionMetric.W2))
    reports = verify_solution(s, sol, 20000, 3, metric=PerceptionMetric.W2)
    assert len(reports) == 2
    assert all(r.within_threshold for r in reports)


@pytest.mark.parametrize("field", ["achieved_distortion", "achieved_perception"])
def test_verify_totals_are_checked_relative_to_themselves(field):
    # at 1e-6 of desk scale the totals are about 1e-6, so a bound floored
    # at 1e-10 absolute would let a 1e-7 relative error through
    s = SourceSpectrum((2e-6, 0.5e-6))
    sol = solve(s, TradeoffQuery(1.2e-6, 0.2e-6, PerceptionMetric.W2))
    verify_solution(s, sol, 5000, 3, metric=PerceptionMetric.W2)
    off = dataclasses.replace(sol, **{field: getattr(sol, field) * (1.0 + 1e-7)})
    with pytest.raises(DomainError):
        verify_solution(s, off, 5000, 3, metric=PerceptionMetric.W2)
