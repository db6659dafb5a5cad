"""End-to-end acceptance battery.

Twelve independent criteria, one test each, every one printing a single
PASS line with its measured figure when it holds.  Tolerances are the
contract; loosening any of them is a regression.
"""

import math
import random
import time

import numpy as np

from gaussian_rdp import (
    PerceptionMetric,
    PrimalPoint,
    SolutionCase,
    SourceSpectrum,
    TradeoffQuery,
    check_gradients,
    low_distortion_p0_estimate,
    low_distortion_rd_estimate,
    minimize_primal,
    minimize_primal_p0,
    reverse_waterfill,
    sample_and_measure,
    build_pair,
    solution_residuals,
    solve,
    solve_perfect_perception,
)
from gaussian_rdp.cli import main

FIG_LAMBDAS = (3.0, 2.0, 5.0, 4.0, 1.0)


def _random_instances(seed, count, l_range=(1, 4)):
    """Deterministic feasible (s, q) pairs, both metrics interleaved."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(*l_range)
        lams = tuple(rng.uniform(0.2, 5.0) for _ in range(dim))
        total = sum(lams)
        metric = PerceptionMetric.KL if len(out) % 2 == 0 else PerceptionMetric.W2
        d = rng.uniform(0.15, 0.85) * total
        if metric is PerceptionMetric.KL:
            p = 10.0 ** rng.uniform(-3.0, 0.0)
        else:
            p = 10.0 ** rng.uniform(-3.0, -0.5) * total
        out.append((SourceSpectrum(lams), TradeoffQuery(d, p, metric)))
    return out


_C2_CACHE: dict = {}


def _criterion2_solutions():
    if not _C2_CACHE:
        instances = _random_instances(2026, 50)
        _C2_CACHE["instances"] = instances
        _C2_CACHE["solutions"] = [solve(s, q) for s, q in instances]
    return _C2_CACHE["instances"], _C2_CACHE["solutions"]


def test_criterion_01_classic_rd_exactness():
    s1 = SourceSpectrum((1.0, 1.0))
    s2 = SourceSpectrum((2.0, 0.5))
    reverse_waterfill(s1, 1.0)  # numpy warmup before timing
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        a = reverse_waterfill(s1, 1.0)
        b = reverse_waterfill(s2, 1.2)
        best = min(best, time.perf_counter() - t0)
    assert abs(a.total_rate - math.log(2.0)) <= 1e-12
    assert abs(b.total_rate - 0.5 * math.log(2.0 / 0.7)) <= 1e-12
    assert best < 1e-3
    print(f"criterion 1: PASS (classic RD exact to 1e-12, {best * 1e6:.0f} us/pair)")


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    instances, solutions = _criterion2_solutions()
    worst = 0.0
    for (s, q), sol in zip(instances, solutions):
        oracle = minimize_primal(s, q)
        diff = abs(sol.total_rate - oracle.rate)
        bound = max(1e-4, 1e-3 * sol.total_rate)
        assert diff <= bound, (s.lambdas, q, diff)
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 2: PASS (50 instances, worst |solver-oracle| = {worst:.2e} nats,"
        f" {elapsed:.1f} s)"
    )


def test_criterion_03_kkt_certification():
    instances, solutions = _criterion2_solutions()
    worst_stat = 0.0
    checked = 0
    for (s, q), sol in zip(instances, solutions):
        if sol.case_tag is not SolutionCase.BOTH_ACTIVE:
            continue
        checked += 1
        res = solution_residuals(
            s, sol, q.metric, q.distortion_budget, q.perception_budget
        )
        stat = max(
            float(np.max(np.abs(res.stationarity_gamma))),
            float(np.max(np.abs(res.stationarity_lambda_hat))),
        )
        assert stat <= 1e-8, (s.lambdas, q, stat)
        worst_stat = max(worst_stat, stat)
        assert abs(sol.achieved_distortion - q.distortion_budget) <= 1e-9 * max(
            1.0, q.distortion_budget
        )
        assert abs(sol.achieved_perception - q.perception_budget) <= 1e-9 * max(
            1.0, q.perception_budget
        )
    assert checked > 0
    print(
        f"criterion 3: PASS ({checked} BothActive solutions, worst stationarity"
        f" residual = {worst_stat:.2e})"
    )


def test_criterion_04_positive_rate_theorem():
    rng = random.Random(404)
    checked = 0
    while checked < 100:
        dim = rng.randint(1, 5)
        lams = tuple(rng.uniform(0.2, 5.0) for _ in range(dim))
        total = sum(lams)
        metric = PerceptionMetric.KL if checked % 2 == 0 else PerceptionMetric.W2
        d = rng.uniform(0.15, 0.85) * total
        p = 10.0 ** rng.uniform(-3.0, -0.5)
        if metric is PerceptionMetric.W2:
            p *= total
        sol = solve(SourceSpectrum(lams), TradeoffQuery(d, p, metric))
        if sol.case_tag is not SolutionCase.BOTH_ACTIVE:
            continue
        checked += 1
        for lam, gamma, rate in zip(lams, sol.gammas, sol.rates):
            assert lam - gamma > 1e-12 * lam
            assert rate > 0.0
    print("criterion 4: PASS (100 BothActive instances, every component rate > 0)")


def test_criterion_05_perfect_perception_scalar():
    s = SourceSpectrum((1.0,))
    target = 0.5 * math.log(4.0 / 3.0)
    for metric in (PerceptionMetric.KL, PerceptionMetric.W2):
        sol = solve(s, TradeoffQuery(1.0, 0.0, metric))
        assert abs(sol.gammas[0] - 0.75) <= 1e-9
        assert abs(sol.total_rate - target) <= 1e-9
    print("criterion 5: PASS (gamma = 0.75, rate = half log 4/3, both metrics)")


def test_criterion_06_scalar_p0_reduction():
    rng = random.Random(606)
    worst = 0.0
    for _ in range(20):
        lam = rng.uniform(0.3, 5.0)
        d = rng.uniform(0.05, 0.95) * 2.0 * lam
        s = SourceSpectrum((lam,))
        got = solve_perfect_perception(s, d).total_rate
        want = reverse_waterfill(s, d - d * d / (4.0 * lam)).total_rate
        assert abs(got - want) <= 1e-8, (lam, d)
        worst = max(worst, abs(got - want))
    print(f"criterion 6: PASS (20 scalar points, worst gap {worst:.2e} nats)")


def test_criterion_07_asymptotic_ratio_laws():
    t0 = time.perf_counter()
    s = SourceSpectrum(FIG_LAMBDAS)
    total = s.total_variance
    lam_max = 5.0

    eps = 1e-3 * lam_max
    ratio_a = reverse_waterfill(s, total - eps).total_rate * 2.0 * lam_max / eps
    assert 0.99 <= ratio_a <= 1.01

    eps_b = 1.0  # below saturation: water level 0.2 < min eigenvalue
    est_rate, est_level = low_distortion_rd_estimate(s, eps_b)
    rd = reverse_waterfill(s, eps_b)
    assert abs(rd.total_rate - est_rate) <= 1e-12
    assert all(abs(gamma - est_level) <= 1e-12 for gamma in rd.gammas)

    for eps_c, lo, hi in ((1e-2 * total, 0.95, 1.05), (1e-3 * total, 0.99, 1.01)):
        rate = solve_perfect_perception(s, 2.0 * total - eps_c).total_rate
        ratio_c = rate * 8.0 * float(np.sum(s.lambdas**2)) / (eps_c * eps_c)
        assert lo <= ratio_c <= hi, (eps_c, ratio_c)

    dim = s.dim
    eps_d = 1e-3 * dim * float(np.min(s.lambdas))
    gap = (
        solve_perfect_perception(s, eps_d).total_rate
        - reverse_waterfill(s, eps_d).total_rate
    )
    ratio_d = gap * 8.0 * dim / (eps_d * float(np.sum(1.0 / s.lambdas)))
    assert 0.95 <= ratio_d <= 1.05

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"criterion 7: PASS (ratios {ratio_a:.4f} / exact / {ratio_c:.4f} /"
        f" {ratio_d:.4f}, {elapsed:.2f} s)"
    )


def test_criterion_08_component_activation_pattern():
    s = SourceSpectrum(FIG_LAMBDAS)
    total = s.total_variance

    near_ceiling = reverse_waterfill(s, total - 0.01)
    active = [
        i
        for i, (lam, gamma) in enumerate(zip(FIG_LAMBDAS, near_ceiling.gammas))
        if gamma < lam
    ]
    assert active == [2] and FIG_LAMBDAS[2] == 5.0

    p0_high = solve_perfect_perception(s, 2.0 * total - 0.1)
    assert all(gamma < lam for lam, gamma in zip(FIG_LAMBDAS, p0_high.gammas))

    low_rd = reverse_waterfill(s, 0.05)
    assert all(abs(gamma - 0.01) <= 1e-12 for gamma in low_rd.gammas)

    p0_low = solve_perfect_perception(s, 0.05)
    _, levels = low_distortion_p0_estimate(s, 0.05)
    dev = max(
        abs(gamma - lvl) for gamma, lvl in zip(p0_low.gammas, levels)
    )
    assert dev <= 1e-4
    print(
        "criterion 8: PASS (activation pattern and water levels match,"
        f" low-D P0 level deviation {dev:.1e})"
    )


def test_criterion_09_unconstrained_degeneration():
    rng = random.Random(909)
    for _ in range(20):
        dim = rng.randint(1, 6)
        lams = tuple(rng.uniform(0.2, 5.0) for _ in range(dim))
        d = rng.uniform(0.05, 0.95) * sum(lams)
        s = SourceSpectrum(lams)
        a = solve(s, TradeoffQuery(d, math.inf, PerceptionMetric.UNCONSTRAINED))
        b = reverse_waterfill(s, d)
        assert float(np.max(np.abs(a.gammas - b.gammas))) <= 1e-10
    print("criterion 9: PASS (20 instances, P = inf identical to classic RD)")


def test_criterion_10_montecarlo_distortion():
    t0 = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(10):
        lam = rng.uniform(0.3, 6.0)
        gamma = rng.uniform(0.1, 1.0) * lam
        lam_hat = rng.uniform(0.1, 2.0) * lam
        seed = rng.randrange(1 << 32)
        pair = build_pair(lam, gamma, lam_hat)
        rep = sample_and_measure(pair, 10**6, seed)
        gap = abs(rep.empirical_distortion - rep.analytic_distortion)
        assert gap <= 4.0 * rep.standard_error, (lam, gamma, lam_hat, seed)
        assert sample_and_measure(pair, 10**6, seed) == rep
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"criterion 10: PASS (10 triples at n = 1e6 within 4 SE, bit-identical"
        f" reruns, {elapsed:.1f} s)"
    )


def test_criterion_11_oracle_gradient_check():
    rng = random.Random(1111)
    worst = 0.0
    for i in range(20):
        dim = rng.randint(1, 4)
        lams = np.array([rng.uniform(0.3, 5.0) for _ in range(dim)])
        s = SourceSpectrum(tuple(lams))
        gammas = np.array([rng.uniform(0.15, 0.85) for _ in range(dim)]) * lams
        hats = np.array([rng.uniform(0.3, 1.7) for _ in range(dim)]) * lams
        metric = PerceptionMetric.KL if i % 2 == 0 else PerceptionMetric.W2
        q = TradeoffQuery(s.total_variance, 1.0, metric)
        err = check_gradients(s, q, PrimalPoint(gammas=gammas, lambda_hats=hats))
        assert err <= 1e-5, (lams, gammas, hats, metric, err)
        worst = max(worst, err)
    print(f"criterion 11: PASS (20 interior points, worst relative error {worst:.1e})")


def test_criterion_12_cli_grid_determinism(tmp_path):
    argv = [
        "curve",
        "--lambdas",
        "3,2,5,4,1",
        "--metric",
        "kl",
        "--distortion",
        "2:25:10",
        "--perception",
        "0.01:1:10:log",
    ]
    a = tmp_path / "jobs1.csv"
    b = tmp_path / "jobs4.csv"
    assert main(argv + ["--jobs", "1", "--output", str(a)]) == 0
    assert main(argv + ["--jobs", "4", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    print("criterion 12: PASS (10x10 grid byte-identical at --jobs 1 and --jobs 4)")
