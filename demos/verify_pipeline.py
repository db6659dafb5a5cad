#!/usr/bin/env python3
"""Cross-check one solved query three independent ways.

The dual-ascent solver, the log-barrier primal minimizer, and Monte Carlo
sampling of the achieving joint Gaussians share almost no code, so their
agreement on the same query is a strong correctness signal.  This is the
library counterpart of `gaussian-rdp verify`.
"""

import math

from gaussian_rdp import (
    PerceptionMetric,
    SourceSpectrum,
    TradeoffQuery,
    minimize_primal,
    solution_residuals,
    solve,
    verify_solution,
)

LAMBDAS = (2.0, 1.0, 0.5)
D = 1.4
P = 0.08
METRIC = PerceptionMetric.KL


def main():
    s = SourceSpectrum(LAMBDAS)
    q = TradeoffQuery(D, P, METRIC)
    print(f"query: lambdas {LAMBDAS}, D = {D}, P = {P}, metric {METRIC.value}\n")

    sol = solve(s, q)
    print(f"dual solver:   rate {sol.total_rate:.10f} nats  [{sol.case_tag.value}]")
    print(f"  multipliers  nu1 = {sol.dual.nu1:.6f}, nu2 = {sol.dual.nu2:.6f}")
    print(f"  budgets met  D: {sol.achieved_distortion:.12f}  P: {sol.achieved_perception:.12f}")

    oracle = minimize_primal(s, q)
    diff = abs(sol.total_rate - oracle.rate)
    print(f"\nbarrier oracle: rate {oracle.rate:.10f} nats")
    print(f"  |difference| = {diff:.2e} nats ({oracle.newton_steps} barrier Newton steps)")

    res = solution_residuals(s, sol, METRIC, D, P)
    stat = max(abs(v) for v in list(res.stationarity_gamma) + list(res.stationarity_lambda_hat))
    print(f"\nKKT certificate: worst stationarity residual {stat:.2e}")
    print(f"  complementarity violation {res.complementarity:.2e}")

    n = 200000
    reports = verify_solution(s, sol, n, seed=7, metric=METRIC)
    print(f"\nMonte Carlo, n = {n} per component:")
    for i, r in enumerate(reports):
        flag = "ok" if r.within_threshold else "FAIL"
        print(
            f"  component {i + 1}: empirical {r.empirical_distortion:.5f}"
            f"  analytic {r.analytic_distortion:.5f}"
            f"  ({r.threshold:g} SE = {r.threshold * r.standard_error:.5f})  {flag}"
        )
    total_emp = sum(r.empirical_distortion for r in reports)
    pooled = math.sqrt(sum(r.standard_error**2 for r in reports))
    print(
        f"  total: empirical {total_emp:.5f} vs budget {D}"
        f"  ({abs(total_emp - D) / pooled:.2f} pooled SE away)"
    )


if __name__ == "__main__":
    main()
