#!/usr/bin/env python3
"""Walk the rate-distortion-perception surface of a five-component source.

For a fixed distortion budget, tightening the perception budget raises the
coding rate: the reconstruction law is forced to look like the source law,
which costs bits.  This script prints rate slices across both budgets and
shows the three solution regimes along the way.
"""

import math

from gaussian_rdp import (
    PerceptionMetric,
    SourceSpectrum,
    TradeoffQuery,
    reverse_waterfill,
    solve,
)

LAMBDAS = (3.0, 2.0, 5.0, 4.0, 1.0)


def main():
    s = SourceSpectrum(LAMBDAS)
    total = s.total_variance
    print(f"source spectrum: {LAMBDAS}, total variance {total:g}")
    print(f"classic zero-rate ceiling:  D = {total:g}")
    print(f"perfect-perception ceiling: D = {2 * total:g}\n")

    budgets = [0.3 * total, 0.5 * total, 0.8 * total]
    perceptions = [math.inf, 1.0, 0.3, 0.1, 0.03, 0.0]

    header = "D \\ P   " + "".join(f"{('inf' if math.isinf(p) else p):>10}" for p in perceptions)
    print("rate in nats, KL perception loss")
    print(header)
    for d in budgets:
        cells = []
        for p in perceptions:
            metric = PerceptionMetric.UNCONSTRAINED if math.isinf(p) else PerceptionMetric.KL
            sol = solve(s, TradeoffQuery(d, p, metric))
            cells.append(f"{sol.total_rate:>10.4f}")
        print(f"{d:<8.2f}" + "".join(cells))

    # regimes at one distortion budget
    d = 0.5 * total
    print(f"\nregimes at D = {d:g}:")
    for p in (math.inf, 0.1, 5.0):
        metric = PerceptionMetric.UNCONSTRAINED if math.isinf(p) else PerceptionMetric.KL
        sol = solve(s, TradeoffQuery(d, p, metric))
        print(f"  P = {p:<6}: {sol.case_tag.value:<20} rate {sol.total_rate:.4f}")

    # the generalized water levels are no longer flat when both budgets bind
    rd = reverse_waterfill(s, d)
    rdp = solve(s, TradeoffQuery(d, 0.05, PerceptionMetric.KL))
    print(f"\nwater levels at D = {d:g}:")
    print("  component        ", "  ".join(f"{l:>7g}" for l in LAMBDAS))
    print("  classic RD       ", "  ".join(f"{g:>7.4f}" for g in rd.gammas))
    print("  with P = 0.05    ", "  ".join(f"{g:>7.4f}" for g in rdp.gammas))
    print("\nunder a binding perception budget every component keeps a positive")
    print("rate, so the levels spread apart instead of sitting at one height.")


if __name__ == "__main__":
    main()
