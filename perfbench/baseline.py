"""Re-measure the ROADMAP baseline probes with the benchmark's tracer.

    PYTHONPATH=src python3 perfbench/baseline.py

Prints one row per probe: the median and the range over REPEATS runs,
the dual evaluations per solve counted in the traced run, and the share of
the traced time spent in ``bisect_root``.  The probes are ``solve`` for
KL, W2 and P = 0 at D = 0.3 tr over L = 5, 50 and 500 (and W2 at L = 200);
``from_covariance`` of AR(1) matrices at n = 20, 60 and 120; and the
200-point KL ``curve`` at L = 20 with ``--jobs`` 1 and 4.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

import run
from tracer import Tracer, summarize

REPEATS = 3


def spectrum(dim: int) -> np.ndarray:
    return 10.0 ** (-2.0 * (np.arange(dim) + 0.5) / dim)


def traced(fn, args, trace: bool):
    """Wall time of ``fn(*args)`` untraced and, with ``trace``, traced, and
    the span summary (empty without ``trace``)."""
    t0 = time.perf_counter()
    fn(*args)
    seconds = time.perf_counter() - t0
    if not trace:
        return seconds, 0.0, {}
    tracer = Tracer()
    try:
        run.install_layers(tracer)
        t0 = time.perf_counter()
        fn(*args)
        traced_seconds = time.perf_counter() - t0
    finally:
        tracer.restore()
    return seconds, traced_seconds, summarize(tracer.arrays())


def probes(api, cli):
    for dim in (5, 50, 200, 500):
        lam = spectrum(dim)
        tr = float(lam.sum())
        s = api.SourceSpectrum(lambdas=lam)
        for kind, P in (("w2", 0.05 * tr), ("kl", 0.05 * dim), ("p0", 0.0)):
            if (kind == "p0" and dim != 500) or (dim == 200 and kind != "w2"):
                continue
            metric = api.PerceptionMetric.KL if kind == "kl" else api.PerceptionMetric.W2
            q = api.TradeoffQuery(0.3 * tr, P, metric)
            # look the entry points up at call time, so the traced call is wrapped
            yield f"solve {kind} L={dim}", lambda s, q: api.solve(s, q), (s, q), True
    for n in (20, 60, 120):
        i = np.arange(n)
        m = 0.8 ** np.abs(i[:, None] - i[None, :])
        yield f"from_covariance n={n}", api.from_covariance, (m,), True
    lam = spectrum(20)
    tr = float(lam.sum())
    path = os.path.join(run.OUT, "baseline-curve.csv")
    for jobs in (1, 4):
        argv = [
            "curve", "--lambdas", ",".join(repr(float(v)) for v in lam), "--metric", "kl",
            "--distortion", f"{0.05 * tr!r}:{1.5 * tr!r}:20", "--perception", "0.001:1:10:log",
            "--jobs", str(jobs), "--output", path,
        ]
        # the tracer keeps one span stack, so threaded sweeps run untraced
        yield f"curve 200 points KL L=20 --jobs {jobs}", lambda argv: cli.main(argv), (argv,), jobs == 1


def main() -> int:
    sys.path.insert(0, run.SRC)
    import gaussian_rdp as api
    from gaussian_rdp import cli

    os.makedirs(run.OUT, exist_ok=True)
    print(f"{'probe':40s} {'median ms':>11s} {'min..max ms':>21s} "
          f"{'dual evals/solve':>17s} {'rootfind share':>15s}")
    for name, fn, fn_args, trace in probes(api, cli):
        times = []
        for _ in range(REPEATS):
            seconds, traced_seconds, summary = traced(fn, fn_args, trace)
            times.append(1e3 * seconds)
        rootfind = sum(r["total"] for n, r in summary.items() if n.startswith("rootfind."))
        solves = summary.get("solver.solve", {"calls": 0})["calls"]
        evals = summary.get("solver.evaluate_dual", {"calls": 0})["calls"]
        per_solve = f"{evals / solves:.1f}" if solves else "-"
        share = f"{rootfind / traced_seconds:.2f}" if trace else "-"
        print(f"{name:40s} {statistics.median(times):11.1f} "
              f"{min(times):10.1f}..{max(times):<10.1f} {per_solve:>17s} {share:>15s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
