"""Workload inputs, timed operations and answer checks.

Every operation is a callable that makes one closed-loop call into the
library or the CLI, one ``solve`` query or one ``verify`` invocation, and
a ``check`` that turns what came back into the list of failure kinds it
shows (empty when the answer passed).

Inputs come from ``--seed`` alone.  Reference-checked inputs are drawn from
fixed pools whose answers were recorded by ``make_reference.py``; the seed
picks which pool members a run uses.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from calibrate import MIXED, SCALAR

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# answer checks: budgets relative to their own budget, rates to the answers
# recorded in reference/ (absolute for a zero rate)
BUDGET_RTOL = 1e-6
RATE_RTOL = 1e-7
ZERO_RATE_ATOL = 1e-10

# solve-mix: one query per L stratum, from POOL_VARIANTS recorded candidates
SIZED_STRATA = 200
POOL_VARIANTS = 16
WIDE_QUERIES = 30
SOLVE_CAP_S = 3.0
QUERY_KINDS = ("kl", "w2", "p0", "none")
L_BANDS = ((1, 8), (9, 64), (65, 256))

# verify-cov: VERIFY_COPIES matrices per family and dimension
VERIFY_DIMS = (16, 32, 48)
VERIFY_COPIES = 3
VERIFY_FAMILIES = ("ar1", "wishart")
VERIFY_CAP_S = 30.0

_SIZED_KEY = 11
_PICK_KEY = 12
_VERIFY_KEY = 31
_WIDE_RECIPE_SEED = 1


def interleave(ops: list) -> list:
    """Reorder by a golden-ratio stride, so that costly operations spread
    over the whole pass instead of meeting one slow phase of the machine."""
    n = len(ops)
    stride = max(1, round(0.618 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [ops[(k * stride) % n] for k in range(n)]


def _metric(api, kind: str):
    if kind == "kl":
        return api.PerceptionMetric.KL
    if kind == "none":
        return api.PerceptionMetric.UNCONSTRAINED
    return api.PerceptionMetric.W2


def l_band(dim: int) -> str:
    for lo, hi in L_BANDS:
        if lo <= dim <= hi:
            return f"L{lo}-{hi}"
    raise ValueError(f"dimension {dim} outside every band")


def rate_matches(rate: float, reference: float) -> bool:
    if reference == 0.0:
        return abs(rate) <= ZERO_RATE_ATOL
    return abs(rate - reference) <= RATE_RTOL * abs(reference)


def budget_misses(sol, D: float, P: float) -> bool:
    """True if the solution exceeds D or P by more than BUDGET_RTOL of it."""
    if not sol.achieved_distortion <= D * (1.0 + BUDGET_RTOL):
        return True
    return math.isfinite(P) and not sol.achieved_perception <= P * (1.0 + BUDGET_RTOL)


# ---------------------------------------------------------------- solve-mix


def _cell_order(key: int) -> np.ndarray:
    """Fixed pairing of budget cells with L strata, one permutation per kind."""
    per_kind = SIZED_STRATA // len(QUERY_KINDS)
    return np.random.default_rng([_SIZED_KEY, key]).permutation(per_kind)


def sized_query(j: int, m: int) -> tuple[np.ndarray, float, float, str]:
    """Candidate ``m`` of L stratum ``j``: (lambdas, D, P, kind).

    The design is stratified so that every seed draws the same mix of work:
    L is log-uniform over [1, 256] within stratum ``j``; the kind cycles
    KL / W2 / P=0 / none with the stratum; log D/tr over [0.02, 1.5] and
    log P over its range (KL: [1e-3, 1]; W2: P/tr in [1e-3, 0.5]) each fall
    in a fixed cell, one of 50 per kind, paired with the strata by a fixed
    permutation.  The eigenvalues are log-uniform over three decades,
    stratified too: one per ``3/L`` of a decade.  The candidate draws the
    position inside every cell and stratum.
    """
    rng = np.random.default_rng([_SIZED_KEY, j, m])
    dim = min(256, int(257.0 ** ((j + rng.uniform()) / SIZED_STRATA)))
    lam = 10.0 ** (-3.0 * (np.arange(dim) + rng.uniform(size=dim)) / dim)
    tr = float(lam.sum())
    cells = SIZED_STRATA // len(QUERY_KINDS)
    q_d = (_cell_order(1)[j // len(QUERY_KINDS)] + rng.uniform()) / cells
    q_p = (_cell_order(2)[j // len(QUERY_KINDS)] + rng.uniform()) / cells
    D = tr * 0.02 * 75.0**q_d
    kind = QUERY_KINDS[j % len(QUERY_KINDS)]
    if kind == "kl":
        P = 1e-3 * 1e3**q_p
    elif kind == "w2":
        P = tr * 1e-3 * 500.0**q_p
    elif kind == "p0":
        P = 0.0
    else:
        P = math.inf
    return lam, D, P, kind


def wide_queries(count: int) -> list[tuple[np.ndarray, float, float, str]]:
    """The first ``count`` queries of the wide-range fuzz recipe.

    L uniform in [1, 11]; eigenvalues log-uniform over a spread of up to
    1e8 times a scale log-uniform in [1e-4, 1e4]; D/tr log-uniform in
    [1e-6, 2]; P = 0 with probability 0.1, else log-uniform in [1e-8, 10]
    (times tr for W2); KL and W2 alternate.  The recipe has its own fixed
    seed, so these queries are the same in every run.
    """
    rng = np.random.default_rng(_WIDE_RECIPE_SEED)
    out = []
    for i in range(count):
        dim = int(rng.integers(1, 12))
        spread = 10.0 ** rng.uniform(0.0, 8.0)
        scale = 10.0 ** rng.uniform(-4.0, 4.0)
        lam = scale * np.exp(rng.uniform(0.0, math.log(spread), dim))
        tr = float(lam.sum())
        D = tr * 10.0 ** rng.uniform(-6.0, math.log10(2.0))
        kind = "kl" if i % 2 == 0 else "w2"
        if rng.uniform() < 0.1:
            P = 0.0
        else:
            P = 10.0 ** rng.uniform(-8.0, 1.0)
            if kind == "w2":
                P *= tr
        out.append((lam, D, P, kind))
    return out


class SolveOp:
    """One library ``solve`` query."""

    cap_s = SOLVE_CAP_S
    probe = SCALAR

    def __init__(self, api, lam, D, P, kind, reference):
        self.api = api
        self.spectrum = api.SourceSpectrum(lambdas=lam)
        self.query = api.TradeoffQuery(D, P, _metric(api, kind))
        # P = 0 is its own solver path whatever the metric
        self.kind = "p0" if P == 0.0 else kind
        self.band = l_band(lam.size)
        self.reference = reference

    def __call__(self):
        return self.api.solve(self.spectrum, self.query)

    def check(self, sol) -> list[str]:
        kinds = []
        if budget_misses(sol, self.query.distortion_budget, self.query.perception_budget):
            kinds.append("budget_miss")
        if self.reference is not None and not rate_matches(sol.total_rate, self.reference):
            kinds.append("reference_mismatch")
        return kinds


def solve_pool_choice(seed: int) -> list[int]:
    """Pool candidate per L stratum for this seed."""
    rng = np.random.default_rng([_PICK_KEY, seed])
    return [int(m) for m in rng.integers(0, POOL_VARIANTS, SIZED_STRATA)]


def solve_mix(api, seed: int, refs: dict) -> list[SolveOp]:
    ops = []
    for j, m in enumerate(solve_pool_choice(seed)):
        lam, D, P, kind = sized_query(j, m)
        ops.append(SolveOp(api, lam, D, P, kind, refs["rates"][m][j]))
    for lam, D, P, kind in wide_queries(WIDE_QUERIES):
        ops.append(SolveOp(api, lam, D, P, kind, None))
    return interleave(ops)


# --------------------------------------------------------------- verify-cov


def covariance(family: str, n: int, cell: int, rng: np.random.Generator) -> np.ndarray:
    """AR(1) Toeplitz rho^|i-j|, or square-Wishart A A^T / n.

    rho is drawn from cell ``cell`` of len(VERIFY_DIMS) * VERIFY_COPIES
    equal cells of [0.5, 0.95], so that every seed covers the whole range.
    """
    if family == "ar1":
        width = 0.45 / (len(VERIFY_DIMS) * VERIFY_COPIES)
        rho = 0.5 + width * (cell + rng.uniform())
        i = np.arange(n)
        return rho ** np.abs(i[:, None] - i[None, :])
    a = rng.standard_normal((n, n))
    return a @ a.T / n


def write_covariance(path: str, m: np.ndarray) -> None:
    """The CLI's covariance format: the dimension, then one row per line."""
    lines = [str(m.shape[0])] + [" ".join(repr(float(v)) for v in row) for row in m]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


class VerifyOp:
    """One ``verify --covariance`` invocation, report written to a file."""

    cap_s = VERIFY_CAP_S
    probe = MIXED

    def __init__(self, cli, cov_path: str, metric: str, D: float, P: float, outdir: str):
        self.cli = cli
        self.report_path = os.path.join(outdir, "verify-report.json")
        self.argv = [
            "verify", "--covariance", cov_path, "--metric", metric,
            "--distortion", repr(D), "--perception", repr(P),
            "--output", self.report_path,
        ]

    def __call__(self):
        return self.cli.main(self.argv)

    def check(self, code) -> list[str]:
        try:
            with open(self.report_path, encoding="utf-8") as f:
                report = json.load(f)
            os.remove(self.report_path)
        except (OSError, ValueError):
            return ["exit_code"]
        kinds = [
            kind
            for kind, key in (
                ("oracle", "rate_agreement_pass"),
                ("kkt", "kkt_pass"),
                ("montecarlo", "montecarlo_pass"),
            )
            if not report[key]
        ]
        if bool(kinds) == report["all_pass"] or (code == 0) != report["all_pass"]:
            kinds.append("output_error")
        return kinds


def verify_cov(cli, seed: int, outdir: str) -> list[VerifyOp]:
    """Covariance files for this seed, written under ``outdir``, and their queries."""
    rng = np.random.default_rng([_VERIFY_KEY, seed])
    ops = []
    for family in VERIFY_FAMILIES:
        for level, n in enumerate(VERIFY_DIMS):
            for copy in range(VERIFY_COPIES):
                m = covariance(family, n, level * VERIFY_COPIES + copy, rng)
                path = os.path.join(outdir, f"{family}-{n}-{copy}.cov")
                write_covariance(path, m)
                tr = float(np.trace(m))
                D = 0.3 * tr
                for metric, P in (("kl", 0.05 * n), ("w2", 0.05 * tr), ("w2", 0.0)):
                    ops.append(VerifyOp(cli, path, metric, D, P, outdir))
    return interleave(ops)


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as f:
        return json.load(f)
