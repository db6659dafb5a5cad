"""Command-line front end: single points, curve sweeps, and verification.

Three subcommands share one input vocabulary:

``point``
    Evaluate one (distortion, perception) query and print a full solution
    record.
``curve``
    Evaluate a grid of queries (either budget may be a grid) and emit a
    CSV or JSON table, one row per grid point in distortion-major order.
    Grid points are solved serially, in that order; ``--jobs N`` is
    accepted (N >= 1) and ignored.
``verify``
    Solve one query, re-solve it with the independent barrier minimizer,
    and sample the achieving distributions; report every check as JSON,
    with rates in nats (``--format csv`` and ``--unit bits`` are refused).

Sources are given inline (``--lambdas 1,0.5``) or as a covariance file:
first line the dimension L, then L whitespace-separated rows of L reals.

Budgets are scalars or grids ``MIN:MAX:COUNT`` with an optional fourth
``:linear`` or ``:log`` field.  Rates are computed in nats and converted
once at the output boundary when ``--unit bits`` is requested.

CSV serialization uses 17 significant digits, so re-parsing a curve file
reproduces the original sweep exactly (when written in nats).  Metadata
rides in leading ``# key: value`` comment lines.  Infeasible grid points
become rows with an ``infeasible`` tag and empty numeric fields rather
than aborting the run.

Exit codes: 0 success (and every check passing, for ``verify``); 1
malformed input or a failed verification; 3 convergence failure, of the
dual search or, under ``verify``, of a barrier stage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError, RdpError
from .model import (
    CurveSweep,
    DualPoint,
    PerceptionMetric,
    RdpSolution,
    SolutionCase,
    SourceSpectrum,
    TradeoffQuery,
    from_covariance,
)
from .montecarlo import verify_solution
from .oracle import minimize_primal
from .solver import solve

__all__ = [
    "GridSpec",
    "RunConfig",
    "run_point",
    "run_curve",
    "run_verify",
    "curve_to_csv",
    "curve_from_csv",
    "curve_to_json",
    "solution_record",
    "main",
]

_LN2 = math.log(2.0)
_KKT_PASS_THRESHOLD = 1e-6


def _jsonable(obj):
    """Strict-JSON copy: non-finite floats become 'inf', '-inf', 'nan'."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


class CliInputError(DomainError):
    """Malformed command-line input; maps to exit code 1."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced budget grid, linear or logarithmic."""

    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise CliInputError("grid endpoints must be finite")
        if self.start > self.stop:
            raise CliInputError(
                f"grid start {self.start!r} exceeds stop {self.stop!r}"
            )
        if self.count < 1:
            raise CliInputError(f"grid count must be >= 1, got {self.count}")
        if self.spacing not in ("linear", "log"):
            raise CliInputError(f"grid spacing must be linear or log, got {self.spacing!r}")
        if self.spacing == "log" and self.start <= 0.0:
            raise CliInputError("log spacing needs a positive grid start")

    def values(self) -> tuple[float, ...]:
        if self.count == 1:
            return (self.start,)
        if self.spacing == "log":
            return tuple(np.geomspace(self.start, self.stop, self.count).tolist())
        return tuple(np.linspace(self.start, self.stop, self.count).tolist())


def parse_budget(text: str, field: str) -> float | GridSpec:
    """A scalar float, or MIN:MAX:COUNT[:linear|log] as a GridSpec."""
    try:
        return float(text)
    except ValueError:
        pass
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise CliInputError(
            f"{field}: expected a number or MIN:MAX:COUNT[:linear|log], got {text!r}"
        )
    try:
        start = float(parts[0])
        stop = float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise CliInputError(f"{field}: bad grid field in {text!r}: {exc}") from None
    spacing = parts[3] if len(parts) == 4 else "linear"
    try:
        return GridSpec(start=start, stop=stop, count=count, spacing=spacing)
    except CliInputError as exc:
        raise CliInputError(f"{field}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """Everything one subcommand invocation needs, validated."""

    lambdas: tuple[float, ...] | None
    covariance_path: str | None
    metric: PerceptionMetric
    distortion: float | GridSpec
    perception: float | GridSpec
    output_format: str = "json"
    rate_unit: str = "nats"
    seed: int = 0
    samples: int = 50000
    output_path: str | None = None

    def __post_init__(self) -> None:
        if (self.lambdas is None) == (self.covariance_path is None):
            raise CliInputError(
                "exactly one of --lambdas and --covariance must be given"
            )
        if self.output_format not in ("json", "csv"):
            raise CliInputError(f"unknown output format {self.output_format!r}")
        if self.rate_unit not in ("nats", "bits"):
            raise CliInputError(f"unknown rate unit {self.rate_unit!r}")
        if self.samples < 1000:
            raise CliInputError(f"--samples must be >= 1000, got {self.samples}")
        unconstrained = self.metric is PerceptionMetric.UNCONSTRAINED
        if unconstrained:
            if isinstance(self.perception, GridSpec) or self.perception != math.inf:
                raise CliInputError(
                    "--perception must be inf (or omitted) with --metric none"
                )
        elif not isinstance(self.perception, GridSpec) and math.isinf(self.perception):
            raise CliInputError(
                f"--perception: a finite budget is required for --metric {self.metric.value}"
            )


def load_covariance_file(path: str) -> SourceSpectrum:
    """Parse the plain-text covariance format and decompose it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = f.readlines()
    except OSError as exc:
        raise CliInputError(f"cannot read covariance file {path}: {exc}") from None
    lines = [(i + 1, line.split()) for i, line in enumerate(raw) if line.strip()]
    if not lines:
        raise CliInputError(f"covariance file {path} is empty")
    lineno, head = lines[0]
    if len(head) != 1:
        raise CliInputError(
            f"{path}, line {lineno}: expected the dimension alone, got {len(head)} fields"
        )
    try:
        dim = int(head[0])
    except ValueError:
        raise CliInputError(
            f"{path}, line {lineno}: dimension is not an integer: {head[0]!r}"
        ) from None
    if dim < 1:
        raise CliInputError(f"{path}, line {lineno}: dimension must be >= 1, got {dim}")
    if len(lines) - 1 != dim:
        raise CliInputError(
            f"{path}: expected {dim} matrix rows after the header, got {len(lines) - 1}"
        )
    rows = []
    for lineno, fields in lines[1:]:
        if len(fields) != dim:
            raise CliInputError(
                f"{path}, line {lineno}: expected {dim} entries, got {len(fields)}"
            )
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise CliInputError(f"{path}, line {lineno}: {exc}") from None
    m = np.array(rows)
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise CliInputError(
            f"{path}, line {lines[1 + i][0]}: matrix entries must be finite, got {float(m[i, j])}"
        )
    try:
        return from_covariance(m)
    except RdpError as exc:
        # same class, so the exit code stays; the message gains the file
        raise type(exc)(f"{path}: {exc}") from None


def _source(cfg: RunConfig) -> SourceSpectrum:
    if cfg.lambdas is not None:
        return SourceSpectrum(lambdas=np.array(cfg.lambdas))
    return load_covariance_file(cfg.covariance_path)


def _scalar(value: float | GridSpec, field: str) -> float:
    if isinstance(value, GridSpec):
        raise CliInputError(f"{field} must be a scalar for this command")
    return value


def _unit_factor(unit: str) -> float:
    return 1.0 / _LN2 if unit == "bits" else 1.0


def solution_record(
    D: float, P: float, metric: PerceptionMetric, sol: RdpSolution, unit: str = "nats"
) -> dict:
    """JSON-ready dictionary of one solved query."""
    f = _unit_factor(unit)
    return {
        "distortion_budget": D,
        "perception_budget": P,
        "metric": metric.value,
        f"rate_{unit}": sol.total_rate * f,
        "case_tag": sol.case_tag.value,
        "gammas": sol.gammas.tolist(),
        "lambda_hats": sol.lambda_hats.tolist(),
        "component_rates": [r * f for r in sol.rates.tolist()],
        "nu1": sol.dual.nu1,
        "nu2": sol.dual.nu2,
        "kkt_residual": sol.kkt_residual,
        "achieved_distortion": sol.achieved_distortion,
        "achieved_perception": sol.achieved_perception,
    }


def run_point(cfg: RunConfig) -> tuple[SourceSpectrum, RdpSolution, TradeoffQuery]:
    s = _source(cfg)
    D = _scalar(cfg.distortion, "--distortion")
    P = _scalar(cfg.perception, "--perception")
    q = TradeoffQuery(D, P, cfg.metric)
    sol = solve(s, q)
    return s, sol, q


def _grid_values(value: float | GridSpec) -> tuple[float, ...]:
    if isinstance(value, GridSpec):
        return value.values()
    return (value,)


def run_curve(cfg: RunConfig) -> CurveSweep:
    """Evaluate the full budget grid; failures become tagged rows.

    Rows are in distortion-major order: the distortion grid is the outer
    loop. Points are solved one after another in that order; ``--jobs``
    has no effect here.
    """
    if not (isinstance(cfg.distortion, GridSpec) or isinstance(cfg.perception, GridSpec)):
        raise CliInputError("curve needs a grid for at least one budget")
    s = _source(cfg)
    d_values = _grid_values(cfg.distortion)
    p_values = _grid_values(cfg.perception)
    pairs = [(d, p) for d in d_values for p in p_values]

    def eval_one(d, p):
        try:
            q = TradeoffQuery(d, p, cfg.metric)
        except DomainError:
            return None, "infeasible"
        try:
            return solve(s, q), None
        except ConvergenceError:
            return None, "convergence_failure"

    results = [eval_one(d, p) for d, p in pairs]

    metadata = {
        "metric": cfg.metric.value,
        "rate_unit": cfg.rate_unit,
        "source": " ".join(_fmt(v) for v in s.lambdas),
        "version": __version__,
    }
    return CurveSweep(
        distortions=tuple(d for d, _ in pairs),
        perceptions=tuple(p for _, p in pairs),
        metric=cfg.metric,
        solutions=tuple(sol for sol, _ in results),
        failures=tuple(tag for _, tag in results),
        metadata=metadata,
    )


def _csv_header(dim: int, unit: str) -> list[str]:
    cols = ["D", "P", "metric", f"rate_{unit}", "case_tag"]
    cols += [f"gamma_{i + 1}" for i in range(dim)]
    cols += [f"lambda_hat_{i + 1}" for i in range(dim)]
    cols += [f"rate_{i + 1}" for i in range(dim)]
    cols += ["nu1", "nu2", "kkt_residual", "achieved_distortion", "achieved_perception"]
    return cols


def curve_to_csv(sweep: CurveSweep, unit: str = "nats") -> str:
    """Serialize a sweep; numeric fields carry 17 significant digits."""
    dim = len(sweep.metadata.get("source", "").split())
    for sol in sweep.solutions:
        if sol is not None:
            dim = sol.gammas.size
            break
    f = _unit_factor(unit)
    lines = [f"# {k}: {v}" for k, v in sorted(sweep.metadata.items())]
    lines.append(",".join(_csv_header(dim, unit)))
    for d, p, sol, tag in zip(
        sweep.distortions, sweep.perceptions, sweep.solutions, sweep.failures
    ):
        row = [_fmt(d), _fmt(p), sweep.metric.value]
        if sol is None:
            row += [""] + [tag or "infeasible"] + [""] * (3 * dim + 5)
        else:
            row.append(_fmt(sol.total_rate * f))
            row.append(sol.case_tag.value)
            row += [_fmt(g) for g in sol.gammas.tolist()]
            row += [_fmt(h) for h in sol.lambda_hats.tolist()]
            row += [_fmt(r * f) for r in sol.rates.tolist()]
            row += [
                _fmt(sol.dual.nu1),
                _fmt(sol.dual.nu2),
                _fmt(sol.kkt_residual),
                _fmt(sol.achieved_distortion),
                _fmt(sol.achieved_perception),
            ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def curve_from_csv(text: str) -> CurveSweep:
    """Rebuild a sweep from its CSV form.

    Exact for files written in nats; a bits file is converted back with
    one multiplication, which can shift the last bit of a rate.
    """
    metadata: dict = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" not in body:
                raise CliInputError(f"line {lineno}: metadata comment without a colon")
            key, value = body.split(":", 1)
            metadata[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    if header is None:
        raise CliInputError("no header row found")
    rate_col = header[3]
    if not rate_col.startswith("rate_"):
        raise CliInputError(f"unexpected rate column {rate_col!r}")
    unit = rate_col[len("rate_"):]
    if unit not in ("nats", "bits"):
        raise CliInputError(f"unexpected rate unit {unit!r} in header")
    back = _LN2 if unit == "bits" else 1.0
    dim = (len(header) - 10) // 3
    if len(header) != 10 + 3 * dim:
        raise CliInputError(f"header has {len(header)} columns, not 10 + 3L")

    metric = PerceptionMetric.from_name(metadata.get("metric", "none"))
    distortions: list[float] = []
    perceptions: list[float] = []
    solutions: list[RdpSolution | None] = []
    failures: list[str | None] = []
    for offset, row in enumerate(rows):
        lineno = offset + 1
        if len(row) != len(header):
            raise CliInputError(
                f"data row {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            d = float(row[0])
            p = float(row[1])
        except ValueError as exc:
            raise CliInputError(f"data row {lineno}: {exc}") from None
        distortions.append(d)
        perceptions.append(p)
        row_metric = PerceptionMetric.from_name(row[2])
        tag = row[4]
        if tag in ("infeasible", "convergence_failure"):
            solutions.append(None)
            failures.append(tag)
            continue
        try:
            case = SolutionCase(tag)
            rate = float(row[3]) * back
            gammas = [float(v) for v in row[5 : 5 + dim]]
            hats = [float(v) for v in row[5 + dim : 5 + 2 * dim]]
            rates = [float(v) * back for v in row[5 + 2 * dim : 5 + 3 * dim]]
            nu1, nu2, kkt, ad, ap = (float(v) for v in row[5 + 3 * dim :])
        except ValueError as exc:
            raise CliInputError(f"data row {lineno}: {exc}") from None
        solutions.append(
            RdpSolution(
                total_rate=rate,
                gammas=gammas,
                lambda_hats=hats,
                rates=rates,
                dual=DualPoint(nu1=nu1, nu2=nu2),
                case_tag=case,
                kkt_residual=kkt,
                achieved_distortion=ad,
                achieved_perception=ap,
            )
        )
        # a solved row must carry budgets that form a valid query
        TradeoffQuery(d, p, row_metric)
        failures.append(None)
    return CurveSweep(
        distortions=tuple(distortions),
        perceptions=tuple(perceptions),
        metric=metric,
        solutions=tuple(solutions),
        failures=tuple(failures),
        metadata=metadata,
    )


def curve_to_json(sweep: CurveSweep, unit: str = "nats") -> str:
    rows = []
    for d, p, sol, tag in zip(
        sweep.distortions, sweep.perceptions, sweep.solutions, sweep.failures
    ):
        if sol is None:
            rows.append(
                {
                    "distortion_budget": d,
                    "perception_budget": p,
                    "metric": sweep.metric.value,
                    "case_tag": tag or "infeasible",
                }
            )
        else:
            rows.append(solution_record(d, p, sweep.metric, sol, unit))
    payload = {"metadata": dict(sorted(sweep.metadata.items())), "rows": rows}
    return _dump_json(payload)


def run_verify(cfg: RunConfig) -> dict:
    """Cross-check one query three ways and report every outcome.

    The barrier minimizer is an independent reimplementation, so rate
    agreement within max(1e-4, 1e-3 * rate) nats is strong evidence both
    are right.  Sampling checks the achievability construction per
    component, at 4 standard errors for up to 48 components and at the
    Sidak threshold that keeps the run's false-alarm rate at its
    48-component value beyond (4.81 standard errors at 2,000).
    """
    s, sol, q = run_point(cfg)
    if sol.total_rate == 0.0:
        # rates are nonnegative, so a zero-rate solution is optimal by
        # inspection and the barrier run would add nothing
        oracle_rate = 0.0
        oracle_steps = 0
        oracle_method = "trivial_zero_rate"
    else:
        res = minimize_primal(s, q)
        oracle_rate = res.rate
        oracle_steps = res.newton_steps
        oracle_method = "barrier"
    diff = abs(sol.total_rate - oracle_rate)
    rate_tol = max(1e-4, 1e-3 * sol.total_rate)
    reports = verify_solution(s, sol, cfg.samples, cfg.seed, metric=cfg.metric)
    mc = [
        {
            "component": i + 1,
            "empirical_distortion": r.empirical_distortion,
            "analytic_distortion": r.analytic_distortion,
            "standard_error": r.standard_error,
            "pass": r.within_threshold,
        }
        for i, r in enumerate(reports)
    ]
    checks = {
        "rate_agreement_pass": diff <= rate_tol,
        "kkt_pass": sol.kkt_residual <= _KKT_PASS_THRESHOLD,
        "montecarlo_pass": all(entry["pass"] for entry in mc),
    }
    return {
        "solver_rate_nats": sol.total_rate,
        "oracle_rate_nats": oracle_rate,
        "oracle_method": oracle_method,
        "oracle_newton_steps": oracle_steps,
        "rate_abs_diff": diff,
        "rate_tolerance": rate_tol,
        "kkt_residual": sol.kkt_residual,
        "case_tag": sol.case_tag.value,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "montecarlo": mc,
        **checks,
        "all_pass": all(checks.values()),
    }


def _parse_lambdas(text: str) -> tuple[float, ...]:
    entries = [v for v in text.replace(",", " ").split() if v]
    if not entries:
        raise CliInputError("--lambdas: empty eigenvalue list")
    values = []
    for i, entry in enumerate(entries, start=1):
        try:
            values.append(float(entry))
        except ValueError:
            raise CliInputError(
                f"--lambdas: entry {i} is not a number: {entry!r}"
            ) from None
    return tuple(values)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to input-error handling
    def error(self, message):
        raise CliInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaussian-rdp",
        description=(
            "Rate-distortion-perception functions of Gaussian vector sources"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("point", "evaluate one (distortion, perception) query"),
        ("curve", "evaluate a budget grid and emit a table"),
        ("verify", "cross-check one query against the oracle and sampling"),
    ):
        p = sub.add_parser(name, help=helptext)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--lambdas", help="comma-separated source eigenvalues")
        src.add_argument("--covariance", help="path to a covariance matrix file")
        p.add_argument(
            "--metric",
            default="none",
            choices=["kl", "w2", "none"],
            help="perception divergence (none = unconstrained)",
        )
        p.add_argument("--distortion", required=True, help="budget or MIN:MAX:COUNT[:spacing]")
        p.add_argument("--perception", default="inf", help="budget or MIN:MAX:COUNT[:spacing]")
        p.add_argument("--output", help="write here instead of standard output")
        p.add_argument("--format", default=None, choices=["json", "csv"])
        p.add_argument("--unit", default="nats", choices=["nats", "bits"])
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=50000)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call of this process uses, built on
    the first call.  Building it takes about ten times as long as parsing
    one command line, a cost in-process callers would otherwise pay on
    every call; parsing leaves the parser as it was."""
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.jobs < 1:
        raise CliInputError(f"--jobs must be >= 1, got {args.jobs}")
    if args.command == "verify" and (args.format == "csv" or args.unit == "bits"):
        flag = "--format csv" if args.format == "csv" else "--unit bits"
        raise CliInputError(f"verify writes a JSON report in nats; {flag} is not supported")
    fmt = args.format
    if fmt is None:
        fmt = "csv" if args.command == "curve" else "json"
    return RunConfig(
        lambdas=_parse_lambdas(args.lambdas) if args.lambdas else None,
        covariance_path=args.covariance,
        metric=PerceptionMetric.from_name(args.metric),
        distortion=parse_budget(args.distortion, "--distortion"),
        perception=parse_budget(args.perception, "--perception"),
        output_format=fmt,
        rate_unit=args.unit,
        seed=args.seed,
        samples=args.samples,
        output_path=args.output,
    )


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        cfg = _config_from_args(args)
        if args.command == "point":
            _, sol, q = run_point(cfg)
            record = solution_record(
                q.distortion_budget,
                q.perception_budget,
                cfg.metric,
                sol,
                cfg.rate_unit,
            )
            if cfg.output_format == "csv":
                sweep = CurveSweep(
                    distortions=(q.distortion_budget,),
                    perceptions=(q.perception_budget,),
                    metric=cfg.metric,
                    solutions=(sol,),
                    failures=(None,),
                    metadata={"metric": cfg.metric.value, "rate_unit": cfg.rate_unit},
                )
                _emit(curve_to_csv(sweep, cfg.rate_unit), cfg.output_path)
            else:
                _emit(_dump_json(record), cfg.output_path)
            return 0
        if args.command == "curve":
            sweep = run_curve(cfg)
            if cfg.output_format == "json":
                _emit(curve_to_json(sweep, cfg.rate_unit), cfg.output_path)
            else:
                _emit(curve_to_csv(sweep, cfg.rate_unit), cfg.output_path)
            return 0
        report = run_verify(cfg)
        _emit(_dump_json(report), cfg.output_path)
        return 0 if report["all_pass"] else 1
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except RdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
