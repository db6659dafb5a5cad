"""Layered benchmark of gaussian_rdp: solve-mix and verify-cov.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 60 --trace 0

Run it from the repository root; the library is imported from ``src/``.
One process and one client run the chosen workload in a closed loop: each
operation starts when the previous one has returned, with no threads and no
pool.  After a first pass
over the seed's operations, those that did not raise are run again until
``--seconds`` have passed.  Each operation's wall time is scaled to a
reference speed of the machine by a probe timed right before and after it
(``calibrate.py``), and the operation is timed by the median of its
passes' scaled times.

With ``--trace 0`` the end-to-end metrics are measured untraced.  With
``--trace 1`` the run makes two untraced passes and then one traced pass
over the same inputs, and reports the per-layer metrics; spans are written to
``.perfbench_out/<workload>.trace.npz``.  Every answer is checked; failed
operations are counted by kind.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

from calibrate import SCALAR

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("solve-mix", "verify-cov")

END_TO_END = {"setup_s": "s", "p50_ms": "ms", "p90_ms": "ms", "ops_per_s": "1/s"}

LAYERS = (
    "bench", "solver", "kernels", "rootfind", "classic_rd", "model",
    "symeig", "kkt", "oracle", "montecarlo", "cli",
)
FAIL_KINDS = (
    "ConvergenceError", "LineSearchError", "other_error", "cap", "budget_miss",
    "reference_mismatch", "output_error", "kkt", "oracle", "montecarlo", "exit_code",
)
# failure kinds that mean an answer is wrong, not missing
WRONG_ANSWER_KINDS = ("reference_mismatch", "output_error")
PER_LAYER = {
    "solver.dual_evals_per_solve": "count",
    "solver.newton_accept_ratio": "ratio",
    "solver.dual_eval_us": "us",
    **{f"solver.p50_ms.{k}": "ms" for k in ("kl", "w2", "p0", "none")},
    **{f"solver.p50_ms.L{lo}-{hi}": "ms" for lo, hi in ((1, 8), (9, 64), (65, 256))},
    "kernels.calls": "count",
    "kernels.us_per_component": "us",
    "rootfind.calls": "count",
    "rootfind.ms": "ms",
    "rootfind.evals_per_call": "count",
    "classic_rd.ms": "ms",
    "model.zero_rate_ms": "ms",
    "kkt.ms": "ms",
    "model.from_covariance_ms": "ms",
    "symeig.decompose_ms": "ms",
    "oracle.ms": "ms",
    "montecarlo.ms": "ms",
    "montecarlo.samples_per_s": "1/s",
    "cli.format_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "fail_frac": "frac",
    **{f"fail.{kind}": "count" for kind in FAIL_KINDS},
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
    "wall.p50_ms": "ms",
    "wall.p90_ms": "ms",
}

IMPORT_REPEATS = 3
GENERATE_REPEATS = 3
# no operation may run past this many seconds after start, so that a run
# which hangs still exits inside its time limit
HARD_LIMIT_S = 150.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gaussian_rdp; "
    "print(time.perf_counter() - t)"
)
KERNEL_NAMES = (
    "stationary_pair_kl", "stationary_pair_w2", "distortion_component",
    "perception_component_kl", "perception_component_w2", "perfect_perception_gamma",
)


class Capped(BaseException):
    """An operation ran past its time cap.

    Derived from BaseException so that no handler in the library can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise Capped()


def error_kind(exc: Exception) -> str:
    name = type(exc).__name__
    return name if name in FAIL_KINDS else "other_error"


class Tally:
    """Timings and failures of the operations of one run.

    ``best`` holds each operation's fastest wall time.  ``scaled`` holds
    its times scaled to the reference speed of the machine
    (``calibrate``), one per pass; the operation's time is their median,
    which does not drift with the number of passes a run makes, as the
    fastest pass would.  Failures are counted on the first pass.
    """

    def __init__(self, ops) -> None:
        self.ops = ops
        self.best: dict[int, float] = {}
        self.scaled: dict[int, list[float]] = {}
        self.raised: set[int] = set()  # raised or hit the cap on some pass
        self.op_seconds = 0.0  # all passes
        self.attempted = 0
        self.failed = 0
        self.kinds: Counter = Counter()
        self.errors: Counter = Counter()
        self.wrong = 0

    def add(self, index: int, seconds: float, kinds: list[str], first: bool,
            speed: float = 1.0) -> None:
        self.best[index] = min(seconds, self.best.get(index, seconds))
        self.scaled.setdefault(index, []).append(seconds * speed)
        self.op_seconds += seconds
        self.wrong += sum(k in WRONG_ANSWER_KINDS for k in kinds)
        if first:
            self.attempted += 1
            self.failed += bool(kinds)
            self.kinds.update(kinds)

    def scaled_s(self) -> dict[int, float]:
        """Median scaled time of every operation, in seconds."""
        return {i: statistics.median(v) for i, v in self.scaled.items()}

    def samples_ms(self) -> list[float]:
        """Median scaled time of every operation."""
        return [1e3 * t for t in self.scaled_s().values()]

    def wall_samples_ms(self) -> list[float]:
        """Best wall time of every operation."""
        return [1e3 * t for t in self.best.values()]

    def ops_per_s(self) -> float:
        """Operations per scaled second over those that returned.

        Operations that raised or hit their cap are left out: some wait out
        the cap, a fixed time that would hide the speed of the others.
        """
        done = [t for i, t in self.scaled_s().items() if i not in self.raised]
        return len(done) / sum(done) if done else 0.0


def run_pass(tally: Tally, indices, hard_end: float, first: bool, tracer=None,
             stop_at: float = math.inf) -> bool:
    """Run the given operations once; False if the hard limit cut the pass
    short.  No operation starts after ``stop_at``."""
    root = None if tracer is None else tracer.wrap(lambda op: op(), "bench.op")
    signal.signal(signal.SIGALRM, _on_alarm)
    last = None  # (probe, seconds) of the latest probe slot
    for index in indices:
        op = tally.ops[index]
        probe = op.probe
        before = last[1] if last is not None and last[0] is probe else probe.seconds()
        now = time.perf_counter()
        remaining = hard_end - now
        if remaining <= 0.0 or now >= stop_at:
            return False
        if tracer is not None:
            tracer.request += 1
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, min(op.cap_s, remaining))
            try:
                result = op() if root is None else root(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            kinds = None
        except Capped:
            kinds = ["cap"]
            tally.raised.add(index)
        except Exception as exc:  # a failed query is a result; keep measuring
            kinds = [error_kind(exc)]
            tally.raised.add(index)
            if first:
                tally.errors[type(exc).__name__] += 1
                if kinds == ["other_error"]:
                    traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        after = probe.seconds()
        last = (probe, after)
        if tracer is not None:
            tracer.unwind()
        if kinds is None:
            kinds = op.check(result)
        tally.add(index, seconds, kinds, first, probe.speed(before, after))
    return True


def measure(ops, seconds: float, hard_end: float, after_pass=None) -> Tally:
    """A first pass over every operation, then repeats until ``seconds``.

    Operations that raised or hit the cap are not repeated: some of them
    wait out the cap, and their time is not what the benchmark resolves.
    The last repeat stops where ``seconds`` run out, so some operations
    get one pass more than others.  ``after_pass()``, if given, is called
    after every pass.
    """
    tally = Tally(ops)
    stop_at = time.perf_counter() + seconds
    if not run_pass(tally, range(len(ops)), hard_end, first=True):
        return tally
    if after_pass is not None:
        after_pass()
    again = [i for i in range(len(ops)) if i not in tally.raised]
    while again and time.perf_counter() < stop_at:
        run_pass(tally, again, hard_end, first=False, stop_at=stop_at)
        if after_pass is not None:
            after_pass()
    return tally


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def scaled_seconds(fn):
    """Call ``fn() -> (result, wall seconds)``; return the result and the
    seconds scaled to the reference speed by scalar probes before and after."""
    before = SCALAR.seconds()
    result, seconds = fn()
    return result, seconds * SCALAR.speed(before, SCALAR.seconds())


def import_seconds() -> float:
    """Scaled time to import gaussian_rdp in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def run_import():
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        return None, float(done.stdout.strip())

    return scaled_seconds(run_import)[1]


def make_ops(workload: str, seed: int, refs: dict):
    import gaussian_rdp as api
    from gaussian_rdp import cli

    import workloads as wl

    if workload == "solve-mix":
        return wl.solve_mix(api, seed, refs["solve"])
    return wl.verify_cov(cli, seed, OUT)


def setup(workload: str, seed: int, refs: dict, timed: bool):
    """Build the operations; with ``timed``, also return the fastest of
    GENERATE_REPEATS generations, in scaled seconds."""
    if not timed:
        return make_ops(workload, seed, refs), None

    def generate():
        t0 = time.perf_counter()
        ops = make_ops(workload, seed, refs)
        return ops, time.perf_counter() - t0

    tries = [scaled_seconds(generate) for _ in range(GENERATE_REPEATS)]
    return tries[-1][0], min(t for _, t in tries)


def layer_boundaries(tracer) -> list[tuple]:
    """Every layer boundary as (module, attribute, span name, map_args, count).

    A boundary is a name in the namespace of the module that calls it.
    """
    import gaussian_rdp as pkg
    from gaussian_rdp import classic_rd, cli, kernels, kkt, model, montecarlo, solver

    counts = tracer.counts

    def count_evals(args, kwargs):
        f = args[0]

        def counted(x):
            counts["rootfind.evals"] += 1
            return f(x)

        return (counted,) + args[1:], kwargs

    def newton_outcome(counts, args, kwargs, result):
        counts["solver.newton_accepted"] += result is not None

    def samples(counts, args, kwargs, result):
        counts["montecarlo.samples"] += args[0].dim * args[2]

    boundaries = [
        (pkg, "solve", "solver.solve", None, None),
        (cli, "main", "cli.main", None, None),
        (cli, "solve", "solver.solve", None, None),
        (cli, "from_covariance", "model.from_covariance", None, None),
        (cli, "minimize_primal", "oracle.minimize_primal", None, None),
        (cli, "minimize_primal_p0", "oracle.minimize_primal_p0", None, None),
        (cli, "verify_solution", "montecarlo.verify_solution", None, samples),
        (cli, "_dump_json", "cli.format", None, None),
        (solver, "reverse_waterfill", "classic_rd.reverse_waterfill", None, None),
        (solver, "zero_rate_reconstruction", "model.zero_rate_reconstruction", None, None),
        (solver, "kkt_residuals", "kkt.residuals", None, None),
        (solver, "_evaluate_dual", "solver.evaluate_dual", None, None),
        (solver, "_try_newton", "solver.try_newton", None, newton_outcome),
        (classic_rd, "kkt_residuals", "kkt.residuals", None, None),
        (model, "decompose", "symeig.decompose", None, None),
        (model, "strip_null_components", "symeig.strip_null_components", None, None),
    ]
    for module in (solver, kernels, model):
        boundaries.append((module, "bisect_root", "rootfind.bisect_root", count_evals, None))
    for module in (solver, kkt, montecarlo):
        for name in KERNEL_NAMES:
            boundaries.append((module, name, f"kernels.{name}", None, None))
    return [b for b in boundaries if hasattr(b[0], b[1])]


def install_layers(tracer, boundaries=None) -> None:
    """Wrap the given layer boundaries, all of them by default."""
    if boundaries is None:
        boundaries = layer_boundaries(tracer)
    for module, attr, name, map_args, count in boundaries:
        tracer.install(module, attr, name, map_args, count)


def accounted_frac(self_s: dict[str, float], wall_s: float) -> float:
    """Share of the traced wall time spent inside a library layer.

    The benchmark's own root span is left out, so time that no library
    boundary covers counts against the share.
    """
    library = sum(t for layer, t in self_s.items() if layer != "bench")
    return library / wall_s if wall_s else 0.0


def layer_metrics(tracer, untraced: Tally, traced: Tally) -> dict[str, float]:
    from tracer import layer_self_times, summarize

    import workloads as wl

    summary = summarize(tracer.arrays())
    self_s = layer_self_times(summary)
    counts = tracer.counts

    def calls(prefix: str) -> int:
        return sum(r["calls"] for n, r in summary.items() if n.startswith(prefix))

    def total_ms(prefix: str) -> float:
        return 1e3 * sum(r["total"] for n, r in summary.items() if n.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kernel_calls = calls("kernels.")
    rootfind_calls = calls("rootfind.")
    montecarlo_ms = total_ms("montecarlo.")
    m = {
        "solver.dual_evals_per_solve": ratio(calls("solver.evaluate_dual"), calls("solver.solve")),
        "solver.newton_accept_ratio": ratio(counts["solver.newton_accepted"], calls("solver.try_newton")),
        "solver.dual_eval_us": 1e3 * ratio(total_ms("solver.evaluate_dual"), calls("solver.evaluate_dual")),
        "kernels.calls": kernel_calls,
        "kernels.us_per_component": 1e6 * ratio(self_s.get("kernels", 0.0), kernel_calls),
        "rootfind.calls": rootfind_calls,
        "rootfind.ms": total_ms("rootfind."),
        "rootfind.evals_per_call": ratio(counts["rootfind.evals"], rootfind_calls),
        "classic_rd.ms": total_ms("classic_rd."),
        "model.zero_rate_ms": total_ms("model.zero_rate_reconstruction"),
        "kkt.ms": total_ms("kkt."),
        "model.from_covariance_ms": total_ms("model.from_covariance"),
        "symeig.decompose_ms": total_ms("symeig.decompose"),
        "oracle.ms": total_ms("oracle."),
        "montecarlo.ms": montecarlo_ms,
        "montecarlo.samples_per_s": 1e3 * ratio(counts["montecarlo.samples"], montecarlo_ms),
        "cli.format_ms": total_ms("cli.format"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * self_s.get(layer, 0.0)
    by_class: dict[str, list[float]] = {}
    for index, seconds in untraced.scaled_s().items():
        op = untraced.ops[index]
        if isinstance(op, wl.SolveOp):
            by_class.setdefault(op.kind, []).append(1e3 * seconds)
            by_class.setdefault(op.band, []).append(1e3 * seconds)
    for name in PER_LAYER:
        if name.startswith("solver.p50_ms."):
            key = name[len("solver.p50_ms."):]
            m[name] = statistics.median(by_class[key]) if key in by_class else 0.0
    m["fail_frac"] = ratio(untraced.failed, untraced.attempted)
    for kind in FAIL_KINDS:
        m[f"fail.{kind}"] = untraced.kinds[kind]
    traced_s, untraced_s = traced.scaled_s(), untraced.scaled_s()
    both = [i for i in traced_s if i not in traced.raised | untraced.raised]
    m["trace.overhead_frac"] = ratio(
        sum(traced_s[i] for i in both), sum(untraced_s[i] for i in both)
    ) - 1.0
    wall = untraced.wall_samples_ms()
    m["wall.p50_ms"] = statistics.median(wall)
    m["wall.p90_ms"] = p90(wall)
    m["trace.accounted_frac"] = accounted_frac(self_s, traced.op_seconds)
    return m


def report(metrics: dict[str, float], units: dict[str, str], counts: dict[str, int]) -> None:
    for name, unit in units.items():
        n = counts.get(name)
        tail = f"  n={n}" if n is not None else ""
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}{tail}")


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "gaussian_rdp", "__init__.py")):
        print(f"error: no gaussian_rdp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as wl

    os.makedirs(OUT, exist_ok=True)
    refs = {"solve": wl.load_reference("solve_pool.json")}
    hard_end = started + HARD_LIMIT_S
    ops, generate_s = setup(args.workload, args.seed, refs, timed=args.trace == 0)

    if args.trace == 0:
        # import tries before the measured passes, after each pass and
        # after the last, so that they sample the machine at many moments
        # of the run and the fastest finds one of its quiet moments
        imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
        tally = measure(
            ops, args.seconds, hard_end, after_pass=lambda: imports.append(import_seconds())
        )
        imports += [import_seconds() for _ in range(IMPORT_REPEATS)]
        samples = tally.samples_ms()
        metrics = {
            "setup_s": min(imports) + generate_s,
            "p50_ms": statistics.median(samples),
            "p90_ms": p90(samples),
            "ops_per_s": tally.ops_per_s(),
        }
        units = END_TO_END
        counts = {
            "setup_s": len(imports),
            "p50_ms": len(samples),
            "p90_ms": len(samples),
            "ops_per_s": len(tally.best) - len(tally.raised),
        }
        wrong = tally.wrong
    else:
        from tracer import Tracer

        every = range(len(ops))
        tally = Tally(ops)
        run_pass(tally, every, hard_end, first=True)
        run_pass(tally, every, hard_end, first=False)
        traced = Tally(ops)
        tracer = Tracer()
        try:
            install_layers(tracer)
            run_pass(traced, every, hard_end, first=False, tracer=tracer)
        finally:
            tracer.restore()
        tracer.write(os.path.join(OUT, f"{args.workload}.trace.npz"))
        metrics = layer_metrics(tracer, tally, traced)
        units = PER_LAYER
        counts = {}
        wrong = tally.wrong + traced.wrong

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} operations in {tally.op_seconds:.3f} s, {tally.failed} failed")
    for kind, n in sorted(tally.kinds.items()):
        print(f"  fail.{kind}: {n}")
    for name, n in sorted(tally.errors.items()):
        print(f"  raised {name}: {n}")
    report(metrics, units, counts)
    wall = tally.wall_samples_ms()
    print(f"  wall time, not scaled: p50 {statistics.median(wall):.6g} ms, p90 {p90(wall):.6g} ms")
    print(f"  fail_frac {tally.failed / tally.attempted:.6g} frac  n={tally.attempted}")
    result = {
        "correct": wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
