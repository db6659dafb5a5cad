"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import calibrate
import run
import workloads as wl
from tracer import Tracer, layer_self_times, self_times, summarize

sys.path.insert(0, run.SRC)

import gaussian_rdp as api  # noqa: E402
from gaussian_rdp import classic_rd, cli, kernels, kkt, model, montecarlo, solver  # noqa: E402

REFS = {"solve": wl.load_reference("solve_pool.json")}


def test_same_seed_gives_identical_solve_corpus():
    def corpus(seed):
        return [
            (op.spectrum.lambdas.tobytes(), op.query, op.reference)
            for op in wl.solve_mix(api, seed, REFS["solve"])
        ]

    assert corpus(7) == corpus(7)
    assert corpus(7) != corpus(8)


def test_same_seed_gives_identical_covariance_files(tmp_path):
    def files(seed, name):
        outdir = tmp_path / name
        outdir.mkdir()
        ops = wl.verify_cov(cli, seed, str(outdir))
        return [op.argv[2:-2] for op in ops], {
            p.name: p.read_bytes() for p in sorted(outdir.iterdir())
        }

    argv_a, bytes_a = files(3, "a")
    argv_b, bytes_b = files(3, "b")
    assert [a[1:] for a in argv_a] == [b[1:] for b in argv_b]
    assert bytes_a == bytes_b
    assert len(bytes_a) == len(wl.VERIFY_FAMILIES) * len(wl.VERIFY_DIMS) * wl.VERIFY_COPIES
    assert files(4, "c")[1] != bytes_a


def test_sized_design_covers_its_ranges():
    dims = []
    for j in range(wl.SIZED_STRATA):
        lam, D, P, kind = wl.sized_query(j, 0)
        tr = float(lam.sum())
        dims.append(lam.size)
        assert 0.02 <= D / tr <= 1.5
        assert lam.max() <= 1.0 and lam.min() >= 1e-3
        if kind == "kl":
            assert 1e-3 <= P <= 1.0
        elif kind == "w2":
            assert 1e-3 <= P / tr <= 0.5
    assert min(dims) == 1 and max(dims) >= 240


def _small_solve_ops():
    return [
        op for op in wl.solve_mix(api, 0, REFS["solve"])
        if op.spectrum.dim <= 12
    ][:12]


def _traced_pass(ops, leave_out=None):
    """Trace one pass over ``ops``, without the boundaries of layer ``leave_out``."""
    tracer = Tracer()
    tally = run.Tally(ops)
    boundaries = [
        b for b in run.layer_boundaries(tracer) if b[2].split(".", 1)[0] != leave_out
    ]
    try:
        run.install_layers(tracer, boundaries)
        run.run_pass(tally, range(len(ops)), float("inf"), first=True, tracer=tracer)
    finally:
        tracer.restore()
    return tracer, tally


def _small_traced_pass(tmp_path):
    return _traced_pass(_small_solve_ops() + wl.verify_cov(cli, 0, str(tmp_path))[:1])


def test_self_times_add_up_to_root_spans(tmp_path):
    tracer, tally = _small_traced_pass(tmp_path)
    arrays = tracer.arrays()
    roots = arrays["parent"] < 0
    root_total = float(np.sum(arrays["end"][roots] - arrays["start"][roots]))
    own = self_times(arrays["parent"], arrays["start"], arrays["end"])
    assert np.all(own >= -1e-9)
    assert float(np.sum(own)) == pytest.approx(root_total, rel=1e-9, abs=1e-9)
    layers = layer_self_times(summarize(arrays))
    assert sum(layers.values()) == pytest.approx(root_total, rel=1e-9, abs=1e-9)
    assert root_total <= tally.op_seconds
    for layer in ("solver", "kernels", "rootfind", "symeig", "oracle", "montecarlo", "cli"):
        assert layers.get(layer, 0.0) > 0.0, layer
    # one request id per operation, shared by all of its spans
    request, parent = arrays["request"], arrays["parent"]
    assert len(set(request[roots].tolist())) == int(roots.sum())
    assert np.all(request[~roots] == request[parent[~roots]])


def test_accounted_fraction_drops_without_a_boundary():
    def fraction(leave_out):
        tracer, tally = _traced_pass(_small_solve_ops(), leave_out)
        return run.accounted_frac(layer_self_times(summarize(tracer.arrays())), tally.op_seconds)

    full = fraction(None)
    # with the solver's boundaries left unwrapped, the solver's own time is
    # covered by no library span
    without_solver = fraction("solver")
    assert 0.9 < full <= 1.0
    assert without_solver < full - 0.05


def test_throughput_leaves_out_raised_and_capped_operations():
    tally = run.Tally([None] * 3)
    tally.add(0, 0.5, [], first=True)
    tally.add(1, 0.25, ["budget_miss"], first=True)
    tally.add(2, 3.0, ["cap"], first=True)
    tally.raised.add(2)
    assert tally.ops_per_s() == pytest.approx(2 / 0.75)
    assert sorted(tally.samples_ms()) == pytest.approx([250.0, 500.0, 3000.0])


def test_scaled_times_follow_the_probe():
    probe = calibrate.SCALAR
    ref = probe.ref_s
    assert probe.speed(ref, ref) == pytest.approx(1.0)
    # the machine ran at half speed: the probe took twice its reference time
    half = probe.speed(2.0 * ref, 2.0 * ref)
    tally = run.Tally([None])
    tally.add(0, 0.5, [], first=True, speed=half)
    tally.add(0, 0.4, [], first=False, speed=1.0)
    tally.add(0, 0.3, [], first=False, speed=1.0)
    # fastest wall time, median scaled time
    assert tally.wall_samples_ms() == pytest.approx([300.0])
    assert tally.samples_ms() == pytest.approx([300.0])
    tally.add(0, 0.3, [], first=False, speed=half)
    assert tally.samples_ms() == pytest.approx([275.0])
    assert tally.ops_per_s() == pytest.approx(1 / 0.275)


def test_every_wrapped_name_is_restored(tmp_path):
    modules = (api, classic_rd, cli, kernels, kkt, model, montecarlo, solver)
    before = {m.__name__: dict(vars(m)) for m in modules}
    tracer, _ = _small_traced_pass(tmp_path)
    assert tracer.counts["rootfind.evals"] > 0
    for m in modules:
        after = vars(m)
        for name, obj in before[m.__name__].items():
            assert after[name] is obj, f"{m.__name__}.{name}"


def test_unwind_closes_spans_an_alarm_left_open():
    tracer = Tracer()
    outer = tracer.wrap(lambda: inner(), "solver.solve")
    inner = tracer.wrap(lambda: None, "kernels.k")
    outer()
    # an alarm landing in the bookkeeping of a third span: recorded in
    # part, pushed but never started, and never popped
    tracer.names.append("rootfind.bisect_root")
    tracer.parents.append(-1)
    tracer.unwind()
    assert len(tracer.names) == len(tracer.ends) == 2
    tracer.names.append("rootfind.bisect_root")
    for column in (tracer.parents, tracer.requests, tracer.starts, tracer.ends):
        column.append(-1 if column is tracer.parents else 0)
    tracer._stack.append(2)
    tracer.unwind()
    arrays = tracer.arrays()
    assert tracer._stack == [-1]
    assert np.all(arrays["end"] >= arrays["start"]) and np.all(arrays["start"] > 0)
    assert np.all(self_times(arrays["parent"], arrays["start"], arrays["end"]) >= 0)


def _solved_op():
    for j in range(wl.SIZED_STRATA):
        lam, D, P, kind = wl.sized_query(j, 0)
        if kind == "kl" and lam.size > 4:
            op = wl.SolveOp(api, lam, D, P, kind, REFS["solve"]["rates"][0][j])
            sol = op()
            if sol.total_rate > 0.0:
                return op, sol
    raise AssertionError("no positive-rate KL query in the pool")


def test_checker_accepts_the_recorded_answer():
    op, sol = _solved_op()
    assert op.check(sol) == []


def test_checker_flags_a_doctored_rate():
    op, sol = _solved_op()
    doctored = dataclasses.replace(sol, total_rate=sol.total_rate * (1.0 + 1e-3))
    assert op.check(doctored) == ["reference_mismatch"]


def test_checker_flags_an_exceeded_budget():
    op, sol = _solved_op()
    D = op.query.distortion_budget
    doctored = dataclasses.replace(sol, achieved_distortion=D * (1.0 + 1e-5))
    assert op.check(doctored) == ["budget_miss"]
    P = op.query.perception_budget
    doctored = dataclasses.replace(sol, achieved_perception=P * (1.0 + 1e-5))
    assert op.check(doctored) == ["budget_miss"]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_runner_fails_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
