"""Tests for the command line front end and its file formats."""

import json
import math

import numpy as np
import pytest

from gaussian_rdp import NonPositiveDistortionError, PerceptionMetric, montecarlo
from gaussian_rdp.cli import (
    CliInputError,
    GridSpec,
    RunConfig,
    curve_from_csv,
    curve_to_csv,
    load_covariance_file,
    main,
    parse_budget,
    run_curve,
    run_point,
    run_verify,
)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_budget_scalar_and_inf():
    assert parse_budget("0.5", "x") == 0.5
    assert parse_budget("1e9", "x") == 1e9
    assert parse_budget("inf", "x") == math.inf


def test_parse_budget_grids():
    g = parse_budget("1:10:4", "x")
    assert g == GridSpec(1.0, 10.0, 4)
    assert parse_budget("0.1:1:3:log", "x") == GridSpec(0.1, 1.0, 3, "log")


def test_parse_budget_errors():
    with pytest.raises(CliInputError):
        parse_budget("1:2", "x")
    with pytest.raises(CliInputError):
        parse_budget("1:2:zero", "x")
    with pytest.raises(CliInputError):
        parse_budget("2:1:5", "x")
    with pytest.raises(CliInputError):
        parse_budget("0:1:5:log", "x")
    with pytest.raises(CliInputError):
        parse_budget("1:2:3:cubic", "x")
    with pytest.raises(CliInputError):
        parse_budget("1:2:0", "x")


def test_gridspec_values():
    assert GridSpec(2.0, 2.0, 1).values() == (2.0,)
    v = GridSpec(1.0, 3.0, 3).values()
    assert v == (1.0, 2.0, 3.0)
    w = GridSpec(0.01, 1.0, 3, "log").values()
    assert abs(w[1] - 0.1) < 1e-15
    assert w[0] == 0.01 and w[2] == 1.0


def test_runconfig_source_exclusivity():
    with pytest.raises(CliInputError):
        RunConfig(
            lambdas=(1.0,),
            covariance_path="x.txt",
            metric=PerceptionMetric.KL,
            distortion=1.0,
            perception=0.5,
        )
    with pytest.raises(CliInputError):
        RunConfig(
            lambdas=None,
            covariance_path=None,
            metric=PerceptionMetric.KL,
            distortion=1.0,
            perception=0.5,
        )


def test_runconfig_metric_budget_coherence():
    with pytest.raises(CliInputError):
        RunConfig(
            lambdas=(1.0,),
            covariance_path=None,
            metric=PerceptionMetric.UNCONSTRAINED,
            distortion=1.0,
            perception=0.5,
        )
    with pytest.raises(CliInputError):
        RunConfig(
            lambdas=(1.0,),
            covariance_path=None,
            metric=PerceptionMetric.KL,
            distortion=1.0,
            perception=math.inf,
        )


def test_covariance_file_matches_inline(tmp_path):
    path = tmp_path / "cov.txt"
    path.write_text("3\n3 0 0\n0 2 0\n0 0 1\n")
    s_file = load_covariance_file(str(path))
    cfg_inline = RunConfig(
        lambdas=(3.0, 2.0, 1.0),
        covariance_path=None,
        metric=PerceptionMetric.UNCONSTRAINED,
        distortion=1.5,
        perception=math.inf,
    )
    cfg_file = RunConfig(
        lambdas=None,
        covariance_path=str(path),
        metric=PerceptionMetric.UNCONSTRAINED,
        distortion=1.5,
        perception=math.inf,
    )
    assert np.array_equal(s_file.lambdas, np.array([3.0, 2.0, 1.0]))
    _, sol_a, _ = run_point(cfg_inline)
    _, sol_b, _ = run_point(cfg_file)
    assert abs(sol_a.total_rate - sol_b.total_rate) <= 1e-10
    assert np.max(np.abs(sol_a.gammas - sol_b.gammas)) <= 1e-10


def test_covariance_diagnostics_name_lines(tmp_path):
    p = tmp_path / "bad1.txt"
    p.write_text("two\n1 0\n0 1\n")
    with pytest.raises(CliInputError, match="line 1"):
        load_covariance_file(str(p))
    p.write_text("2\n1 0\n0\n")
    with pytest.raises(CliInputError, match="line 3"):
        load_covariance_file(str(p))
    p.write_text("2\n1 0 0\n0 1 0\n")
    with pytest.raises(CliInputError, match="line 2"):
        load_covariance_file(str(p))
    p.write_text("")
    with pytest.raises(CliInputError, match="empty"):
        load_covariance_file(str(p))
    p.write_text("2 2\n1 0\n0 1\n")
    with pytest.raises(CliInputError, match="line 1: expected the dimension alone"):
        load_covariance_file(str(p))
    p.write_text("0\n")
    with pytest.raises(CliInputError, match="line 1: dimension must be >= 1"):
        load_covariance_file(str(p))
    p.write_text("2\n1 0\n")
    with pytest.raises(CliInputError, match="expected 2 matrix rows after the header, got 1"):
        load_covariance_file(str(p))
    p.write_text("2\n1 x\n0 1\n")
    with pytest.raises(CliInputError, match="line 2"):
        load_covariance_file(str(p))
    with pytest.raises(CliInputError):
        load_covariance_file(str(tmp_path / "missing.txt"))


@pytest.mark.parametrize(
    "matrix",
    [
        "2\n1 0.5\n0 1\n",  # asymmetric
        "2\n1 2\n2 1\n",  # eigenvalues 3 and -1
        "2\n0 0\n0 0\n",  # every component null
        "2\n1 nan\nnan 1\n",
    ],
    ids=["asymmetric", "not-psd", "all-null", "nan"],
)
def test_bad_covariance_matrix_exits_1(tmp_path, capsys, matrix):
    p = tmp_path / "cov.txt"
    p.write_text(matrix)
    for command in ("point", "verify"):
        argv = [command, "--covariance", str(p), "--metric", "kl",
                "--distortion", "0.5", "--perception", "0.1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "matrix, where",
    [
        ("2\n1 0.5\n0 1\n", ": asymmetry"),
        ("2\n1 2\n2 1\n", ": eigenvalue"),
        ("2\n0 0\n0 0\n", ": all 2 eigenvalues"),
        ("2\n\n1 0\n0 nan\n", ", line 4: matrix entries must be finite, got nan"),
        ("2\n1 -inf\n0 1\n", ", line 2: matrix entries must be finite, got -inf"),
    ],
    ids=["asymmetric", "not-psd", "all-null", "nan", "inf"],
)
def test_bad_covariance_matrix_names_the_file(tmp_path, capsys, matrix, where):
    p = tmp_path / "cov.txt"
    p.write_text(matrix)
    argv = ["verify", "--covariance", str(p), "--metric", "kl",
            "--distortion", "0.5", "--perception", "0.1"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}{where}")


@pytest.mark.parametrize("family", ["ar1", "wishart"])
def test_verify_passes_on_48_dimensional_covariance_files(tmp_path, capsys, family):
    # the benchmark's largest inputs, at the CLI's default seed and sample
    # count: every component's draws must land within 4 standard errors
    n = 48
    if family == "ar1":
        i = np.arange(n)
        m = 0.95 ** np.abs(i[:, None] - i[None, :])
    else:
        a = np.random.default_rng(48).standard_normal((n, n))
        m = a @ a.T / n
    p = tmp_path / f"{family}.cov"
    rows = [" ".join(repr(float(v)) for v in row) for row in m]
    p.write_text("\n".join([str(n), *rows]) + "\n")
    tr = float(np.trace(m))
    for metric, P in (("kl", 0.05 * n), ("w2", 0.05 * tr), ("w2", 0.0)):
        code, report = run_json(capsys, [
            "verify", "--covariance", str(p), "--metric", metric,
            "--distortion", repr(0.3 * tr), "--perception", repr(P),
        ])
        assert code == 0, (metric, P)
        assert report["montecarlo_pass"], (metric, P)


def test_point_classic_rd_symmetric(capsys):
    code, rec = run_json(
        capsys, ["point", "--lambdas", "1,1", "--metric", "none", "--distortion", "1"]
    )
    assert code == 0
    assert abs(rec["rate_nats"] - math.log(2.0)) < 1e-9


def test_point_w2_perfect_perception(capsys):
    code, rec = run_json(
        capsys,
        [
            "point",
            "--lambdas",
            "1",
            "--metric",
            "w2",
            "--distortion",
            "1",
            "--perception",
            "0",
        ],
    )
    assert code == 0
    assert abs(rec["rate_nats"] - 0.5 * math.log(4.0 / 3.0)) < 1e-9
    assert abs(rec["gammas"][0] - 0.75) < 1e-9


def test_point_kl_inactive_matches_rd(capsys):
    code, rec = run_json(
        capsys,
        [
            "point",
            "--lambdas",
            "1",
            "--metric",
            "kl",
            "--distortion",
            "0.5",
            "--perception",
            "1e9",
        ],
    )
    assert code == 0
    assert abs(rec["rate_nats"] - 0.5 * math.log(2.0)) < 1e-9


def test_point_bits_conversion(capsys):
    code, rec = run_json(
        capsys,
        [
            "point",
            "--lambdas",
            "1,1",
            "--metric",
            "none",
            "--distortion",
            "1",
            "--unit",
            "bits",
        ],
    )
    assert code == 0
    assert rec["rate_bits"] == 1.0


def test_point_csv_format(capsys):
    code = main(
        [
            "point",
            "--lambdas",
            "2,1",
            "--metric",
            "kl",
            "--distortion",
            "1",
            "--perception",
            "0.1",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    sweep = curve_from_csv(capsys.readouterr().out)
    assert len(sweep.solutions) == 1
    assert sweep.solutions[0] is not None
    assert sweep.solutions[0].total_rate > 0.0


def _curve_cfg(**overrides):
    base = dict(
        lambdas=(2.0, 1.0),
        covariance_path=None,
        metric=PerceptionMetric.KL,
        distortion=GridSpec(1.0, 3.0, 3),
        perception=GridSpec(0.05, 0.5, 2),
    )
    base.update(overrides)
    return RunConfig(**base)


def test_curve_grid_major_order():
    sweep = run_curve(_curve_cfg())
    assert sweep.distortions == (1.0, 1.0, 2.0, 2.0, 3.0, 3.0)
    assert sweep.perceptions == (0.05, 0.5) * 3


def test_curve_single_point_reduces_to_point():
    cfg = _curve_cfg(distortion=GridSpec(1.5, 1.5, 1), perception=0.2)
    sweep = run_curve(cfg)
    assert len(sweep.solutions) == 1
    point_cfg = _curve_cfg(distortion=1.5, perception=0.2)
    _, sol, _ = run_point(point_cfg)
    assert sweep.solutions[0].total_rate == sol.total_rate
    assert sweep.solutions[0] == sol


def test_curve_roundtrip_is_lossless():
    sweep = run_curve(_curve_cfg())
    text = curve_to_csv(sweep)
    parsed = curve_from_csv(text)
    assert parsed == sweep
    assert curve_to_csv(parsed) == text


def test_curve_infeasible_rows_do_not_abort():
    cfg = _curve_cfg(distortion=GridSpec(0.0, 3.0, 4), perception=0.2)
    sweep = run_curve(cfg)
    assert sweep.failures[0] == "infeasible"
    assert sweep.solutions[0] is None
    assert all(sol is not None for sol in sweep.solutions[1:])
    text = curve_to_csv(sweep)
    assert curve_from_csv(text) == sweep


def test_curve_json_rows_match_point_records(capsys):
    # D = 0 is no valid budget: that row is tagged, the rest are the records
    # `point` prints for the same budgets
    argv = ["--lambdas", "3,2,1", "--metric", "kl", "--perception", "0.2"]
    code, payload = run_json(capsys, ["curve", *argv, "--distortion", "0:3:4", "--format", "json"])
    assert code == 0
    rows = payload["rows"]
    assert rows[0] == {
        "case_tag": "infeasible", "distortion_budget": 0.0, "metric": "kl", "perception_budget": 0.2,
    }
    assert [row["distortion_budget"] for row in rows[1:]] == [1.0, 2.0, 3.0]
    for row in rows[1:]:
        code, record = run_json(capsys, ["point", *argv, "--distortion", repr(row["distortion_budget"])])
        assert code == 0
        assert row == record


def _csv_lines():
    cfg = _curve_cfg(distortion=GridSpec(0.0, 1.0, 2), perception=0.2)
    return curve_to_csv(run_curve(cfg)).splitlines()


def _replace_line(lines, i, line):
    return "\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n"


def _replace_field(lines, i, j, value):
    fields = lines[i].split(",")
    fields[j] = value
    return _replace_line(lines, i, ",".join(fields))


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda ls: "# no colon here\n" + "\n".join(ls), CliInputError, "without a colon"),
        (lambda ls: "\n".join(l for l in ls if l.startswith("#")), CliInputError, "no header"),
        (lambda ls: _replace_field(ls, 4, 3, "speed"), CliInputError, "rate column"),
        (lambda ls: _replace_field(ls, 4, 3, "rate_hartleys"), CliInputError, "rate unit"),
        (lambda ls: _replace_line(ls, 4, ls[4] + ",extra"), CliInputError, r"not 10 \+ 3L"),
        (lambda ls: _replace_line(ls, 6, ls[6].rsplit(",", 1)[0]), CliInputError, "expected 16 fields"),
        (lambda ls: _replace_field(ls, 6, 7, "abc"), CliInputError, "data row 2: could not convert"),
        (lambda ls: _replace_field(ls, 6, 4, "Sideways"), CliInputError, "data row 2: .Sideways"),
        (lambda ls: _replace_field(ls, 6, 0, "0"), NonPositiveDistortionError, "distortion"),
    ],
    ids=[
        "comment-without-colon",
        "no-header",
        "bad-rate-column",
        "bad-unit",
        "header-not-10-plus-3L",
        "short-row",
        "non-numeric-field",
        "unknown-case-tag",
        "solved-row-at-zero-distortion",
    ],
)
def test_curve_from_csv_rejects_malformed_files(edit, error, message):
    # four metadata lines, the header, an infeasible row at D = 0 and a
    # solved row at D = 1 for a two-component source
    lines = _csv_lines()
    assert lines[4].startswith("D,P,") and lines[5].split(",")[4] == "infeasible"
    with pytest.raises(error, match=message) as info:
        curve_from_csv(edit(lines))
    assert type(info.value) is error


def test_curve_jobs_output_identical(tmp_path):
    argv = [
        "curve",
        "--lambdas",
        "3,2,5,4,1",
        "--metric",
        "kl",
        "--distortion",
        "2:12:4",
        "--perception",
        "0.05:0.5:4",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--jobs", "1", "--output", str(a)]) == 0
    assert main(argv + ["--jobs", "4", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_curve_high_distortion_single_active_component():
    # near the zero-rate boundary only the largest eigenvalue keeps rate
    lams = (3.0, 2.0, 5.0, 4.0, 1.0)
    cfg = RunConfig(
        lambdas=lams,
        covariance_path=None,
        metric=PerceptionMetric.UNCONSTRAINED,
        distortion=GridSpec(sum(lams) - 0.01, sum(lams) - 0.01, 1),
        perception=math.inf,
    )
    sweep = run_curve(cfg)
    sol = sweep.solutions[0]
    active = [i for i, (l, g) in enumerate(zip(lams, sol.gammas)) if g < l]
    assert active == [2]
    assert lams[2] == 5.0


def test_curve_p0_high_distortion_all_components_active():
    lams = (3.0, 2.0, 5.0, 4.0, 1.0)
    cfg = RunConfig(
        lambdas=lams,
        covariance_path=None,
        metric=PerceptionMetric.KL,
        distortion=GridSpec(2.0 * sum(lams) - 0.1, 2.0 * sum(lams) - 0.1, 1),
        perception=0.0,
    )
    sweep = run_curve(cfg)
    sol = sweep.solutions[0]
    assert all(g < l for l, g in zip(lams, sol.gammas))
    assert all(r > 0.0 for r in sol.rates)


def test_verify_passing_report():
    cfg = RunConfig(
        lambdas=(2.0, 1.0),
        covariance_path=None,
        metric=PerceptionMetric.KL,
        distortion=1.0,
        perception=0.05,
        samples=5000,
        seed=3,
    )
    report = run_verify(cfg)
    assert report["all_pass"]
    assert report["rate_agreement_pass"]
    assert report["kkt_pass"]
    assert report["montecarlo_pass"]
    assert report["rate_abs_diff"] <= report["rate_tolerance"]
    assert len(report["montecarlo"]) == 2
    assert report["oracle_method"] == "barrier"


def test_verify_fails_a_1e_4_distortion_error_in_one_of_2000_components(monkeypatch):
    # at n = 1e12 the relative standard error is sqrt(2/n) = 1.4e-6, so a
    # sampled variance 1e-4 off is 70 standard errors out, far past the
    # 4.81 that 2,000 components allow each
    lam = np.exp(np.random.default_rng(0).uniform(-1.0, 1.0, 2000))
    tr = float(lam.sum())
    cfg = RunConfig(
        lambdas=tuple(lam.tolist()),
        covariance_path=None,
        metric=PerceptionMetric.W2,
        distortion=0.3 * tr,
        perception=0.05 * tr,
        samples=10**12,
    )
    assert run_verify(cfg)["montecarlo_pass"]

    wrong = 1234
    variance = montecarlo._difference_variance

    def off_in_one_component(lams, gammas, lambda_hats):
        return variance(lams, gammas, lambda_hats) * np.where(lams == lam[wrong], 1.0 + 1e-4, 1.0)

    monkeypatch.setattr(montecarlo, "_difference_variance", off_in_one_component)
    report = run_verify(cfg)
    failed = [e["component"] for e in report["montecarlo"] if not e["pass"]]
    assert failed == [wrong + 1]
    assert not report["montecarlo_pass"]
    assert not report["all_pass"]


def test_verify_report_bytes_deterministic(capsys):
    argv = [
        "verify",
        "--lambdas",
        "1,0.5",
        "--metric",
        "w2",
        "--distortion",
        "0.8",
        "--perception",
        "0.1",
        "--samples",
        "2000",
        "--seed",
        "11",
    ]
    code_a = main(argv)
    out_a = capsys.readouterr().out
    code_b = main(argv)
    out_b = capsys.readouterr().out
    assert code_a == 0 and code_b == 0
    assert out_a == out_b


def test_verify_zero_rate_is_trivial():
    cfg = RunConfig(
        lambdas=(1.0,),
        covariance_path=None,
        metric=PerceptionMetric.KL,
        distortion=5.0,
        perception=0.0,
        samples=1000,
    )
    report = run_verify(cfg)
    assert report["oracle_method"] == "trivial_zero_rate"
    assert report["all_pass"]
    assert report["solver_rate_nats"] == 0.0


@pytest.mark.parametrize(
    "args",
    [
        ["--lambdas", "3,2,1", "--metric", "w2", "--distortion", "6e-12", "--perception", "0"],
        ["--lambdas", "5,1,0.2,0.01", "--metric", "kl", "--distortion", "6.21e-12", "--perception", "0.1"],
        ["--lambdas", "5,1,0.2,0.01", "--metric", "w2", "--distortion", "6.21e-12", "--perception", "0.1"],
        ["--lambdas", "5,1,0.2,0.01", "--metric", "none", "--distortion", "6.21e-12"],
    ],
)
def test_verify_passes_kkt_at_tiny_distortion(capsys, args):
    # with D/tr near 1e-12 the gamma condition 1/(2*gamma) is about 1e11, so
    # a residual kept in those units rounds to 3e-5..6e-5, above the
    # threshold of 1e-6; scaled by 2*gamma it is free of the source's units
    code, report = run_json(capsys, ["verify", *args])
    assert code == 0
    assert report["kkt_pass"]
    assert report["kkt_residual"] <= 1e-6


def test_exit_codes_for_bad_input(capsys):
    assert main(["point", "--lambdas", "1,1", "--metric", "none"]) == 1
    capsys.readouterr()
    assert (
        main(
            ["point", "--lambdas", "x", "--metric", "none", "--distortion", "1"]
        )
        == 1
    )
    capsys.readouterr()
    # grids are not allowed for point
    assert (
        main(
            ["point", "--lambdas", "1", "--metric", "none", "--distortion", "1:2:3"]
        )
        == 1
    )
    capsys.readouterr()
    # curve requires at least one grid
    assert (
        main(
            [
                "curve",
                "--lambdas",
                "1",
                "--metric",
                "kl",
                "--distortion",
                "1",
                "--perception",
                "0.5",
            ]
        )
        == 1
    )
    capsys.readouterr()
    # nonpositive distortion is an input error, not a crash
    assert (
        main(["point", "--lambdas", "1", "--metric", "none", "--distortion", "-1"])
        == 1
    )
    capsys.readouterr()
    # metric none takes only P = +inf, not any other budget that is not finite
    for bad in ("nan", "-inf"):
        args = ["point", "--lambdas", "1", "--metric", "none", "--distortion", "1"]
        assert main([*args, f"--perception={bad}"]) == 1
        assert "--perception must be inf" in capsys.readouterr().err
    base = ["--lambdas", "1", "--metric", "none", "--distortion", "0.5"]
    assert main(["curve", *base[:-1], "0.1:0.5:3", "--jobs", "0"]) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert main(["verify", *base, "--samples", "999"]) == 1
    assert "--samples must be >= 1000" in capsys.readouterr().err
    # verify writes JSON in nats; the other format and unit are refused
    assert main(["verify", *base, "--format", "csv"]) == 1
    assert "--format csv" in capsys.readouterr().err
    assert main(["verify", *base, "--unit", "bits"]) == 1
    assert "--unit bits" in capsys.readouterr().err
    for flags in (["--format", "json"], ["--unit", "nats"]):
        assert main(["verify", *base, "--samples", "1000", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["all_pass"]


def test_output_file_written(tmp_path):
    out = tmp_path / "point.json"
    code = main(
        [
            "point",
            "--lambdas",
            "1,1",
            "--metric",
            "none",
            "--distortion",
            "1",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rec = json.loads(out.read_text())
    assert abs(rec["rate_nats"] - math.log(2.0)) < 1e-9


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # main builds its parser once per process; later calls must parse as a
    # fresh parser would, defaults and errors included
    from gaussian_rdp import cli

    argv = ["verify", "--lambdas", "3,2,1", "--metric", "kl", "--distortion", "2",
            "--perception", "0.05", "--samples", "1000"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    for _ in range(2):
        assert main(["verify", *argv[1:], "--no-such-flag"]) == 1
        assert "--no-such-flag" in capsys.readouterr().err
    assert main(argv) == 0 and capsys.readouterr().out == outputs[0]
    assert not built
