"""End-to-end CLI: subcommands, exit codes, reports, determinism."""

import argparse
import ast
import csv
import dataclasses
import errno
import json
import os
import re
import stat
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from kenmotsu3 import cli, models
from kenmotsu3.cli import build_model, main, make_parser
from kenmotsu3.exprs import parse_expr
from kenmotsu3.identities import IDENTITIES, SamplePlan, check_suite

ROOT = Path(__file__).resolve().parents[1]


def run(args):
    return main(args)


def strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, as RFC 8259 does."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestVerify:
    def test_baseline_all_identities(self, tmp_path):
        report = tmp_path / "out.json"
        code = run(["verify", "--family", "kenmotsu", "--identities", "all",
                    "--grid", "3", "--seed", "42",
                    "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["overall"] == "pass"
        assert doc["model"]["family"] == "kenmotsu-baseline"
        assert doc["plan"] == {"grid": 3, "randomPairs": 4, "seed": 42}
        ids = {r["id"]: r for r in doc["identities"]}
        assert ids["NABLA_XI"]["verdict"] == "pass"
        assert ids["NHP"]["verdict"] == "not-applicable"
        assert {"id", "formula", "residual", "tolerance", "profile",
                "maxPoint", "samples", "verdict"} <= set(ids["QXI"])

    def test_not_applicable_does_not_fail_run(self, tmp_path):
        # a kmu-chart run that includes CONN_KMUP must mark it
        # not-applicable and still exit 0 when the rest pass
        report = tmp_path / "na.json"
        code = run(["verify", "--family", "kmu-chart", "--mu", "0",
                    "--f", "0", "--r", "0",
                    "--box", "0,1:0,1:-3,-1.5", "--grid", "3",
                    "--identities", "NABLA_XI,H2,CONN_KMUP",
                    "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        verdicts = {r["id"]: r["verdict"] for r in doc["identities"]}
        assert verdicts["CONN_KMUP"] == "not-applicable"
        assert doc["overall"] == "pass"

    def test_failure_exit_code(self, tmp_path):
        # the baseline's QXI residual is an exact zero, which passes any bound
        code = run(["verify", "--family", "kmu-chart", "--grid", "2",
                    "--identities", "QXI", "--tol", "QXI=1e-30"])
        assert code == 1

    def test_usage_errors_exit_2(self, capsys):
        assert run(["verify", "--family", "kmu-chart", "--mu", "1 +"]) == 2
        assert run(["verify", "--family", "kmu-chart",
                    "--box", "0,1:0,1:-2,0"]) == 2
        assert run(["verify", "--family", "kenmotsu",
                    "--tol", "NOPE=1"]) == 2
        assert run(["verify", "--family", "kenmotsu",
                    "--identities", "NOPE"]) == 2
        # an empty identity list would check nothing and pass, and one that
        # names an identity twice would report it twice
        for ids in (",", "", "NH,NH,DK_ETA"):
            assert run(["verify", "--family", "kenmotsu",
                        "--identities", ids]) == 2, ids
        # a Darboux box past the integrated t-range is not clamped onto it
        assert run(["verify", "--family", "kmu-darboux", "--mu", "1",
                    "--t-range", "-0.5", "0.5", "--box", "0,1:0,1:-2,2",
                    "--grid", "3"]) == 2
        # a tolerance that is not a finite non-negative number is bad input,
        # not a numerical failure (nan and -1 used to fail, inf to pass)
        for value in ("nan", "-1", "inf"):
            assert run(["verify", "--family", "kenmotsu", "--grid", "2",
                        "--identities", "NABLA_XI",
                        "--tol", f"NABLA_XI={value}"]) == 2, value
        # a tolerance that is no number is named by the flag and identity
        capsys.readouterr()
        assert run(["verify", "--family", "kenmotsu", "--grid", "2",
                    "--identities", "NABLA_XI", "--tol", "NABLA_XI=abc"]) == 2
        err = capsys.readouterr().err
        assert "--tol NABLA_XI expects a number, got 'abc'" in err, err
        # a bad sample plan is named by its field or flag, not by a numpy
        # error; a grid of 1e18 points fails at once, past its 8-MB axes
        for flag, value, message in (
                ("--grid", "0", "sample plan grid must be >= 1"),
                ("--grid", "1000000", "sample plan grid 1000000 needs "
                 "1000000000000000000 points, which cannot be allocated"),
                ("--rand-pairs", "-1", "argument --rand-pairs: expects an "
                 "integer >= 0, got '-1'"),
                ("--seed", "-1", "argument --seed: expects an integer >= 0, "
                 "got '-1'")):
            capsys.readouterr()
            assert run(["verify", "--family", "kenmotsu",
                        "--identities", "NABLA_XI", flag, value]) == 2
            err = capsys.readouterr().err
            assert message in err, err

    def test_derivative_domain_error_names_the_users_text(self, capsys):
        # d/dz sqrt(z+3) divides by zero at z = -3, the box's lower end: the
        # message names the user's node, not the derivative's 0.5 / sqrt(...)
        assert run(["verify", "--family", "kmu-chart", "--mu", "sqrt(z+3)",
                    "--grid", "3"]) == 2
        err = capsys.readouterr().err
        assert "division by zero in the derivative of 'sqrt(z + 3.0)'" in err
        # the second derivative, which the chart partials evaluate too, names
        # the user's node, not a node of the first derivative
        assert run(["verify", "--family", "kmu-chart", "--mu", "(z+3)^1.5",
                    "--grid", "3"]) == 2
        err = capsys.readouterr().err
        assert ("zero raised to negative power in the derivative of "
                "'(z + 3.0)^1.5'") in err, err

    def test_darboux_families_read_the_first_derivative_of_mu_alone(self):
        # (t+1)^1.5 has no second derivative at t = -1, the t-range's lower
        # end, but the Darboux fields take mu's first derivative alone
        assert run(["verify", "--family", "kmu-darboux", "--mu", "(t+1)^1.5",
                    "--grid", "3"]) == 0

    def test_unallocatable_step_exits_2(self, capsys):
        # 2e15 nodes exceed any address space, whatever the overcommit
        # policy: bad input, not a failed verification (exit 1)
        assert run(["verify", "--family", "kmu-darboux", "--t-range",
                    "-0.1", "0.1", "--step", "1e-16"]) == 2
        err = capsys.readouterr().err
        assert "step 1e-16 needs 2000000000000001 nodes" in err, err

    def test_unknown_flag_exit_2(self, capsys):
        assert run(["verify", "--family", "kenmotsu", "--nope"]) == 2
        # no suite differentiates by FD, so no option sets a step
        assert run(["verify", "--family", "kenmotsu", "--h-rel", "1e-3"]) == 2
        assert "unrecognized arguments: --h-rel" in capsys.readouterr().err

    def test_determinism_modulo_timestamp(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = run(["verify", "--family", "kmu-chart", "--mu", "1",
                        "--grid", "3", "--seed", "7",
                        "--identities", "NABLA_XI,H2,NULL_KMU,FLAT_LEAF",
                        "--report", str(p)])
            assert code == 0
        texts = [re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"',
                        p.read_text()) for p in paths]
        assert texts[0] == texts[1]

    def test_report_roundtrips_without_loss(self, tmp_path):
        path = tmp_path / "r.json"
        run(["verify", "--family", "kenmotsu", "--grid", "2",
             "--identities", "NABLA_XI,QXI", "--report", str(path)])
        text = path.read_text()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_seed_and_rand_pairs_change_no_identity(self, tmp_path):
        # no identity reads a random vector: the flags are echoed in the
        # plan, and the identities section is the same, byte for byte
        sections = []
        for seed, pairs in (("3", "4"), ("4", "0"), ("210734320", "9")):
            p = tmp_path / f"s{seed}.json"
            assert run(["verify", "--family", "kmu-chart", "--grid", "2",
                        "--seed", seed, "--rand-pairs", pairs,
                        "--report", str(p)]) == 0
            doc = json.loads(p.read_text())
            assert doc["plan"] == {"grid": 2, "randomPairs": int(pairs),
                                   "seed": int(seed)}
            sections.append(json.dumps(doc["identities"], indent=2))
        assert sections[0] == sections[1] == sections[2]


class TestBuild:
    def test_build_writes_model_json(self, tmp_path):
        out = tmp_path / "model.json"
        code = run(["build", "--family", "kmu-darboux", "--mu", "1",
                    "--t-range", "-0.25", "0.25", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["family"] == "kmu-darboux"
        assert doc["trajectory"]["step"] == 1e-3
        # the requested range alone: no FD stencil needs nodes beyond it
        assert doc["trajectory"]["nodes"] == 501
        assert doc["params"]["t_range"] == [-0.25, 0.25]

    @pytest.mark.parametrize("flag", ["--mu", "--f", "--r"])
    def test_model_no_suite_can_evaluate_is_not_written(self, tmp_path, capsys,
                                                        flag):
        # build evaluates the model on its box once, so it fails as verify
        # does, with exit 2 and no document
        out = tmp_path / "m.json"
        model = ["--family", "kmu-chart", flag, "1e308*1e308"]
        for argv in (["build", *model, "--out", str(out)],
                     ["verify", *model, "--grid", "2", "--report", str(out)]):
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: non-finite result"), err
            assert not out.exists()


class TestDarbouxMetric:
    def test_kmup_metric_is_checked_without_cancellation(self, tmp_path,
                                                          capsys):
        # at mu = 3, A reaches 59 at t = -1, where f2 - f3 = e^{-A} is lost
        # below the rounding of f2 = cosh A; G = diag(e^{-A}, e^A) is still
        # positive definite, so the model is built and a box clear of the
        # blow-up passes.  The whole range fails later, on the conditioning
        # of g, not on a false loss of positive definiteness
        out = tmp_path / "m.json"
        model = ["--family", "kmup-darboux", "--mu", "3"]
        assert run(["build", *model, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["family"] == "kmup-darboux"
        assert run(["verify", *model, "--box", "0,1:0,1:-0.2,1"]) == 0
        capsys.readouterr()
        assert run(["verify", *model]) == 2
        err = capsys.readouterr().err
        assert err == ("error: metric condition number 1.647e+51 exceeds "
                       "1e+12\n"), err

    @pytest.mark.parametrize("mu", ["1", "0.5", "-1"])
    def test_kmu_metric_is_checked_without_cancellation(self, tmp_path,
                                                        capsys, mu):
        # back to t = -1.8, G's entries reach 1e14 with det G = 1, and the
        # states' f2 - f3 and det G cancel to <= 0 from t ~ -1.6 on; G =
        # (M2 P)(M2 P)^T of the node frames is positive definite, so the
        # model is built and a box clear of the blow-up passes
        out = tmp_path / "m.json"
        model = ["--family", "kmu-darboux", "--mu", mu, "--t-range", "-1.8", "1"]
        assert run(["build", *model, "--out", str(out)]) == 0
        assert run(["verify", *model, "--box", "0,1:0,1:-0.5,0.5",
                    "--grid", "3"]) == 0

    def test_kmu_whole_range_fails_on_conditioning(self, capsys):
        # cond g is about 7e30 at t = -1.8; float64's SVD reads it as the
        # rounding of the smallest singular value, about 1e16
        assert run(["verify", "--family", "kmu-darboux", "--mu", "1",
                    "--t-range", "-1.8", "1", "--grid", "3"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: metric condition number 1.671e+16 exceeds "
                       "1e+12\n"), err


class TestTrajectory:
    def test_csv_export(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(["trajectory", "--family", "kmu-darboux", "--mu", "1",
                    "--t-range", "-1", "1", "--step", "1e-3",
                    "--csv", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2002  # header + 2001 nodes
        det = [abs(float(r[13]) - 1.0) for r in rows[1:]]
        # the long-double Magnus states meet 1e-9 on the whole range, also
        # at the backward end where the components reach ~2e3
        assert max(det) <= 1e-9

    def test_sub_step_range_exits_2(self, tmp_path, capsys):
        # both ends round to t = 0: no step, and no one-node CSV
        out = tmp_path / "x.csv"
        assert run(["trajectory", "--family", "kmu-darboux", "--t-range",
                    "-0.004", "0.004", "--step", "0.01",
                    "--csv", str(out)]) == 2
        assert not out.exists()
        assert "rounds to the single node t=0" in capsys.readouterr().err

    def test_wrong_family(self):
        assert run(["trajectory", "--family", "kenmotsu",
                    "--csv", "/tmp/x.csv"]) == 2

    def test_failed_write_keeps_the_old_file(self, tmp_path, capsys,
                                             monkeypatch):
        # the rows stream to a temporary file beside the target, renamed
        # over it once whole: a write that fails after the first block of
        # rows (a full disk, a file size limit) leaves the old CSV as it
        # was, exits 2 and leaves no temporary file
        out = tmp_path / "traj.csv"
        argv = ["trajectory", "--family", "kmu-darboux", "--csv", str(out),
                "--mu"]
        assert run(argv + ["0.5"]) == 0
        old = out.read_bytes()
        to_csv, writes = cli.trajectory_to_csv, []

        class Full:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                writes.append(len(text))
                if len(writes) > 2:  # the header and one block
                    raise OSError(errno.EFBIG, "File too large")
                return self.fh.write(text)

        monkeypatch.setattr(cli, "trajectory_to_csv",
                            lambda traj, fh: to_csv(traj, Full(fh)))
        capsys.readouterr()
        assert run(argv + ["1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.EFBIG}] File too large\n", err
        assert len(writes) == 3 and writes[1] > 128 * 14 * 2
        assert out.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]


class TestSweep:
    def test_aggregates_worst_residuals(self, tmp_path):
        report = tmp_path / "sweep.json"
        code = run(["sweep", "--family", "kmu-chart",
                    "--mu-values", "0,1,-1", "--grid", "2",
                    "--identities", "NULL_KMU,H2,NH",
                    "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["muValues"] == [0.0, 1.0, -1.0]
        assert len(doc["runs"]) == 3
        assert set(doc["worstPerIdentity"]) == {"NULL_KMU", "H2", "NH"}
        worst = doc["worstPerIdentity"]["NULL_KMU"]["residual"]
        per_run = [r["identities"][0]["residual"] for r in doc["runs"]]
        assert worst == max(per_run)

    def test_nan_residual_is_the_worst(self, tmp_path, monkeypatch):
        # a NaN residual fails its run and is the sweep's worst, as
        # identities.worst_of keeps it over later finite ones: its entry
        # carries the mu, the tolerance and the verdict, the residual null.
        # The sweep checks its three models in one batch, one call of the
        # identity: the NaN goes to the points of the model whose mu is 1
        spec, calls = IDENTITIES["PHI12"], [0]

        def nan_at_mu_one(p):
            calls[0] += 1
            return spec.fn(p) * np.where(p.mu == 1.0, np.nan, 1.0)

        monkeypatch.setitem(IDENTITIES, "PHI12",
                            dataclasses.replace(spec, fn=nan_at_mu_one))
        report = tmp_path / "sweep.json"
        assert run(["sweep", "--family", "kmu-darboux", "--t-range", "-0.1",
                    "0.1", "--mu-values", "0,1,2", "--grid", "2",
                    "--identities", "PHI12", "--report", str(report)]) == 1
        doc = strict_json(report.read_text())
        assert calls[0] == 1
        assert [r["overall"] for r in doc["runs"]] == ["pass", "fail", "pass"]
        assert doc["worstPerIdentity"] == {"PHI12": {
            "residual": None, "mu": 1.0, "tolerance": 1e-9, "verdict": "fail"}}

    @pytest.mark.parametrize("family,grid", [
        ("kmu-darboux", 3), ("kmup-darboux", 3), ("kmu-chart", 3),
        ("kmu-darboux", 5),  # 3 x 125 points: blocks hold parts of models
    ])
    def test_runs_match_each_suite_alone(self, tmp_path, family, grid):
        # the sweep checks its models in one block loop; each run's entries
        # are those of its model's suite alone, bit for bit
        flags = ["--family", family, "--grid", str(grid)]
        if family.endswith("darboux"):
            flags += ["--t-range", "-0.2", "0.2"]
        report = tmp_path / "sweep.json"
        assert run(["sweep", *flags, "--mu-values", "0.25,0.5,1",
                    "--report", str(report)]) == 0
        for entry in json.loads(report.read_text())["runs"]:
            args = make_parser().parse_args(["verify", *flags, "--mu",
                                             repr(entry["mu"])])
            alone = check_suite(build_model(args), "all", SamplePlan(grid=grid))
            assert entry["identities"] == [r.as_dict() for r in alone]

    def test_reports_repeat(self, tmp_path):
        # two runs of one sweep write the same bytes but for the timestamp
        texts = []
        for name in ("a.json", "b.json"):
            assert run(["sweep", "--family", "kmup-darboux", "--t-range",
                        "-0.2", "0.2", "--grid", "3", "--mu-values", "0.1,0.9",
                        "--report", str(tmp_path / name)]) == 0
            texts.append(re.sub(r'"timestamp": "[^"]*"', "",
                                (tmp_path / name).read_text()))
        assert texts[0] == texts[1]

    def test_bad_values(self, capsys):
        assert run(["sweep", "--family", "kmu-chart",
                    "--mu-values", "a,b"]) == 2
        # non-finite values are rejected before any mu is integrated
        for values in ("1,nan", "inf", "0,-inf"):
            assert run(["sweep", "--family", "kmu-chart", "--grid", "2",
                        "--identities", "H2", "--mu-values", values]) == 2
            assert capsys.readouterr().out == "", values

    @pytest.mark.parametrize("flag,value", [
        ("--identities", "NH,NH"), ("--identities", ","),
        ("--identities", "NOPE"), ("--tol", "NOPE=1"), ("--tol", "NH=nan"),
        ("--tol", "NH=-1"), ("--tol", "NH=inf")])
    def test_bad_request_rejected_before_any_integration(self, capsys,
                                                         monkeypatch, flag,
                                                         value):
        # check_suites judges the request before it builds the first model
        def no_integration(*args, **kwargs):
            raise AssertionError("a mu was integrated")

        monkeypatch.setattr(models, "integrate", no_integration)
        assert run(["sweep", "--family", "kmu-darboux", "--grid", "2",
                    "--mu-values", "0,1", flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), err

    def test_baseline_has_no_mu_to_sweep(self, capsys):
        # the baseline takes no mu: a sweep would run one model per value
        assert run(["sweep", "--family", "kenmotsu", "--grid", "2",
                    "--identities", "H2", "--mu-values", "1,2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "mu" in err


# bad input met at each stage of a run: the flags, the box, the integration
# (mu = 50 drives the kmup state past float64 near t = -0.178); one error
# line, no warning before it, and no report
@pytest.mark.parametrize("args,prefix", [
    (["verify", "--family", "kenmotsu", "--grid", "2", "--identities",
      "NABLA_XI", "--tol", "NABLA_XI"], "error: --tol expects ID=VALUE"),
    (["sweep", "--family", "kmu-chart", "--grid", "2", "--identities", "H2",
      "--mu-values", ","], "error: --mu-values must list at least one"),
    (["verify", "--family", "kmu-chart", "--box", "0:0,1:-3,-2"],
     "error: interval must be 'lo,hi'"),
    (["verify", "--family", "kmup-darboux", "--mu", "50", "--grid", "2"],
     "fatal consistency error: ODE state non-finite"),
], ids=["tol-without-value", "no-mu-values", "box-interval", "consistency"])
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, args, prefix):
    report = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(args + ["--report", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(prefix) and err.count("\n") == 1, err
    assert not caught, [str(w.message) for w in caught]
    assert not report.exists()


@pytest.mark.parametrize("command", ["verify", "build"])
@pytest.mark.parametrize("box", [[], ["--box", "0,1:0,1:-2.5,-1.5"]],
                         ids=["default-box", "box-with-root-on-a-sample"])
def test_kmup_chart_mu_with_a_root_of_mu_plus_2_exits_2(tmp_path, capsys,
                                                         command, box):
    # mu = z: c = 2(1+z)(mu+2) vanishes at z = -2, inside both boxes; on the
    # default box no sample of mu + 2 lands within 1e-6 of the root (the
    # nearest is 9.8e-4 away), but mu + 2 changes sign between two samples
    out = tmp_path / "out.json"
    flag = "--out" if command == "build" else "--report"
    argv = [command, "--family", "kmup-chart", "--mu", "z", *box, flag, str(out)]
    assert run(argv + (["--grid", "3"] if command == "verify" else [])) == 2
    err = capsys.readouterr().err
    assert err == "error: mu(z) + 2 vanishes (or nearly) on the z-box\n", err
    assert not out.exists()


def test_kmup_chart_mu_with_mu_plus_2_negative_runs():
    # mu + 2 = -1 on the whole box: c keeps one sign and the chart is valid
    assert run(["verify", "--family", "kmup-chart", "--mu", "-3", "--grid", "3",
                "--identities", "NHP,LIE2"]) == 0


@pytest.mark.parametrize("command", ["verify", "build"])
@pytest.mark.parametrize("mu", ["-2 + 100*(z+2)^2", "-2 - 100*(z+2)^2"])
def test_kmup_chart_mu_touching_minus_2_between_samples_exits_2(
        tmp_path, capsys, command, mu):
    # mu + 2 touches 0 at z = -2 without changing sign; the nearest of the
    # 513 samples reads 9.6e-5, but mu' = +-200 (z + 2) changes sign between
    # two samples, and the samples added around its root reach the dip
    out = tmp_path / "out.json"
    flag = "--out" if command == "build" else "--report"
    argv = [command, "--family", "kmup-chart", "--mu", mu, flag, str(out)]
    extra = ["--grid", "3", "--identities", "NH,TR_HP"] if command == "verify" else []
    assert run(argv + extra) == 2
    err = capsys.readouterr().err
    assert err == "error: mu(z) + 2 vanishes (or nearly) on the z-box\n", err
    assert not out.exists()


def _benchmark_chart_mus():
    """The kmup-chart mu of the chart-grid9 workload's ops 0-3, seeds 1-3,
    from perfbench/workloads.py (run from its text: no bytecode written)."""
    path = ROOT / "perfbench" / "workloads.py"
    workloads = types.ModuleType("benchmark_workloads")
    sys.modules[workloads.__name__] = workloads  # dataclasses look it up
    try:
        exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
    finally:
        del sys.modules[workloads.__name__]
    ops = [workloads.make_op("chart-grid9", seed, i)
           for seed in (1, 2, 3) for i in range(4)]
    return [op.argv[op.argv.index("--mu") + 1] for op in ops
            if op.family == "kmup-chart"]


def _turning_points(mu: str) -> int:
    """Sign changes of the exact mu' between the 513 samples of the default
    z-box, where ``KmupChartParams.resolved`` adds samples."""
    slope = parse_expr(mu, "z").jet(np.linspace(-3, -1.5, 513), 1)[1]
    return int(np.sum(np.sign(slope[:-1]) * np.sign(slope[1:]) < 0))


def test_chart_mus_have_turning_points():
    # the runs below take the added samples: sin(3z) twice, and some of the
    # benchmark's mu (three of the six) once
    assert _turning_points("sin(3*z)") == 2
    assert any(_turning_points(mu) for mu in _benchmark_chart_mus())


@pytest.mark.parametrize("mu", ["sin(3*z)", *_benchmark_chart_mus()])
def test_kmup_chart_mu_with_turning_points_runs(mu):
    # where mu' changes sign, mu + 2 stays far from 0: nothing is rejected
    assert run(["verify", "--family", "kmup-chart", "--mu", mu, "--grid", "3",
                "--identities", "NHP,LIE2"]) == 0


# a model flag with no default that the family never reads: --f and --r
# outside the chart families, --mu on the baseline, and --mu on a sweep,
# whose mu values come from --mu-values
@pytest.mark.parametrize("argv,flag", [
    (["verify", "--family", "kmu-darboux", "--mu", "1", "--f", "z",
      "--identities", "NH"], "--f"),
    (["verify", "--family", "kmup-darboux", "--r", "1"], "--r"),
    (["verify", "--family", "kenmotsu", "--f", "z"], "--f"),
    (["verify", "--family", "kenmotsu", "--mu", "1"], "--mu"),
    (["build", "--family", "kenmotsu", "--mu", "1"], "--mu"),
    (["build", "--family", "kmu-darboux", "--r", "z"], "--r"),
    (["sweep", "--family", "kmu-darboux", "--mu", "1", "--mu-values", "0,1"],
     "--mu"),
    (["sweep", "--family", "kmup-chart", "--mu", "1", "--mu-values", "0,1"],
     "--mu"),
    (["sweep", "--family", "kmup-darboux", "--f", "z", "--mu-values", "0,1"],
     "--f"),
])
def test_unread_model_flag_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                             argv, flag):
    def no_integration(*args, **kwargs):
        raise AssertionError("a mu was integrated")

    monkeypatch.setattr(models, "integrate", no_integration)
    out = tmp_path / "out.json"
    assert run(argv + ["--out" if argv[0] == "build" else "--report",
                       str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith(f"error: {flag} is not read by"), err
    assert not out.exists()


def test_sweep_reads_the_chart_flags():
    # a chart sweep reads --f and --r; each mu comes from --mu-values
    assert run(["sweep", "--family", "kmu-chart", "--f", "z", "--r", "1",
                "--mu-values", "0", "--grid", "2", "--identities", "H2"]) == 0


# an output path in a missing directory: an error line and exit 2, not a
# traceback and the exit 1 of a failed verification
@pytest.mark.parametrize("args,flag", [
    (["verify", "--family", "kenmotsu", "--grid", "2", "--identities", "H2"],
     "--report"),
    (["build", "--family", "kenmotsu"], "--out"),
    (["trajectory", "--family", "kmu-darboux", "--t-range", "-0.01", "0.01"],
     "--csv"),
], ids=["verify", "build", "trajectory"])
def test_unwritable_output_exits_2(tmp_path, capsys, args, flag):
    path = tmp_path / "missing" / "out"
    assert run(args + [flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not path.parent.exists()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_outputs_get_a_new_files_mode(tmp_path, umask):
    # reports and CSVs are written through a temporary file: each gets the
    # mode a plainly opened new file gets, 0o666 less the umask, whether it
    # is new or replaces a file of another mode
    new, report, csv_out = (tmp_path / n for n in ("m.json", "r.json", "t.csv"))
    for path in (report, csv_out):
        path.write_text("old\n")
        path.chmod(0o640)
    old = os.umask(umask)
    try:
        assert run(["build", "--family", "kenmotsu", "--out", str(new)]) == 0
        assert run(["verify", "--family", "kenmotsu", "--grid", "2",
                    "--identities", "H2", "--report", str(report)]) == 0
        assert run(["trajectory", "--family", "kmu-darboux", "--t-range",
                    "-0.01", "0.01", "--csv", str(csv_out)]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["m.json", "r.json", "t.csv"], 0o666 & ~umask)


def test_report_is_written_through_a_symlink(tmp_path):
    # a report path that is a symlink keeps pointing at its target, and the
    # target gets the report: the temporary file is made beside the target
    target = tmp_path / "runs" / "target.json"
    target.parent.mkdir()
    target.write_text("old\n")
    link = tmp_path / "latest.json"
    link.symlink_to(Path("runs") / "target.json")
    assert run(["verify", "--family", "kenmotsu", "--grid", "2",
                "--identities", "H2", "--report", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(Path("runs/target.json"))
    assert strict_json(target.read_text())["overall"] == "pass"
    assert [p.name for p in target.parent.iterdir()] == ["target.json"]


def test_csv_is_written_into_a_fifo(tmp_path):
    # a target that is not a regular file is written in place: a FIFO stays
    # a FIFO and its reader gets the whole CSV, where a temporary file
    # renamed over it would leave the reader nothing.  The reader opens a
    # hard link of the FIFO, so that it can be released if the CSV never
    # comes.
    argv = ["trajectory", "--family", "kmu-darboux", "--t-range", "-0.01",
            "0.01", "--csv"]
    plain, fifo, link = (tmp_path / n for n in ("t.csv", "pipe.csv", "link"))
    assert run(argv + [str(plain)]) == 0
    os.mkfifo(fifo)
    os.link(fifo, link)
    got = []
    reader = threading.Thread(target=lambda: got.append(link.read_bytes()),
                              daemon=True)
    reader.start()
    assert run(argv + [str(fifo)]) == 0
    reader.join(timeout=10)
    if reader.is_alive():  # no writer opened the FIFO: release the reader
        os.close(os.open(link, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert got == [plain.read_bytes()]


class TestStrictJson:
    def test_not_applicable_residual_is_null(self, tmp_path):
        # the report keeps the not-applicable verdict; its residual is null
        report = tmp_path / "r.json"
        assert run(["verify", "--family", "kmu-chart", "--grid", "2",
                    "--identities", "H2,CONN_KMUP", "--report", str(report)]) == 0
        ids = {r["id"]: r for r in strict_json(report.read_text())["identities"]}
        assert ids["CONN_KMUP"]["verdict"] == "not-applicable"
        assert ids["CONN_KMUP"]["residual"] is None
        assert isinstance(ids["H2"]["residual"], float)

    def test_sweep_and_build_documents_are_json(self, tmp_path):
        sweep, model = tmp_path / "s.json", tmp_path / "m.json"
        assert run(["sweep", "--family", "kmu-chart", "--grid", "2",
                    "--identities", "H2,CONN_KMUP", "--mu-values", "0,1",
                    "--report", str(sweep)]) == 0
        assert [r["identities"][1]["residual"]
                for r in strict_json(sweep.read_text())["runs"]] == [None, None]
        assert run(["build", "--family", "kenmotsu", "--c", "2",
                    "--out", str(model)]) == 0
        assert strict_json(model.read_text())["params"] == {"c": 2.0}

    @pytest.mark.parametrize("model", [
        ["--family", "kenmotsu", "--c", "inf"],
        ["--family", "kenmotsu", "--c", "nan"],
        ["--family", "kmu-chart", "--box", "0,inf:0,1:-3,-2"],
        ["--family", "kmu-chart", "--box=-inf,1:0,1:-3,-2"],
    ], ids=["c-inf", "c-nan", "box-inf", "box-minus-inf"])
    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, model, command):
        # a non-finite input is bad input: no Infinity in a document, and
        # no misleading numerical message from the suite
        path = tmp_path / "out.json"
        flag = "--out" if command == "build" else "--report"
        assert run([command, *model, flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err, err
        assert not path.exists()


def _string_literals(path: Path) -> set[str]:
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_option_is_exercised():
    # an option no test and no benchmark workload passes is a knob that
    # nothing sets; --help is argparse's own
    options = set()
    for action in make_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= {o for a in sub._actions
                            if not isinstance(a, argparse._HelpAction)
                            for o in a.option_strings}
    literals = set().union(*map(_string_literals, [
        *sorted((ROOT / "tests").glob("*.py")), ROOT / "perfbench" / "workloads.py"]))
    assert "--family" in options and "--mu-values" in options
    assert not options - literals, sorted(options - literals)
