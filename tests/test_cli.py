"""End-to-end CLI: subcommands, exit codes, reports, determinism."""

import csv
import json
import re

from kenmotsu3.cli import main


def run(args):
    return main(args)


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
        # an empty identity list would check nothing and pass
        for ids in (",", ""):
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
        # a bad sample plan is named by its field, not by a numpy error
        for flag, value, field in (("--grid", "0", "grid"),
                                   ("--rand-pairs", "-1", "rand_pairs"),
                                   ("--seed", "-1", "seed")):
            capsys.readouterr()
            assert run(["verify", "--family", "kenmotsu",
                        "--identities", "NABLA_XI", flag, value]) == 2
            err = capsys.readouterr().err
            assert f"sample plan {field} must be >= " in err, err

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

    def test_different_seed_changes_random_dependent_residuals(self, tmp_path):
        residuals = []
        for seed in ("3", "4"):
            p = tmp_path / f"s{seed}.json"
            run(["verify", "--family", "kmu-chart", "--grid", "2",
                 "--seed", seed, "--identities", "NULL_KMU",
                 "--report", str(p)])
            residuals.append(json.loads(p.read_text())["identities"][0]["residual"])
        assert residuals[0] != residuals[1]


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

    def test_bad_values(self, capsys):
        assert run(["sweep", "--family", "kmu-chart",
                    "--mu-values", "a,b"]) == 2
        # non-finite values are rejected before any mu is integrated
        for values in ("1,nan", "inf", "0,-inf"):
            assert run(["sweep", "--family", "kmu-chart", "--grid", "2",
                        "--identities", "H2", "--mu-values", values]) == 2
            assert capsys.readouterr().out == "", values
