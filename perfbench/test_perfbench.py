"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They use the ``--smoke`` sizes, so the whole file runs in well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_inputs_follow_the_seed_and_work_size_does_not(workload):
    a = workloads.make_ops(workload, 3, 4)
    assert a == workloads.make_ops(workload, 3, 4)
    b = workloads.make_ops(workload, 4, 4)
    assert [o.argv for o in a] != [o.argv for o in b]
    shape = [(o.kind, o.family, o.grid, o.mu_count, o.t_range, o.step) for o in a]
    assert shape == [(o.kind, o.family, o.grid, o.mu_count, o.t_range, o.step)
                     for o in b]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "0",
                          "--trace", "0", "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_smoke_run_prints_every_per_layer_metric():
    out = result_of(bench("--workload", "darboux-sweep", "--seed", "5",
                          "--seconds", "0", "--trace", "1", "--smoke"))
    assert out["correct"] and out["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    m = {k: v["value"] for k, v in out["metrics"].items()}
    # 27-point suites: a sweep op of 2 mu values checks 2 x 27 points
    assert m["fields.point_evals_per_sample"] == m["fields.point_evals"] / (2 * 2 * 27)
    assert m["cli.ops"] == 2 and m["models.builds"] == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "chart-grid9", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    t.spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
               ("b", 5.0, 6.0, 0)]
    assert t.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert t.total_times() == {"a": 10.0, "b": 4.0, "c": 1.0}


def test_tracer_wraps_every_import_site_and_restores_them():
    import kenmotsu3.cli
    import kenmotsu3.models
    import kenmotsu3.ode
    original = kenmotsu3.ode.integrate
    t = tracer.Tracer()
    t.install()
    try:
        assert kenmotsu3.ode.integrate is not original
        assert kenmotsu3.cli.integrate is kenmotsu3.ode.integrate
        assert kenmotsu3.models.integrate is kenmotsu3.ode.integrate
    finally:
        t.uninstall()
    assert kenmotsu3.cli.integrate is original is kenmotsu3.models.integrate


def test_trajectory_check_catches_a_corrupted_csv(tmp_path):
    from kenmotsu3.cli import main
    op = workloads.make_op("darboux-trajectory", 2, 1, "smoke")
    csv_path = tmp_path / "t.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([*op.argv, "--csv", str(csv_path)])
    text = stdout.getvalue()
    out = checks.check_trajectory(op, rc, text, csv_path)
    assert out.checks == 1 and out.work == 201
    assert set(out.worst) == {f"alg.{n}" for n in checks.ALG_INVARIANTS}
    lines = csv_path.read_text().splitlines()
    row = lines[50].split(",")
    row[2] = repr(float(row[2]) * (1 + 1e-6))
    lines[50] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.OutputError):
        checks.check_trajectory(op, rc, text, csv_path)
    csv_path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(checks.OutputError):
        checks.check_trajectory(op, rc, text, csv_path)


def test_work_must_match_the_baseline():
    base = checks.Outcome(checks=2, work=54, samples=27,
                          worst={"CURV2": 1e-9, "WEYL3": 1e-9})
    checks.same_work(checks.Outcome(checks=2, work=54, samples=27,
                                    worst={"CURV2": 1e-8, "WEYL3": 1e-7}), base)
    with pytest.raises(checks.OutputError):
        checks.same_work(checks.Outcome(checks=1, work=27, samples=27,
                                        worst={"CURV2": 1e-9}), base)
    with pytest.raises(checks.OutputError):
        checks.same_work(checks.Outcome(checks=2, work=16, samples=8,
                                        worst=dict(base.worst)), base)


def test_invariants_vanish_on_the_initial_states():
    # t, f, h, b, lambda, k, maxAlgResidual, detG at t = 0 for each variant
    kmu = np.array([[0, 0, 1, 0, 0, 0, -1, -1, 0, 0, 1, -2, 0, 1]], float)
    kmup = kmu.copy()
    kmup[0, 7] = 1.0
    for rows, variant in ((kmu, "kmu"), (kmup, "kmup")):
        inv = checks.algebraic_invariants(rows, variant)
        assert all(v[0] == 0.0 for v in inv.values()), (variant, inv)
