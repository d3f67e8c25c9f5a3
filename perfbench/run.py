"""Benchmark of the kenmotsu3 CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload chart-grid9 --seed 1 --seconds 24 --trace 0

Each workload is a closed loop with one client: ops run back to back with no
think time, and each op is an in-process call to ``kenmotsu3.cli.main(argv)``
with inputs drawn from the seed (see ``workloads.py``). Ops alternate between
the workload's two model families until ``--seconds`` have passed and at
least the workload's accuracy prefix has run. Every op's outputs are checked
(``checks.py``).

``--trace 0`` prints the end-to-end metrics. Each op runs in a worker process
(``worker.py``) and is paired with the same argv run by the frozen baseline
copy of the program in a second worker; set-up probes are paired the same
way. The baseline's outputs pass the same checks, and a program op that
does other work than the baseline on the same argv fails. Timings are
reported at the reference speed: the median ratio to the baseline (for
``work_per_s`` the ratio of work rates) times the baseline's figure in
``REFERENCE``. That cancels the
drift of the shared machine's speed (see README.md); the raw wall times are
printed as well.

``--trace 1`` runs the first pair of ops again and again, every other time
under the span tracer (``tracer.py``), until ``--seconds`` have passed; it
checks that every count and residual repeats exactly between traced passes,
and prints the per-layer metrics of one pair together with the tracing
overhead. ``--smoke`` shrinks every input for the benchmark's own tests.

Human-readable lines, including a diff against the previous run's results
file under ``perfbench/out/``, come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every output checked out, 1 when one
did not, and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported, here
# and in the set-up probes, which inherit the environment.
THREAD_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import results  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline"
OUT = BENCH / "out"

SETUP_SAMPLES = {"full": 5, "smoke": 1}
# ops whose verdicts and residuals enter pass_ratio and resid_digits; they
# always run, whatever --seconds is, so that both are fixed by the seed
ACCURACY_OPS = {"chart-grid9": 4, "darboux-trajectory": 12, "darboux-sweep": 4}

IDENTITY_IDS = (
    "NABLA_XI", "AK_DETA", "AK_DPHI", "KLEAVES", "CURV1", "L_ID", "CURV2",
    "CODAZZI_HP", "H2", "QXI", "NH", "NHP", "LIE1", "LIE2", "TR_HP", "TR_PHI",
    "TR_H", "GRAD", "RICCI_FORM", "NULL_KMU", "NULL_KMUP", "CONN_KMU",
    "CONN_KMUP", "FLAT_LEAF", "WEYL3", "DK_ETA", "BSQ", "PHI12")

# the baseline's medians of set-up time, op time and work rate per workload,
# measured on the reference machine: 2 vCPUs of a shared Xeon at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6 with OpenBLAS pinned to one thread
REFERENCE = {
    "chart-grid9": {"setup_s": 0.15, "op_s.p50": 2.5, "work_per_s": 6000.0},
    "darboux-trajectory": {"setup_s": 0.15, "op_s.p50": 0.9, "work_per_s": 2200.0},
    "darboux-sweep": {"setup_s": 0.15, "op_s.p50": 2.5, "work_per_s": 1500.0},
}

END_TO_END_UNITS = {
    "setup_s": "s", "op_s.p50": "s", "work_per_s": "units/s",
    "peak_rss_mb": "MB", "pass_ratio": "ratio", "resid_digits": "digits",
}

_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import kenmotsu3.cli
import workloads
workloads.make_ops({workload!r}, {seed!r}, {count!r}, {size!r})
print(repr(time.perf_counter() - t0))
"""


class CannotRun(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


@dataclass
class OpRecord:
    op: object
    seconds: float
    output_bytes: int
    outcome: object
    # the frozen baseline's time and work for the same argv
    baseline_seconds: float = 0.0
    baseline_work: int = 0


class Worker:
    """A ``worker.py`` process running ops on the kenmotsu3 in ``parent``.

    Calling it runs one argv and returns the reply of ``worker.invoke``. A
    context manager: leaving it ends the worker and waits for it.
    """

    def __init__(self, parent: Path):
        self.peak_rss_kb = 0
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(parent)], cwd=ROOT,
            text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __call__(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise CannotRun(f"worker {self.proc.args[-1]} ended early")
        reply = json.loads(line)
        self.peak_rss_kb = reply["maxrss_kb"]
        return reply


def per_layer_units() -> dict[str, str]:
    units = {
        "exprs.evals": "count", "exprs.self_s": "s",
        "fields.point_evals": "count", "fields.point_evals_per_sample": "count",
        "fields.fd_calls": "count", "fields.fd_self_s": "s",
        "fields.eval_self_s": "s",
        "geometry.christoffel_calls": "count", "geometry.christoffel_self_s": "s",
        "geometry.riemann_calls": "count", "geometry.riemann_self_s": "s",
        "structure.compute_h_calls": "count", "structure.compute_h_self_s": "s",
        "structure.eigenframe_calls": "count", "structure.eigenframe_self_s": "s",
        "identities.checks": "count", "identities.verdict_fails": "count",
    }
    units.update({f"identities.{i}.self_s": "s" for i in IDENTITY_IDS})
    units.update({
        "models.builds": "count", "models.build_self_s": "s",
        "ode.rk4_steps": "count", "ode.integrate_s": "s",
        "ode.rk4_steps_per_s": "1/s", "ode.dense_rows": "count",
        "ode.dense_self_s": "s", "ode.alg_resid_calls": "count",
        "ode.alg_resid_self_s": "s", "ode.csv_rows": "count",
        "ode.csv_self_s": "s",
        "cli.ops": "count", "cli.self_s": "s", "cli.output_bytes": "bytes",
    })
    units.update({f"resid.{i}": "norm" for i in IDENTITY_IDS})
    units.update({f"resid.alg.{n}": "norm" for n in checks.ALG_INVARIANTS})
    units.update({"trace.work_per_s": "units/s", "trace.overhead_pct": "%"})
    return units


# ---------------------------------------------------------------------------
# set-up and environment
# ---------------------------------------------------------------------------

def import_program():
    """Import kenmotsu3.cli from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "kenmotsu3" / "__init__.py").is_file():
        raise CannotRun(f"no kenmotsu3 package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kenmotsu3.cli
    if Path(kenmotsu3.__file__).resolve().parent != SRC / "kenmotsu3":
        raise CannotRun(f"kenmotsu3 imported from {kenmotsu3.__file__}")
    return kenmotsu3.cli


def setup_seconds(workload: str, seed: int, size: str):
    """Fresh-process time to import kenmotsu3 and generate the inputs.

    Probes alternate between the program and the baseline. One untimed pair
    comes first, so that compiling bytecode in a new checkout is not
    counted; then ``SETUP_SAMPLES`` timed pairs. Returns the program's and
    the baseline's times.
    """
    def probe(src: Path) -> float:
        code = _PROBE.format(src=str(src), bench=str(BENCH), workload=workload,
                             seed=seed, count=ACCURACY_OPS[workload], size=size)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CannotRun(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    pairs = [(probe(SRC), probe(BASELINE)) for _ in range(SETUP_SAMPLES[size] + 1)]
    return [p for p, _ in pairs[1:]], [b for _, b in pairs[1:]]


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "thread_pin": THREAD_PIN,
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def output_flag(op) -> str:
    return "--csv" if op.kind == "trajectory" else "--report"


def run_op(call, op, workdir: Path) -> OpRecord:
    """Time one CLI call through ``call``, then check its outputs."""
    path = workdir / ("traj.csv" if op.kind == "trajectory" else "report.json")
    path.unlink(missing_ok=True)
    reply = call([*op.argv, output_flag(op), str(path)])
    rc, stdout, problem = reply["rc"], reply["stdout"], reply["problem"]
    out_bytes = len(stdout.encode())
    if path.exists():
        out_bytes += path.stat().st_size
    if not problem:
        try:
            if op.kind == "trajectory":
                outcome = checks.check_trajectory(op, rc, stdout, path)
            elif op.kind == "sweep":
                outcome = checks.check_sweep(op, rc, path)
            else:
                outcome = checks.check_verify(op, rc, path)
        except (checks.OutputError, OSError, ValueError, KeyError, TypeError) as ex:
            problem = f"{type(ex).__name__}: {ex}; stderr: {reply['stderr'].strip()}"
    if problem:
        # an op that fails counts as one failed check
        outcome = checks.Outcome(ok=False, problem=problem, checks=1,
                                 verdict_fails=1)
    return OpRecord(op, reply["seconds"], out_bytes, outcome)


def in_process(cli, spans=None):
    """A ``call`` for ``run_op`` that runs ``cli.main`` here, traced or not.

    ``cli.main`` is looked up at each call, so that the tracer's wrapper is
    the one called while it is installed.
    """
    def call(argv):
        if spans:
            spans.recording = True
        try:
            return worker.invoke(cli.main, argv)
        finally:
            if spans:
                spans.recording = False
    return call


def run_timed(program: Worker, baseline: Worker, ops, workdir: Path,
              seconds: float, minimum: int) -> list[OpRecord]:
    """Run ops until ``seconds`` pass and ``minimum`` ops have run.

    The baseline runs each op's argv right before or right after the
    program, in turn by pair of ops, and its outputs pass the same checks.
    A program op whose work differs from the baseline's fails.
    """
    records = []
    sides = {"program": workdir / "program", "baseline": workdir / "baseline"}
    for d in sides.values():
        d.mkdir()
    start = time.perf_counter()
    while len(records) < minimum or time.perf_counter() - start < seconds:
        op = ops(len(records))
        first = (run_op(baseline, op, sides["baseline"])
                 if op.index % 4 >= 2 else None)
        record = run_op(program, op, sides["program"])
        base = first or run_op(baseline, op, sides["baseline"])
        if not base.outcome.ok:
            raise CannotRun(f"the baseline failed on {op.argv}: "
                            f"{base.outcome.problem}")
        if record.outcome.ok:
            try:
                checks.same_work(record.outcome, base.outcome)
            except checks.OutputError as ex:
                record.outcome = checks.Outcome(
                    ok=False, problem=f"against the baseline: {ex}", checks=1,
                    verdict_fails=1)
        record.baseline_seconds = base.seconds
        record.baseline_work = base.outcome.work
        records.append(record)
    return records


def rate(records) -> float:
    """Work units per second of op time."""
    return sum(r.outcome.work for r in records) / sum(r.seconds for r in records)


def baseline_rate(records) -> float:
    """The baseline's work units per second over the same ops."""
    return (sum(r.baseline_work for r in records)
            / sum(r.baseline_seconds for r in records))


def resid_digits(records) -> float:
    """Minus the mean log10 of the residuals: digits of agreement."""
    logs = [math.log10(max(r, checks.RESID_FLOOR))
            for rec in records for r in rec.outcome.residuals]
    return -statistics.fmean(logs) if logs else 0.0


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, records, accuracy_ops: int, setup,
               peak_rss_kb: int) -> dict:
    """End-to-end metrics; timings at the reference speed."""
    ref = REFERENCE[workload]
    fails, n_checks = fail_count(records[:accuracy_ops])
    values = {
        "setup_s": ref["setup_s"] * statistics.median(
            p / b for p, b in zip(*setup)),
        "op_s.p50": ref["op_s.p50"] * statistics.median(
            r.seconds / r.baseline_seconds for r in records),
        "work_per_s": ref["work_per_s"] * rate(records) / baseline_rate(records),
        "peak_rss_mb": peak_rss_kb / 1024,
        "pass_ratio": (n_checks - fails) / n_checks,
        "resid_digits": resid_digits(records[:accuracy_ops]),
    }
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def fail_count(records) -> tuple[int, int]:
    """Failed checks and attempted checks over ``records``."""
    return (sum(r.outcome.verdict_fails for r in records),
            sum(r.outcome.checks for r in records))


def timing_notes(workload: str, records, accuracy_ops: int, setup) -> list[str]:
    ratios = sorted(r.seconds / r.baseline_seconds for r in records)
    n = len(ratios)
    fails, n_checks = fail_count(records[:accuracy_ops])
    base = [r.baseline_seconds for r in records]
    lines = [f"raw wall time, program against baseline: setup_s "
             f"{statistics.median(setup[0]):.4f} s against "
             f"{statistics.median(setup[1]):.4f} s; op_s.p50 "
             f"{statistics.median(r.seconds for r in records):.4f} s against "
             f"{statistics.median(base):.4f} s; work_per_s {rate(records):.6g} "
             f"against {baseline_rate(records):.6g} units/s",
             f"ops: {n}; op time over baseline time: p50 "
             f"{statistics.median(ratios):.4f}"]
    if n >= 20:
        pct = 100.0 * (n - 10) / n
        lines.append(f"op_s.p{pct:.0f}: "
                     f"{REFERENCE[workload]['op_s.p50'] * ratios[n - 11]:.4f} s "
                     f"at the reference speed (the highest percentile with 10 of "
                     f"{n} ops beyond it)")
    else:
        lines.append(f"no tail percentile above the median: {n} ops, "
                     "fewer than 20")
    lines.append(f"fail_ratio: {fails}/{n_checks} = {fails / n_checks:.4f} "
                 f"(failed checks over attempted checks of the first "
                 f"{accuracy_ops} ops; a check fails on verdict fail or when its "
                 "op fails)")
    return lines


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def layer_metrics(spans, records) -> dict[str, float]:
    """Per-layer values of one traced pass over ``records``."""
    own, total, calls = spans.self_times(), spans.total_times(), spans.calls
    count = spans.counts

    def self_of(*names):
        return sum(own.get(n, 0.0) for n in names)

    def layer_self(layer):
        return sum(t for n, t in own.items() if n.startswith(layer + "."))

    samples = sum(r.outcome.samples for r in records)
    integrate_s = total.get("ode.integrate", 0.0)
    v = {
        "exprs.evals": calls["exprs.Expr.__call__"],
        "exprs.self_s": layer_self("exprs"),
        "fields.point_evals": count["fields.point_evals"],
        "fields.point_evals_per_sample":
            count["fields.point_evals"] / samples if samples else 0.0,
        "fields.fd_calls": calls["fields.partial_derivative"],
        "fields.fd_self_s": self_of("fields.partial_derivative",
                                    "fields.coordinate_derivatives",
                                    "fields.lie_bracket"),
        "fields.eval_self_s": self_of("fields.ArrayField.__call__"),
        "geometry.christoffel_calls": calls["geometry.christoffel"],
        "geometry.christoffel_self_s": self_of("geometry.christoffel"),
        "geometry.riemann_calls": calls["geometry.riemann"],
        "geometry.riemann_self_s": self_of("geometry.riemann"),
        "structure.compute_h_calls": calls["structure.compute_h"],
        "structure.compute_h_self_s": self_of("structure.compute_h"),
        "structure.eigenframe_calls": calls["structure.eigenframe"],
        "structure.eigenframe_self_s": self_of("structure.eigenframe"),
        "identities.checks": count["identities.checks"],
        "identities.verdict_fails": sum(r.outcome.verdict_fails for r in records),
    }
    v.update({f"identities.{i}.self_s": self_of(f"identities.{i}")
              for i in IDENTITY_IDS})
    builds = [n for n in calls if n.startswith("models.build_")]
    v.update({
        "models.builds": sum(calls[n] for n in builds),
        "models.build_self_s": self_of(*builds),
        "ode.rk4_steps": count["ode.rk4_steps"],
        "ode.integrate_s": integrate_s,
        "ode.rk4_steps_per_s":
            count["ode.rk4_steps"] / integrate_s if integrate_s else 0.0,
        "ode.dense_rows": count["ode.dense_rows"],
        "ode.dense_self_s": self_of("ode.Trajectory.dense"),
        "ode.alg_resid_calls": calls["ode.algebraic_residuals"],
        "ode.alg_resid_self_s": self_of("ode.algebraic_residuals"),
        "ode.csv_rows": count["ode.csv_rows"],
        "ode.csv_self_s": self_of("ode.trajectory_to_csv"),
        "cli.ops": calls["cli.main"],
        "cli.self_s": layer_self("cli"),
        "cli.output_bytes": sum(r.output_bytes for r in records),
    })
    worst: dict[str, float] = {}
    for r in records:
        for k, x in r.outcome.worst.items():
            worst[k] = max(x, worst.get(k, 0.0))
    v.update({f"resid.{i}": worst.get(i, 0.0) for i in IDENTITY_IDS})
    v.update({f"resid.alg.{n}": worst.get(f"alg.{n}", 0.0)
              for n in checks.ALG_INVARIANTS})
    return v


def repeatable(units: dict[str, str]) -> list[str]:
    """Metrics that must repeat exactly between traced passes."""
    return [n for n, u in units.items() if u == "count" or n.startswith("resid.")]


def run_traced(cli, ops, workdir: Path, seconds: float, workload: str):
    """Alternate traced and untraced passes over one pair of ops.

    A first untraced pass warms the process up; after it, the untraced
    passes give the rate that the tracing overhead is measured against.
    """
    units = per_layer_units()
    pair = [ops(0), ops(1)]
    plain_call = in_process(cli)
    warmup = [run_op(plain_call, op, workdir) for op in pair]
    spans = tracer.Tracer()
    plain, passes, problems = [], [], []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        spans.reset()
        spans.install()
        try:
            records = [run_op(in_process(cli, spans), op, workdir)
                       for op in pair]
        finally:
            spans.uninstall()
        passes.append((records, layer_metrics(spans, records)))
        plain += [run_op(plain_call, op, workdir) for op in pair]
    spans.write_spans(OUT / f"{workload}-spans.csv")
    first = passes[0][1]
    for _, values in passes[1:]:
        for name in repeatable(units):
            if values[name] != first[name]:
                problems.append(f"{name} did not repeat: {first[name]!r} "
                                f"then {values[name]!r}")
    values = {}
    for name, unit in units.items():
        if name in first and unit not in ("s", "1/s"):
            values[name] = first[name]
        elif name in first:
            values[name] = statistics.fmean(v[name] for _, v in passes)
    traced = [r for recs, _ in passes for r in recs]
    wps_traced = rate(traced)
    values["trace.work_per_s"] = wps_traced
    values["trace.overhead_pct"] = 100.0 * (rate(plain) / wps_traced - 1.0)
    metrics = {k: metric(values[k], units[k]) for k in units}
    notes = [f"traced passes: {len(passes)} over the same pair of ops, "
             f"each followed by an untraced pass",
             f"work_per_s untraced {rate(plain):.6g}, traced {wps_traced:.6g}: "
             f"overhead {values['trace.overhead_pct']:.2f} % of the traced rate"]
    return warmup + traced + plain, metrics, notes, problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    size = "smoke" if args.smoke else "full"
    try:
        cli = import_program()
        setup = [] if args.trace else setup_seconds(args.workload, args.seed, size)
    except (CannotRun, subprocess.SubprocessError, OSError) as ex:
        print(f"perfbench: cannot run: {ex}", file=sys.stderr)
        return 2

    def ops(i):
        return workloads.make_op(args.workload, args.seed, i, size)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            records, metrics, notes, problems = run_traced(
                cli, ops, workdir, args.seconds, args.workload)
        else:
            minimum = 2 if args.smoke else ACCURACY_OPS[args.workload]
            with Worker(SRC) as timed, Worker(BASELINE) as baseline:
                records = run_timed(timed, baseline, ops, workdir,
                                    args.seconds, minimum)
            metrics = end_to_end(args.workload, records, minimum, setup,
                                 timed.peak_rss_kb)
            notes = timing_notes(args.workload, records, minimum, setup)
            problems = []
    except CannotRun as ex:
        print(f"perfbench: cannot run: {ex}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += [f"op {r.op.index}: {r.outcome.problem}"
                 for r in records if not r.outcome.ok]

    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{'smoke' if args.smoke else 'full'} size")
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    suffix = "-smoke" if args.smoke else ""
    path = OUT / f"{args.workload}-trace{args.trace}{suffix}.json"
    previous = results.load(path)
    if previous:
        print(f"against the previous results file {path.name} "
              f"(seed {previous['seed']}):")
        for line in results.diff_lines(previous["metrics"], metrics):
            print(line)
    results.save(path, {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace,
                        "environment": env, "metrics": metrics,
                        "setup_seconds": setup,
                        "ops": [[r.op.family, r.seconds, r.baseline_seconds]
                                for r in records]})
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(not r.outcome.ok for r in records),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
