"""Command-line entry point.

Subcommands:

  build       construct a model and write its JSON document
  verify      run an identity suite over a sample plan, write a JSON report
  trajectory  integrate the matrix ODE and export the nodes as CSV
  sweep       repeat verify over a grid of constant mu values, aggregating
              the worst residual per identity

Exit status: 0 when every requested verification passes (not-applicable
identities do not fail a run), 1 on verification failure, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from datetime import datetime, timezone

from .exprs import ExprDomainError, ExprSyntaxError
from .identities import SamplePlan, check_suites, worst_of
from .models import (
    DEFAULT_BOX,
    DarbouxParams,
    model_from_params,
    model_to_json,
    parse_box,
)
from .ode import ConsistencyError, integrate, trajectory_to_csv
from .structure import FAMILIES

# the CLI's family names: the baseline's name drops its "-baseline" suffix
FAMILY_NAMES = {f.removesuffix("-baseline"): f for f in FAMILIES}

# the model flags with no default, and the families that read each
_FLAG_READERS = {"mu": set(FAMILIES) - {"kenmotsu-baseline"},
                 "f": {"kmu-chart", "kmup-chart"}, "r": {"kmu-chart", "kmup-chart"}}


class UsageError(ValueError):
    """Configuration problem reported with exit status 2."""


@contextmanager
def _replacing(path: str):
    """A text file in place of ``path``'s target, symlinks resolved: written
    beside it with a new file's mode (0o666 less the umask), renamed over it
    once whole, removed if the writing fails; or, where the target is not a
    regular file (a FIFO, a device), written in place."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", newline="") as fh:
            yield fh
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            umask = os.umask(0o22)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def build_model(args):
    """The model of ``args``; ``model_from_params`` reads its family's flags
    (one of ``_FLAG_READERS`` that the family does not read is an error)."""
    family = FAMILY_NAMES[args.family]
    for name, readers in _FLAG_READERS.items():
        if getattr(args, name) is not None and family not in readers:
            raise UsageError(f"--{name} is not read by the {args.family} family")
    box = parse_box(args.box) if args.box else DEFAULT_BOX
    return model_from_params(family, {
        "c": args.c, "mu": args.mu, "f": args.f, "r": args.r, "box": box,
        "t_range": args.t_range, "step": args.step, "xy_box": box[:2]})


def _parse_tols(items) -> dict[str, float]:
    """The ``--tol ID=VALUE`` overrides; ``check_suites`` judges them."""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"--tol expects ID=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            out[name] = float(value)
        except ValueError:
            raise UsageError(f"--tol {name} expects a number, got {value!r}") from None
    return out


def _parse_identities(text: str) -> list[str] | str:
    """The ``--identities`` list; ``check_suites`` judges it."""
    return "all" if text == "all" else [s.strip() for s in text.split(",") if s.strip()]


def _count(text: str) -> int:
    """A non-negative integer option (argparse names the option on error)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expects an integer >= 0, got {text!r}")
    return int(text)


def _run_suites(args, models):
    """Each of ``models``' reports and verdict from the suite of ``args``,
    run as one batch; not-applicable identities do not fail a run."""
    plan = SamplePlan(grid=args.grid, box=parse_box(args.box) if args.box else None)
    suites = check_suites(models, _parse_identities(args.identities), plan,
                          tolerances=_parse_tols(args.tol))
    return [(r, "pass" if all(x.verdict in ("pass", "not-applicable") for x in r)
             else "fail") for r in suites]


def _plan_document(args) -> dict:
    """The ``plan`` block of the verify and sweep reports.  ``--rand-pairs``
    and ``--seed`` select nothing, as no identity reads a random vector;
    they are echoed here because the benchmark's workloads pass both."""
    return {"grid": args.grid, "randomPairs": args.random_pairs, "seed": args.seed}


def _verification_document(model, args, reports, overall):
    return {
        "model": {
            "family": model.family,
            "params": model.params,
            "box": [list(iv) for iv in model.default_box],
        },
        "plan": _plan_document(args),
        "identities": [r.as_dict() for r in reports],
        "overall": overall,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _print_reports(reports) -> None:
    for r in reports:
        if r.verdict == "not-applicable":
            print(f"{r.id:11s} not-applicable")
        else:
            print(f"{r.id:11s} {r.verdict:4s}  residual {r.residual:.6e}"
                  f"  tol {r.tolerance:g} ({r.profile})")


def _write_json(path: str, doc: dict) -> None:
    with _replacing(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def cmd_build(args) -> int:
    model = build_model(args)
    model.at(SamplePlan(grid=2).points(model))  # fails where a suite would
    _write_json(args.out, model_to_json(model))
    print(f"wrote {args.out} ({model.family})")
    return 0


def cmd_verify(args) -> int:
    model = build_model(args)
    [(reports, overall)] = _run_suites(args, [model])
    _print_reports(reports)
    if args.report:
        _write_json(args.report, _verification_document(model, args, reports, overall))
        print(f"report: {args.report}")
    print(f"overall: {overall}")
    return 0 if overall == "pass" else 1


def cmd_trajectory(args) -> int:
    variant = args.family.split("-")[0]
    mu_bar = DarbouxParams(variant, args.mu).resolved()
    traj = integrate(variant, mu_bar, args.t_range, args.step)
    with _replacing(args.csv) as fh:
        worst = trajectory_to_csv(traj, fh)
    print(f"wrote {args.csv}: {len(traj.times)} nodes, "
          f"max algebraic residual {worst:.6e}")
    return 0


def cmd_sweep(args) -> int:
    if FAMILY_NAMES[args.family] == "kenmotsu-baseline":
        raise UsageError("the kenmotsu baseline has no mu to sweep")
    if args.mu is not None:
        raise UsageError("--mu is not read by sweep: each mu comes from --mu-values")
    try:
        mu_values = [float(s) for s in args.mu_values.split(",") if s.strip()]
    except ValueError as ex:
        raise UsageError(f"bad --mu-values: {ex}") from None
    if not mu_values:
        raise UsageError("--mu-values must list at least one number")
    if not all(map(math.isfinite, mu_values)):
        raise UsageError(f"bad --mu-values: {args.mu_values!r} lists a "
                         f"non-finite value")
    models = (build_model(argparse.Namespace(**{**vars(args), "mu": repr(mu)}))
              for mu in mu_values)  # each built when the batch reaches it
    runs_of, runs, overall = {}, [], "pass"
    for mu, (reports, sub_overall) in zip(mu_values, _run_suites(args, models)):
        overall = overall if sub_overall == "pass" else "fail"
        runs.append({"mu": mu, "overall": sub_overall,
                     "identities": [r.as_dict() for r in reports]})
        for r in reports:
            if r.verdict != "not-applicable":
                runs_of.setdefault(r.id, []).append((r.residual, mu, r))
        print(f"mu={mu:g}: {sub_overall}")
    worst = {}
    for ident in sorted(runs_of):
        _, mu, r = worst_of(runs_of[ident])  # a NaN residual is the worst
        worst[ident] = {"residual": r.as_dict()["residual"], "mu": mu,
                        "tolerance": r.tolerance, "verdict": r.verdict}
    doc = {
        "family": args.family,
        "muValues": mu_values,
        "plan": _plan_document(args),
        "worstPerIdentity": worst,
        "runs": runs,
        "overall": overall,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if args.report:
        _write_json(args.report, doc)
        print(f"report: {args.report}")
    print(f"overall: {overall}")
    return 0 if overall == "pass" else 1


def _add_model_flags(sub):
    sub.add_argument("--family", required=True, choices=list(FAMILY_NAMES))
    sub.add_argument("--mu", default=None,
                     help="expression in z (chart) or t (darboux)")
    sub.add_argument("--f", default=None, help="expression in z")
    sub.add_argument("--r", default=None, help="expression in z")
    sub.add_argument("--c", type=float, default=1.0,
                     help="warping constant of the kenmotsu baseline")
    sub.add_argument("--box", default=None,
                     help="sample box 'x0,x1:y0,y1:z0,z1'")
    sub.add_argument("--t-range", nargs=2, type=float, default=[-1.0, 1.0],
                     metavar=("T0", "T1"))
    sub.add_argument("--step", type=float, default=1e-3,
                     help="ODE integration step (darboux families)")


def _add_plan_flags(sub):
    sub.add_argument("--grid", type=int, default=5)
    sub.add_argument("--rand-pairs", type=_count, default=4,
                     dest="random_pairs", metavar="RAND_PAIRS")
    sub.add_argument("--seed", type=_count, default=0)
    sub.add_argument("--identities", default="all",
                     help="comma-separated identity ids, or 'all'")
    sub.add_argument("--tol", action="append", metavar="ID=VALUE",
                     help="per-identity tolerance override (repeatable)")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The one parser of a process: each subcommand ``name`` runs
    ``cmd_name``, looked up when it runs, so that a wrapper of it runs."""
    parser = argparse.ArgumentParser(
        prog="kenmotsu3",
        description=(
            "Build local models of 3-dimensional almost Kenmotsu nullity "
            "structures and verify their identities numerically."))
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="construct a model, write model JSON")
    _add_model_flags(b)
    b.add_argument("--out", required=True, help="output JSON path")

    v = subs.add_parser("verify", help="run an identity suite")
    _add_model_flags(v)
    _add_plan_flags(v)
    v.add_argument("--report", default=None, help="JSON report path")

    t = subs.add_parser("trajectory", help="integrate the matrix ODE, write CSV")
    t.add_argument("--family", required=True,
                   choices=[f for f in FAMILIES if f.endswith("-darboux")])
    t.add_argument("--mu", default=None, help="expression in t")
    t.add_argument("--t-range", nargs=2, type=float, default=[-1.0, 1.0],
                   metavar=("T0", "T1"))
    t.add_argument("--step", type=float, default=1e-3)
    t.add_argument("--csv", required=True, help="output CSV path")

    s = subs.add_parser("sweep", help="verify over a grid of constant mu values")
    _add_model_flags(s)
    _add_plan_flags(s)
    s.add_argument("--mu-values", required=True,
                   help="comma-separated constant mu values")
    s.add_argument("--report", default=None, help="JSON report path")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, ExprSyntaxError, ExprDomainError, ValueError,
            OSError) as ex:  # OSError: an output path that cannot be written
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except ConsistencyError as ex:
        print(f"fatal consistency error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
