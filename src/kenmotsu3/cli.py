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
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

from .exprs import ExprDomainError, ExprSyntaxError
from .identities import (
    IDENTITIES,
    PROFILES,
    SamplePlan,
    check_suite,
)
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


class UsageError(ValueError):
    """Configuration problem reported with exit status 2."""


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_model(args):
    """The model of ``args``; ``model_from_params`` reads its family's flags."""
    box = parse_box(args.box) if args.box else DEFAULT_BOX
    return model_from_params(FAMILY_NAMES[args.family], {
        "c": args.c, "mu": args.mu, "f": args.f, "r": args.r, "box": box,
        "t_range": args.t_range, "step": args.step, "xy_box": box[:2]})


def _parse_tols(items) -> dict[str, float]:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"--tol expects ID=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        if name not in IDENTITIES:
            raise UsageError(f"unknown identity in --tol: {name!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise UsageError(f"--tol {name} expects a number, got {value!r}") from None
        if not (math.isfinite(out[name]) and out[name] >= 0):
            raise UsageError(f"--tol {name} must be finite and >= 0, got {value!r}")
    return out


def _parse_identities(text: str) -> list[str] | str:
    if text == "all":
        return "all"
    ids = [s.strip() for s in text.split(",") if s.strip()]
    if not ids:
        raise UsageError(f"--identities names no identity: {text!r}")
    for name in ids:
        if name not in IDENTITIES:
            raise UsageError(f"unknown identity {name!r}")
    return ids


def _run_suite(args):
    """Build the model of ``args`` and run its identity suite.

    Returns the model, the reports and the overall verdict; not-applicable
    identities do not fail a run.
    """
    model = build_model(args)
    plan = SamplePlan(grid=args.grid, rand_pairs=args.rand_pairs,
                      seed=args.seed,
                      box=parse_box(args.box) if args.box else None)
    reports = check_suite(model, _parse_identities(args.identities), plan,
                          tolerances=_parse_tols(args.tol),
                          profile=args.tol_profile)
    passed = all(r.verdict in ("pass", "not-applicable") for r in reports)
    return model, reports, "pass" if passed else "fail"


def _verification_document(model, args, reports, overall):
    return {
        "model": {
            "family": model.family,
            "params": model.params,
            "box": [list(iv) for iv in model.default_box],
        },
        "plan": {
            "grid": args.grid,
            "randomPairs": args.rand_pairs,
            "seed": args.seed,
        },
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


def cmd_build(args) -> int:
    model = build_model(args)
    doc = model_to_json(model)
    _atomic_write(args.out, json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out} ({model.family})")
    return 0


def cmd_verify(args) -> int:
    model, reports, overall = _run_suite(args)
    _print_reports(reports)
    doc = _verification_document(model, args, reports, overall)
    if args.report:
        _atomic_write(args.report, json.dumps(doc, indent=2) + "\n")
        print(f"report: {args.report}")
    print(f"overall: {overall}")
    return 0 if overall == "pass" else 1


def cmd_trajectory(args) -> int:
    variant = args.family.split("-")[0]
    mu_bar = DarbouxParams(variant, args.mu).resolved()
    traj = integrate(variant, mu_bar, args.t_range, args.step)
    worst = trajectory_to_csv(traj, args.csv)
    print(f"wrote {args.csv}: {len(traj.times)} nodes, "
          f"max algebraic residual {worst:.6e}")
    return 0


def cmd_sweep(args) -> int:
    try:
        mu_values = [float(s) for s in args.mu_values.split(",") if s.strip()]
    except ValueError as ex:
        raise UsageError(f"bad --mu-values: {ex}") from None
    if not mu_values:
        raise UsageError("--mu-values must list at least one number")
    if not all(map(math.isfinite, mu_values)):
        raise UsageError(f"bad --mu-values: {args.mu_values!r} lists a "
                         f"non-finite value")
    worst: dict[str, dict] = {}
    runs = []
    overall = "pass"
    for mu in mu_values:
        args.mu = repr(mu)
        _, reports, sub_overall = _run_suite(args)
        overall = overall if sub_overall == "pass" else "fail"
        runs.append({"mu": mu, "overall": sub_overall,
                     "identities": [r.as_dict() for r in reports]})
        for r in reports:
            if r.verdict == "not-applicable":
                continue
            slot = worst.setdefault(r.id, {"residual": -1.0, "mu": None})
            if r.residual > slot["residual"]:
                worst[r.id] = {"residual": r.residual, "mu": mu,
                               "tolerance": r.tolerance, "verdict": r.verdict}
        print(f"mu={mu:g}: {sub_overall}")
    doc = {
        "family": args.family,
        "muValues": mu_values,
        "plan": {"grid": args.grid, "randomPairs": args.rand_pairs,
                 "seed": args.seed},
        "worstPerIdentity": {k: worst[k] for k in sorted(worst)},
        "runs": runs,
        "overall": overall,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if args.report:
        _atomic_write(args.report, json.dumps(doc, indent=2) + "\n")
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
    sub.add_argument("--rand-pairs", type=int, default=4)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--identities", default="all",
                     help="comma-separated identity ids, or 'all'")
    sub.add_argument("--tol-profile", choices=sorted(PROFILES), default=None,
                     help="force one tolerance profile for every identity")
    sub.add_argument("--tol", action="append", metavar="ID=VALUE",
                     help="per-identity tolerance override (repeatable)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kenmotsu3",
        description=(
            "Build local models of 3-dimensional almost Kenmotsu nullity "
            "structures and verify their identities numerically."))
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="construct a model, write model JSON")
    _add_model_flags(b)
    b.add_argument("--out", required=True, help="output JSON path")
    b.set_defaults(fn=cmd_build)

    v = subs.add_parser("verify", help="run an identity suite")
    _add_model_flags(v)
    _add_plan_flags(v)
    v.add_argument("--report", default=None, help="JSON report path")
    v.set_defaults(fn=cmd_verify)

    t = subs.add_parser("trajectory", help="integrate the matrix ODE, write CSV")
    t.add_argument("--family", required=True,
                   choices=[f for f in FAMILIES if f.endswith("-darboux")])
    t.add_argument("--mu", default=None, help="expression in t")
    t.add_argument("--t-range", nargs=2, type=float, default=[-1.0, 1.0],
                   metavar=("T0", "T1"))
    t.add_argument("--step", type=float, default=1e-3)
    t.add_argument("--csv", required=True, help="output CSV path")
    t.set_defaults(fn=cmd_trajectory)

    s = subs.add_parser("sweep", help="verify over a grid of constant mu values")
    _add_model_flags(s)
    _add_plan_flags(s)
    s.add_argument("--mu-values", required=True,
                   help="comma-separated constant mu values")
    s.add_argument("--report", default=None, help="JSON report path")
    s.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        return args.fn(args)
    except (UsageError, ExprSyntaxError, ExprDomainError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except ConsistencyError as ex:
        print(f"fatal consistency error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
