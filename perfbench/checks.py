"""Output checks for one benchmark op.

Every op's outputs are read back and checked independently of the program:

- the exit code is 0 or 1, never 2, and agrees with the report's ``overall``;
- a verdict agrees with its residual and tolerance, and every applicable
  residual is finite;
- the trajectory CSV has the 14 documented columns and
  ``round((t1 - t0) / step) + 1`` finite rows, and the ten algebraic
  invariants recomputed here from its state columns agree with its
  ``maxAlgResidual`` column;
- the op checks the same identities and does the same work as the frozen
  baseline on the same argv (``same_work``).

An :class:`Outcome` also carries what the metrics need: identity checks and
verdict failures, work units, sample points and the residuals themselves.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

CSV_COLUMNS = ["t", "f1", "f2", "f3", "h1", "h2", "h3", "b1", "b2", "b3",
               "lambda", "k", "maxAlgResidual", "detG"]
ALG_INVARIANTS = ("F2", "H2", "B2", "anti_HF", "anti_BF", "anti_BH",
                  "prod_BH", "prod_BF", "prod_FH", "detG")
# residuals of exactly 0 enter the log10 mean at this floor
RESID_FLOOR = 1e-20

_M1 = np.array([[1.0, 0.0], [0.0, -1.0]])
_M2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_M3 = np.array([[0.0, 1.0], [1.0, 0.0]])
_EPS = np.finfo(float).eps
_TRAJ_LINE = re.compile(
    r"wrote .*: (\d+) nodes, max algebraic residual (\S+)$", re.M)


class OutputError(Exception):
    """An op's outputs contradict each other or the documented format."""


@dataclass
class Outcome:
    ok: bool = True
    problem: str = ""
    checks: int = 0          # identity checks, or 1 per trajectory op
    verdict_fails: int = 0
    work: int = 0            # sample point x identity checks, or ODE nodes
    samples: int = 0         # sample points over every suite of the op
    # worst residual per identity id, or per "alg.<invariant>"
    worst: dict[str, float] = field(default_factory=dict)
    # every residual entering resid_digits
    residuals: list[float] = field(default_factory=list)


def _suite(identities: list[dict], grid: int, out: Outcome) -> str:
    """Check one suite's identity entries; return its overall verdict."""
    applicable = [d for d in identities if d["verdict"] != "not-applicable"]
    if not applicable:
        raise OutputError("no applicable identity in a suite")
    for d in applicable:
        r, tol = d["residual"], d["tolerance"]
        if not math.isfinite(r):
            raise OutputError(f"{d['id']}: non-finite residual {r!r}")
        if d["verdict"] != ("pass" if r <= tol else "fail"):
            raise OutputError(f"{d['id']}: verdict {d['verdict']} for "
                              f"residual {r!r} against tolerance {tol!r}")
        if d["samples"] != grid ** 3:
            raise OutputError(f"{d['id']}: {d['samples']} samples, "
                              f"expected {grid ** 3}")
        out.checks += 1
        out.verdict_fails += d["verdict"] == "fail"
        out.work += d["samples"]
        out.residuals.append(r)
        out.worst[d["id"]] = max(r, out.worst.get(d["id"], 0.0))
    out.samples += grid ** 3
    return "pass" if all(d["verdict"] == "pass" for d in applicable) else "fail"


def _exit_code(rc: int, overall: str) -> None:
    if rc not in (0, 1):
        raise OutputError(f"exit code {rc}")
    if rc != (0 if overall == "pass" else 1):
        raise OutputError(f"exit code {rc} with overall {overall!r}")


def check_verify(op, rc: int, report_path) -> Outcome:
    with open(report_path) as fh:
        doc = json.load(fh)
    out = Outcome()
    overall = _suite(doc["identities"], op.grid, out)
    if doc["overall"] != overall:
        raise OutputError(f"overall {doc['overall']!r}, identities say {overall!r}")
    _exit_code(rc, overall)
    return out


def check_sweep(op, rc: int, report_path) -> Outcome:
    with open(report_path) as fh:
        doc = json.load(fh)
    if len(doc["runs"]) != op.mu_count:
        raise OutputError(f"{len(doc['runs'])} runs for {op.mu_count} mu values")
    out = Outcome()
    overall = "pass"
    for run in doc["runs"]:
        sub = _suite(run["identities"], op.grid, out)
        if run["overall"] != sub:
            raise OutputError(f"mu={run['mu']}: overall {run['overall']!r}")
        overall = overall if sub == "pass" else "fail"
    for ident, worst in doc["worstPerIdentity"].items():
        if worst["residual"] != out.worst.get(ident):
            raise OutputError(f"{ident}: worst residual {worst['residual']!r} "
                              f"is not the maximum over the runs")
    if doc["overall"] != overall:
        raise OutputError(f"overall {doc['overall']!r}, runs say {overall!r}")
    _exit_code(rc, overall)
    return out


def same_work(mine: Outcome, base: Outcome) -> None:
    """Raise unless ``mine`` checked what ``base`` checked, unit for unit.

    Dropping an identity, a sample point or a node would otherwise read as a
    speed-up.
    """
    if sorted(mine.worst) != sorted(base.worst):
        raise OutputError(f"checked {sorted(mine.worst)}, the baseline "
                          f"{sorted(base.worst)}")
    size = (mine.work, mine.checks, mine.samples)
    if size != (base.work, base.checks, base.samples):
        raise OutputError("work units, checks and sample points %s, the "
                          "baseline %s" % (size, (base.work, base.checks,
                                                  base.samples)))


def _as_matrices(c: np.ndarray) -> np.ndarray:
    return (c[:, 0, None, None] * _M1 + c[:, 1, None, None] * _M2
            + c[:, 2, None, None] * _M3)


def algebraic_invariants(rows: np.ndarray, variant: str) -> dict[str, np.ndarray]:
    """Per-node residuals of the ten relations, from the CSV state columns."""
    F, H, B = (_as_matrices(rows[:, i:i + 3]) for i in (1, 4, 7))
    lam2 = (rows[:, 10] ** 2)[:, None, None]
    eye = np.eye(2)
    sign = 1.0 if variant == "kmu" else -1.0
    res = {
        "F2": F @ F + eye,
        "H2": H @ H - lam2 * eye,
        "B2": B @ B - lam2 * eye,
        "anti_HF": H @ F + F @ H,
        "anti_BF": B @ F + F @ B,
        "anti_BH": B @ H + H @ B,
        "prod_BH": B @ H - sign * lam2 * F,
        "prod_BF": B @ F - sign * H,
        "prod_FH": (F @ H if variant == "kmu" else H @ F) - B,
    }
    out = {k: np.max(np.abs(v), axis=(1, 2)) for k, v in res.items()}
    out["detG"] = np.abs(rows[:, 13] - 1.0)
    return out


def check_trajectory(op, rc: int, stdout: str, csv_path) -> Outcome:
    if rc != 0:
        raise OutputError(f"exit code {rc}")
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        if header != CSV_COLUMNS:
            raise OutputError(f"CSV header {header}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    t0, t1 = op.t_range
    n = round((t1 - t0) / op.step) + 1
    if rows.shape != (n, len(CSV_COLUMNS)):
        raise OutputError(f"CSV shape {rows.shape}, expected ({n}, 14)")
    if not np.isfinite(rows).all():
        raise OutputError("non-finite value in the CSV")
    inv = algebraic_invariants(rows, op.family.split("-")[0])
    mine = np.max(np.stack(list(inv.values())), axis=0)
    # agreement up to rounding of the 2x2 products, which scale with |state|^2
    scale = np.maximum(1.0, np.max(np.abs(rows[:, 1:11]), axis=1)) ** 2
    if np.any(np.abs(mine - rows[:, 12]) > 1e-9 * rows[:, 12] + 64 * _EPS * scale):
        raise OutputError("maxAlgResidual column disagrees with the state columns")
    m = _TRAJ_LINE.search(stdout)
    if m is None or int(m.group(1)) != n:
        raise OutputError(f"summary line missing or wrong: {stdout!r}")
    if not math.isclose(float(m.group(2)), rows[:, 12].max(), rel_tol=1e-5):
        raise OutputError("printed max algebraic residual is not the CSV maximum")
    out = Outcome(checks=1, work=n)
    out.worst = {f"alg.{k}": float(v.max()) for k, v in inv.items()}
    out.residuals = list(out.worst.values())
    return out
