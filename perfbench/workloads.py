"""Seeded inputs for the benchmark workloads.

Each op of a workload is one ``kenmotsu3`` command line. Op ``i`` of a run
with seed ``s`` draws its inputs from its own stream, so the same seed always
gives the same argv for the same op, however many ops a run reaches. Work
size (grid, node count, number of mu values) is fixed per workload; the seed
only picks expressions, mu lists and the plan seed.

The program receives nothing but the generated argv. This module uses only
the standard library, so timing an import of it adds no numpy cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("chart-grid9", "darboux-trajectory", "darboux-sweep")

# (grid, t-range, mu count) per size; smoke sizes exist for the benchmark's
# own tests and keep every workload well under a second per op.
CHART_GRID = {"full": 9, "smoke": 3}
DARBOUX_T_RANGE = {"full": (-1.0, 1.0), "smoke": (-0.1, 0.1)}
TRAJECTORY_STEP = 1e-3
SWEEP_GRID = 3
SWEEP_MU_COUNT = {"full": 6, "smoke": 2}
# trajectory ops draw the mean of mu(t) from one of these strata in turn,
# so a prefix of 2 * STRATA ops covers [0, 0.8] evenly for both families
TRAJECTORY_STRATA = 6


@dataclass(frozen=True)
class Op:
    """One CLI invocation, without its output path (the runner adds it)."""

    index: int
    kind: str            # "verify" | "trajectory" | "sweep"
    family: str
    argv: tuple[str, ...]
    # fixed shape facts the output check compares against
    grid: int = 0
    mu_count: int = 0
    t_range: tuple[float, float] = (0.0, 0.0)
    step: float = 0.0


def _num(x: float) -> str:
    """Coefficient text the expression parser reads back exactly."""
    return f"({x!r})"


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"kenmotsu3-bench:{seed}:{index}")


def _chart_op(rng: random.Random, index: int, size: str) -> Op:
    # mu(z) = a + b z + c sin(w z) with |a| <= 0.5, |b| <= 0.3, |c| <= 0.3
    # keeps mu + 2 >= 0.3 on the default box z in [-3, -1.5]
    a, b = rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)
    c, w = rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.0)
    mu = f"{_num(a)} + {_num(b)}*z + {_num(c)}*sin({_num(w)}*z)"
    f = f"{_num(rng.uniform(-0.5, 0.5))}*cos({_num(rng.uniform(0.5, 2.0))}*z)"
    r = f"{_num(rng.uniform(-0.2, 0.2))}*z^2 + {_num(rng.uniform(-1.0, 1.0))}"
    family = ("kmu-chart", "kmup-chart")[index % 2]
    grid = CHART_GRID[size]
    argv = ("verify", "--family", family, "--mu", mu, "--f", f, "--r", r,
            "--identities", "all", "--grid", str(grid), "--rand-pairs", "4",
            "--seed", str(rng.randrange(1 << 30)))
    return Op(index, "verify", family, argv, grid=grid)


def _trajectory_op(rng: random.Random, index: int, size: str) -> Op:
    # mu(t) stays within [-0.2, 1.0]: the kmup invariants lose about four
    # digits over that range at the backward end, and far more above it
    stratum = (index // 2) % TRAJECTORY_STRATA
    a = 0.8 * (stratum + rng.random()) / TRAJECTORY_STRATA
    b, w = rng.uniform(0.0, 0.2), rng.uniform(0.5, 3.0)
    mu = f"{_num(a)} + {_num(b)}*sin({_num(w)}*t)"
    family = ("kmu-darboux", "kmup-darboux")[index % 2]
    t0, t1 = DARBOUX_T_RANGE[size]
    argv = ("trajectory", "--family", family, "--mu", mu,
            "--t-range", repr(t0), repr(t1), "--step", repr(TRAJECTORY_STEP))
    return Op(index, "trajectory", family, argv, t_range=(t0, t1),
              step=TRAJECTORY_STEP)


def _sweep_op(rng: random.Random, index: int, size: str) -> Op:
    # one constant mu per equal stratum of [0, 1]: the top stratum, where the
    # kmup-darboux residuals grow fastest, is in every op
    n = SWEEP_MU_COUNT[size]
    mus = [(k + rng.random()) / n for k in range(n)]
    family = ("kmu-darboux", "kmup-darboux")[index % 2]
    t0, t1 = DARBOUX_T_RANGE[size]
    argv = ("sweep", "--family", family,
            "--mu-values", ",".join(repr(m) for m in mus),
            "--t-range", repr(t0), repr(t1),
            "--grid", str(SWEEP_GRID), "--identities", "all",
            "--seed", str(rng.randrange(1 << 30)))
    return Op(index, "sweep", family, argv, grid=SWEEP_GRID, mu_count=n)


_BUILDERS = {
    "chart-grid9": _chart_op,
    "darboux-trajectory": _trajectory_op,
    "darboux-sweep": _sweep_op,
}


def make_op(workload: str, seed: int, index: int, size: str = "full") -> Op:
    """The argv of op ``index`` of ``workload`` under ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    if size not in CHART_GRID:
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[workload](_rng(seed, index), index, size)


def make_ops(workload: str, seed: int, count: int, size: str = "full") -> list[Op]:
    return [make_op(workload, seed, i, size) for i in range(count)]
