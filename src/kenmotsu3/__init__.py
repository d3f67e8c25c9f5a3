"""Local models of 3-dimensional almost Kenmotsu nullity structures.

The package builds the explicit chart and Darboux-like model families of
generalized (k,mu) and (k,mu)' almost Kenmotsu 3-manifolds and certifies
their structure equations, connection and curvature identities, and matrix
ODE invariants numerically, with per-identity residual reports.
"""

from .exprs import Expr, parse_expr
from .fields import ChartDomain
from .identities import (
    IDENTITIES,
    SamplePlan,
    check_identity,
    check_suite,
    infer_k_mu,
)
from .models import (
    DarbouxParams,
    KmuChartParams,
    KmupChartParams,
    build_darboux_model,
    build_kenmotsu_baseline,
    build_kmu_chart_model,
    build_kmu_prime_chart_model,
    model_from_json,
    model_to_json,
)
from .structure import AlmostContactModel

__version__ = "0.1.0"

__all__ = [
    "Expr", "parse_expr",
    "ChartDomain",
    "SamplePlan", "IDENTITIES", "check_identity", "check_suite",
    "infer_k_mu",
    "KmuChartParams", "KmupChartParams", "DarbouxParams",
    "build_kmu_chart_model", "build_kmu_prime_chart_model",
    "build_darboux_model", "build_kenmotsu_baseline",
    "model_to_json", "model_from_json",
    "AlmostContactModel",
    "__version__",
]
