"""Source guards: contraction forms and exports that must not come back."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kenmotsu3"


def _einsum_offences(source: str, filename: str = "<string>") -> list[str]:
    """einsum calls with four or more operands or an ``optimize=`` keyword.

    numpy evaluates a multi-operand einsum as one nested loop over every
    index; ``optimize=`` routes it through batched matmuls that copy large
    outputs.
    """
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", None) or getattr(func, "id", None)
        if name != "einsum":
            continue
        where = f"{filename}:{node.lineno}"
        if any(isinstance(a, ast.Starred) for a in node.args):
            out.append(f"{where}: operands passed with *")
        elif len(node.args) - 1 >= 4:
            out.append(f"{where}: {len(node.args) - 1} operands")
        if any(k.arg == "optimize" for k in node.keywords):
            out.append(f"{where}: optimize=")
    return out


def test_guard_flags_what_it_should():
    assert _einsum_offences('np.einsum("ni,nj,nk,nl->n", a, b, c, d)')
    assert _einsum_offences('np.einsum("ni,ni->n", a, b, optimize=True)')
    assert _einsum_offences('einsum("ni,ni->n", *ops)')
    assert not _einsum_offences('np.einsum("nij,nj,ni->n", a, b, c)')


def test_no_multi_operand_or_optimized_einsum_in_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    offences = [o for f in files
                for o in _einsum_offences(f.read_text(), f.name)]
    assert not offences, offences


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition went is a broken import
    # for every ``from kenmotsu3.<module> import *``
    names = ["kenmotsu3"] + [f"kenmotsu3.{f.stem}"
                             for f in sorted(SRC.glob("*.py"))
                             if f.stem != "__init__"]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert len(names) > 1
    assert not missing, missing


def _imported_names(source: str, module: str) -> set[str]:
    """Names ``source`` imports from ``module`` (``from .module import ...``
    or ``from kenmotsu3.module import ...``)."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[-1] == module
            for a in node.names}


def test_identities_run_no_finite_differences():
    # the suites read exact partials only: the identities' module imports
    # none of the FD entry points, and the stacked FD pass and its step
    # snapping are gone from the package
    source = (SRC / "identities.py").read_text()
    fd = {"partial_derivative", "coordinate_derivatives"}
    assert not (_imported_names(source, "fields") & fd)
    assert "exterior_derivative" not in _imported_names(source, "geometry")
    for name in ("_STACK", "fd_partials", "axis_quanta"):
        assert not [f.name for f in SRC.glob("*.py") if name in f.read_text()], name


def _defined(source: str, kind) -> list[str]:
    """Names of the ``kind`` definitions (functions, methods or classes) in
    ``source``, nested ones included."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, kind)]


def test_package_holds_no_finite_differences():
    # every partial the package reads is exact: no module defines or
    # exports a name of the FD layer (the tests keep its stencil, as their
    # oracle, in tests/fd_reference.py), no field states the axes it varies
    # along, and geometry works on arrays alone, importing nothing of fields
    removed = {"partial_derivative", "coordinate_derivatives", "lie_bracket",
               "constant_vector_field", "riemann", "sectional_curvature",
               "exterior_derivative"}
    files, found = sorted(SRC.glob("*.py")), set()
    for f in files:
        text = f.read_text()
        module = importlib.import_module(
            "kenmotsu3" + ("" if f.stem == "__init__" else f".{f.stem}"))
        names = (set(_defined(text, ast.FunctionDef))
                 | set(getattr(module, "__all__", ())))
        found |= {(f.name, n) for n in removed & names}
        found |= {(f.name, n) for n in ("_fd_weights", "_SHIFTS", "_WEIGHTS",
                                        "_window_shifts", "varies") if n in text}
    assert files and not found, found
    geometry = (SRC / "geometry.py").read_text()
    assert not _imported_names(geometry, "fields")
    assert "fields" not in _imported_names(geometry, "")


def test_one_way_to_differentiate():
    # expressions differentiate by jets: no symbolic differentiator is left
    # in exprs, and the package defines its jet class once, there
    functions = _defined((SRC / "exprs.py").read_text(), ast.FunctionDef)
    assert functions and not {"diff", "_diff_node"} & set(functions)
    jets = [(f.name, name) for f in sorted(SRC.glob("*.py"))
            for name in _defined(f.read_text(), ast.ClassDef)
            if "jet" in name.lower()]
    assert jets == [("exprs.py", "Jet")], jets


def test_one_field_assembler():
    # every family's seven fields, phi, xi, eta, g and the nominal k, mu
    # and lam, come from entry formulas through models._model, the one
    # place that constructs a model, and the per-order block helpers and
    # the scalars' own builders are gone: models.py builds no field itself
    source = (SRC / "models.py").read_text()
    calls = _linalg_uses(source, "models.py", names=(),
                         functions=("AlmostContactModel", "ArrayField"))
    assert calls == [("AlmostContactModel", "_model")], calls
    helpers = {"_on_t", "_zeros", "_dt_covector", "_layered", "_axis2_scalar",
               "_on_axis2", "const_scalar", "lam_rate"}
    assert not helpers & set(_defined(source, ast.FunctionDef))


def test_one_field_class():
    # a field's kind is its component shape: fields.py defines ArrayField
    # and no shape-only subclass or step class, no __all__ names one of
    # those, and no module keeps a pooled norm block path
    fields = _defined((SRC / "fields.py").read_text(), ast.ClassDef)
    assert sorted(fields) == ["ArrayField", "BoundaryError", "ChartDomain"], fields
    removed = {"ScalarField", "VectorField", "CovectorField", "Tensor11Field",
               "MetricField", "DiffScheme"}
    names = ["kenmotsu3"] + [f"kenmotsu3.{f.stem}" for f in sorted(SRC.glob("*.py"))
                             if f.stem != "__init__"]
    exported = {(name, n) for name in names
                for n in getattr(importlib.import_module(name), "__all__", ())
                if n in removed}
    assert not exported, exported
    blocks = [f.name for f in SRC.glob("*.py") if "_NORM_BLOCK_BYTES" in f.read_text()]
    assert not blocks, blocks


def test_one_evaluation_per_point_array():
    # a model evaluates in one pass on jets: no family's coefficients take
    # a flag for a second, value-only pass, nothing keeps a pass for later
    # calls, and the Probe reads the model's ``at`` with no descriptor
    models = ast.parse((SRC / "models.py").read_text())
    imported = ({a.name for node in ast.walk(models)
                 if isinstance(node, ast.Import) for a in node.names}
                | {node.module for node in ast.walk(models)
                   if isinstance(node, ast.ImportFrom)})
    assert "weakref" not in imported, imported
    coeffs = [[a.arg for a in node.args.args] for node in ast.walk(models)
              if isinstance(node, ast.FunctionDef) and node.name == "coeffs"]
    assert len(coeffs) == 3 and all(args == ["pts"] for args in coeffs), coeffs
    identities = (SRC / "identities.py").read_text()
    assert "_Eval" not in _defined(identities, ast.ClassDef)


def test_one_state_lookup():
    # the Darboux models read the ODE's solution through
    # Trajectory.solution alone: the class keeps (P, f) and no states or
    # slopes, only ``solution`` steps off the nodes, ``dense`` writes the
    # states of its (P, f), and the sample plan knows nothing of
    # trajectories (no node snapping)
    ode = ast.parse((SRC / "ode.py").read_text())
    traj = [node for node in ast.walk(ode)
            if isinstance(node, ast.ClassDef) and node.name == "Trajectory"]
    assert len(traj) == 1
    fields = [node.target.id for node in traj[0].body
              if isinstance(node, ast.AnnAssign)]
    assert fields == ["variant", "mu_bar", "step", "times", "frames", "f"], fields
    methods = {node.name: {getattr(call.func, "id", getattr(call.func, "attr", None))
                           for call in ast.walk(node) if isinstance(call, ast.Call)}
               for node in traj[0].body if isinstance(node, ast.FunctionDef)}
    assert not {"slopes", "exponents", "derivs"} & set(methods), methods
    stepping = {"_steps", "_magnus_exponent", "_expm"}
    assert [m for m, calls in methods.items() if stepping & calls] == ["solution"]
    assert {"solution", "_write_states"} <= methods["dense"], methods["dense"]
    assert "trajectory" not in (SRC / "identities.py").read_text()


def test_states_written_only_where_read():
    # integrate keeps (P, f): the states are written from them by the one
    # formula, only by their readers (the dense lookup, the finite check
    # and the CSV) and by the startup check of the row at P = I; no module
    # reads a stored ``.states``
    writers, reads = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "_write_states"
                    for call in ast.walk(func)):
                writers.add(f"{path.stem}.{func.name}")
        reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "states"]
    assert writers == {"ode.dense", "ode._check_finite", "ode.trajectory_to_csv",
                       "ode.check_initial_relations"}, writers
    assert not reads, reads


def test_models_read_no_state_layout():
    # one Darboux cell builder reads (P, f) off the lookup for both
    # variants: models imports neither the ODE's right-hand side nor its
    # basis matrices, and defines no per-variant cells
    source = (SRC / "models.py").read_text()
    assert _imported_names(source, "ode") == {"integrate", "ConsistencyError"}
    assert not {"kmu_cells", "kmup_cells"} & set(_defined(source, ast.FunctionDef))
    assert "cells_of" not in source


def test_one_integration_scheme():
    # both variants solve P' = P W by one Magnus exponent on the sl(2)
    # coefficients and its closed-form exponential: no 3x3 Taylor
    # exponential, no kmu-only stepper and no kmup-only closed form; the
    # builder checks G on the frames, not on the states' cancelling entries
    tree = ast.parse((SRC / "ode.py").read_text())
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    names |= {t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    removed = {"_magnus_block", "_magnus_span", "_closed_form_span",
               "_closed_form_rows", "_TAIL", "_TAYLOR_TERMS", "_MAGNUS_BLOCK",
               "metric_from_state"}
    assert not removed & names, removed & names


def _matmul_lines(source: str, function: str) -> list[int] | None:
    """Lines of each ``@``, ``@=`` or ``matmul`` call in the function named
    ``function`` in ``source`` (None: no such function)."""
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef) and node.name == function]
    if not found:
        return None
    return sorted(node.lineno for f in found for node in ast.walk(f)
                  if isinstance(getattr(node, "op", None), ast.MatMult)
                  or (isinstance(node, ast.Call) and "matmul" in (
                      getattr(node.func, "attr", None),
                      getattr(node.func, "id", None))))


def test_matmul_guard_flags_what_it_should():
    source = ("def f(a, b):\n    c = a @ b\n    c @= a\n"
              "    return np.matmul(c, b) + matmul(a, b)\n"
              "def g(a):\n    return a * a")
    assert _matmul_lines(source, "f") == [2, 3, 4, 4]
    assert _matmul_lines(source, "g") == []
    assert _matmul_lines(source, "h") is None


def test_invariants_on_the_coefficients():
    # the ten invariants come from the algebra of (M1, M2, M3), not from
    # 2x2 matrix products: the matrix expansion is the tests' oracle alone
    assert _matmul_lines((SRC / "ode.py").read_text(), "algebraic_residuals") == []
    tests = Path(__file__).resolve().parent
    defined = [f"{f.parent.name}/{f.name}"
               for f in sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py"))
               if "_as_matrix" in _defined(f.read_text(), ast.FunctionDef)]
    assert defined == ["tests/magnus_reference.py"], defined


def test_definition_guard_reads_nested_names():
    source = "class A:\n    def diff(self):\n        class _Jet: pass"
    assert _defined(source, ast.FunctionDef) == ["diff"]
    assert _defined(source, ast.ClassDef) == ["A", "_Jet"]


def test_import_guard_reads_both_forms():
    assert _imported_names("from .fields import (a,\n    b)", "fields") == {"a", "b"}
    assert _imported_names("from kenmotsu3.geometry import c", "geometry") == {"c"}
    assert not _imported_names("from .fields import a", "geometry")


def _linalg_uses(source: str, filename: str = "<string>",
                 names=("svd", "cond"), functions=()) -> list[tuple[str, str]]:
    """(name, enclosing function) of each use of ``linalg.<name>`` for
    ``names`` (``svd`` and ``cond`` by default), of each import of them from
    ``numpy.linalg``, and of each call of a plain function in ``functions``."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr in names
                and getattr(node.value, "attr", getattr(node.value, "id", None))
                == "linalg"):
            out.append((node.attr, func))
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            out.extend((a.name, func) for a in node.names if a.name in names)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions):
            out.append((node.func.id, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source, filename), "<module>")
    return out


def test_linalg_guard_flags_what_it_should():
    assert _linalg_uses("def f(m):\n    return np.linalg.svd(m)") == [("svd", "f")]
    assert _linalg_uses("from numpy.linalg import cond") == [("cond", "<module>")]
    assert _linalg_uses("import numpy.linalg as la\nla.cond(m)") == []
    assert not _linalg_uses("np.linalg.inv(m); np.linalg.eigvalsh(m)")


def test_no_svd_and_cond_only_in_the_metric_inverse_fallback():
    # the per-point 3x3 paths run no batched SVD: tensor norms are
    # Frobenius norms, and _inverse_metric calls cond only on the points
    # its Frobenius bound cannot clear
    uses = {f.name: _linalg_uses(f.read_text(), f.name)
            for f in sorted(SRC.glob("*.py"))}
    assert uses
    flat = [(name, func, file) for file, found in uses.items()
            for name, func in found]
    assert flat == [("cond", "_inverse_metric", "geometry.py")], flat


def test_one_eigen_solve_in_probe_eigen():
    # no suite norms a tensor by its eigenvalues or singular values: the one
    # eigen-solve is the 2x2 eigh that finds the adapted frame, in the
    # Cholesky frame the Probe factors g into; structure builds no frame
    names = ("eig", "eigh", "eigvals", "eigvalsh", "svd")
    flat = [(name, func, f.name) for f in sorted(SRC.glob("*.py"))
            for name, func in _linalg_uses(f.read_text(), f.name, names=names)]
    assert flat == [("eigh", "eigen", "identities.py")], flat
    tree = ast.parse((SRC / "structure.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"frame_of", "Eigenframe"}, defined


# what factors the metric: numpy's Cholesky and inverse, and the geometry
# function that calls them
_FACTORING = {"names": ("cholesky", "inv"), "functions": ("metric_factors",)}


def test_factoring_guard_flags_what_it_should():
    assert _linalg_uses("def norm(self, t):\n    return metric_factors(g)",
                        **_FACTORING) == [("metric_factors", "norm")]
    assert _linalg_uses("def f(g):\n    return np.linalg.inv(np.linalg.cholesky(g))",
                        **_FACTORING) == [("inv", "f"), ("cholesky", "f")]
    assert _linalg_uses("from numpy.linalg import cholesky", **_FACTORING)
    assert not _linalg_uses("np.linalg.det(g); lie_derivative(xi, dxi, t, dt); "
                            "metric_factors", **_FACTORING)


def test_identities_factor_the_metric_only_in_the_probe_factors():
    # the Probe factors g once, in its ``factors`` property; a Cholesky or
    # inverse anywhere else in the identities would run once per call
    uses = _linalg_uses((SRC / "identities.py").read_text(), "identities.py",
                        **_FACTORING)
    assert uses == [("metric_factors", "factors")], uses


def test_probe_built_only_in_the_block_loop():
    # suites, check_identity and infer_k_mu build their Probes in one
    # place, the loop over blocks of points: no second, whole-plan path
    uses = [(f.name, *use) for f in sorted(SRC.glob("*.py"))
            for use in _linalg_uses(f.read_text(), f.name, names=(),
                                    functions=("Probe",))]
    assert uses == [("identities.py", "Probe", "_per_block")], uses


def test_families_decide_applicability_once():
    # a family's row of structure.FAMILIES (its nullity operator and third
    # coordinate) is the one statement of the identities it runs: the
    # registry keeps no predicates of its own, each identity names families
    # of that table, and a model takes neither value as an argument
    from dataclasses import fields

    from kenmotsu3.identities import IDENTITIES
    from kenmotsu3.structure import FAMILIES, AlmostContactModel

    defined = set(_defined((SRC / "identities.py").read_text(), ast.FunctionDef))
    predicates = {"_all", "_variant_h", "_variant_hp", "_nondeg_h", "_darboux"}
    assert not defined & predicates, defined & predicates
    strays = {s.id: set(s.families) - set(FAMILIES) for s in IDENTITIES.values()
              if not s.families or not set(s.families) <= set(FAMILIES)}
    assert not strays, strays
    init = {f.name for f in fields(AlmostContactModel) if f.init}
    assert "family" in init and not {"variant", "coords"} & init, init


def test_one_norm_function():
    # every residual tensor is normed through Probe.norm or _chunk_norms
    # over their one core, identities._frame_norm: no module defines one of
    # the norm helpers those replaced, CURV2's staged contraction among them
    removed = {"_pairs", "_pair_norm", "_form_norm", "_riemann_triples",
               "op_norm", "vec_norm", "_triples", "_curv2_terms"}
    found = [(f.name, name) for f in sorted(SRC.glob("*.py"))
             for name in _defined(f.read_text(), ast.FunctionDef)
             if name in removed]
    assert not found, found


def _enclosed(source: str) -> list[tuple[ast.AST, str]]:
    """(node, enclosing function) of each node of ``source``; a lambda's
    enclosing function is the one it sits in, and "<module>" is none."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        out.append((node, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return out


def _attribute_reads(source: str, attrs) -> list[tuple[str, str]]:
    """(attribute, enclosing function) of each ``<name>.<attr>`` in
    ``source`` for the attributes ``attrs``."""
    return [(node.attr, func) for node, func in _enclosed(source)
            if isinstance(node, ast.Attribute) and node.attr in attrs
            and isinstance(node.value, ast.Name)]


def _name_readers(source: str, name: str) -> set[str]:
    """The enclosing functions of each read of the bare name ``name``."""
    return {func for node, func in _enclosed(source)
            if isinstance(node, ast.Name) and node.id == name
            and isinstance(node.ctx, ast.Load)}


def test_name_guard_flags_what_it_should():
    source = ("def f(t):\n    return _frobenius(t)\n"
              "def g(u):\n    _frobenius = u\n    return h(u)._frobenius\n"
              "k = lambda t: _frobenius(t)")
    assert _name_readers(source, "_frobenius") == {"f", "<module>"}


def test_only_the_frame_norm_reads_the_root_sum_of_squares():
    # _frobenius is a norm only of a tensor every slot of which a
    # g-orthonormal frame has contracted: _frame_norm alone calls it
    source = (SRC / "identities.py").read_text()
    assert _name_readers(source, "_frobenius") == {"_frame_norm"}


def test_attribute_guard_flags_what_it_should():
    source = "def f(p):\n    return p.frame[:, 1:]\ng = lambda q: q.eigen.x"
    assert _attribute_reads(source, ("frame", "eigen")) == [
        ("frame", "f"), ("eigen", "<module>")]
    assert not _attribute_reads("def f(p):\n    return p.frame_nabla, frame",
                                ("frame", "eigen"))


def test_only_identities_about_the_adapted_frame_read_it():
    # the adapted frame (xi, X, phi X) is built from phi, so it is only as
    # orthonormal as phi is g-compatible: every residual tensor is normed in
    # the Cholesky frame of g, and the adapted frame is read by the
    # identities about it alone, CONN_* (through Probe.dx and frame_nabla),
    # FLAT_LEAF and infer_k_mu's _k_mu
    uses = _attribute_reads((SRC / "identities.py").read_text(),
                            ("frame", "eigen"))
    readers = {func for _, func in uses}
    allowed = {"frame", "dx", "frame_nabla", "_conn_residual",
               "_res_flat_leaf", "_k_mu"}
    assert uses and readers <= allowed, readers - allowed


def _variant_reads(source: str) -> list[str]:
    """The enclosing function of each read of an attribute ``variant``."""
    return [func for node, func in _enclosed(source)
            if isinstance(node, ast.Attribute) and node.attr == "variant"]


def test_variant_guard_flags_what_it_should():
    source = ("def f(p):\n    return p.model.variant\n"
              "def g(m):\n    return m.variant == 'h'\n"
              "k = lambda p: p.variant\ndef law(p):\n    return variant")
    assert _variant_reads(source) == ["f", "g", "<module>"]


def test_one_law_per_variant_pair():
    # NH/NHP, LIE1/LIE2, NULL_KMU/NULL_KMUP and CONN_KMU/CONN_KMUP each
    # evaluate one residual at the law (T, B, nu, f', C) that Probe.law
    # picks from the family's variant: the one read of it in the
    # identities, and the per-variant functions and the model's own choice
    # of T are gone
    assert _variant_reads((SRC / "identities.py").read_text()) == ["law"]
    removed = {"nullity_operator", "_res_nhp", "_res_lie1", "_res_lie2",
               "_conn_kmu", "_conn_kmup"}
    found = [(f.name, name) for f in sorted(SRC.glob("*.py"))
             for name in _defined(f.read_text(), ast.FunctionDef)
             if name in removed]
    assert not found, found


def _ungated_long_double(source: str) -> list[tuple[str, str]]:
    """(attribute, enclosing function) of each ``np.longdouble`` in
    ``source`` but one in ``_curv2_residual`` when that function compares a
    value with the gate's threshold ``_CURV2_COND``."""
    gated = any(isinstance(node, ast.Compare)
                and "_CURV2_COND" in ast.unparse(node)
                for func in ast.walk(ast.parse(source))
                if isinstance(func, ast.FunctionDef)
                and func.name == "_curv2_residual"
                for node in ast.walk(func))
    uses = _attribute_reads(source, ("longdouble",))
    if gated and ("longdouble", "_curv2_residual") in uses:
        uses.remove(("longdouble", "_curv2_residual"))
    return uses


def test_long_double_guard_flags_what_it_should():
    gated = "def _curv2_residual(p):\n    wide = ~(c <= _CURV2_COND ** 2)\n"
    assert _ungated_long_double("def f(a):\n    return a.astype(np.longdouble)"
                                ) == [("longdouble", "f")]
    assert _ungated_long_double(  # a blanket pass: no gate
        "def _curv2_residual(p, ops):\n"
        "    return [np.asarray(a, np.longdouble) for a in ops]")
    assert _ungated_long_double(gated + "    return np.longdouble, np.longdouble"
                                ) == [("longdouble", "_curv2_residual")]
    assert not _ungated_long_double(gated + "    return np.longdouble")


def test_long_double_only_in_the_curv2_gate():
    # the identities sum in long double only where CURV2's gate finds g
    # ill-conditioned: no other residual, and no pass over every point
    source = (SRC / "identities.py").read_text()
    assert ("longdouble", "_curv2_residual") in _attribute_reads(
        source, ("longdouble",))
    assert not _ungated_long_double(source)


# exported names that no module of the package reads, and their readers
LIBRARY_API = {
    "check_identity": "one identity's report (acceptance criterion 4)",
    "infer_k_mu": "(k, mu) from the curvature (acceptance criterion 2)",
    "model_from_json": "reads back the model document that build writes",
    "__version__": "the package version",
}


def _unread_exports(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each name in a module's ``__all__`` that no module
    but ``__init__`` (which only re-exports) reads as a name or attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for module, tree in trees.items() if module != "__init__"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}
    exported = [(module, elt.value) for module, tree in trees.items()
                for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in node.value.elts]
    return [(module, name) for module, name in exported if name not in read]


def test_export_guard_flags_what_it_should():
    sources = {"a": '__all__ = ["f", "g", "h"]\ndef f(): pass\n'
                    'def g(): pass\ndef h(): return f()',
               "b": "from .a import g\nx = a.h",
               "__init__": 'from .a import g\n__all__ = ["g"]'}
    assert _unread_exports(sources) == [("a", "g"), ("__init__", "g")]


def test_package_exports_only_what_it_reads():
    # every exported name has a reader in the package or is library API:
    # what only the tests call lives in tests/structure_reference.py
    sources = {f.stem: f.read_text() for f in sorted(SRC.glob("*.py"))}
    unread = {name for _, name in _unread_exports(sources)}
    assert unread == set(LIBRARY_API), unread ^ set(LIBRARY_API)


def test_check_suites_alone_judges_a_suite_request():
    # identities.check_suites validates identity names and tolerances: the
    # CLI only splits its flags, so it needs no registry of its own
    source = (SRC / "cli.py").read_text()
    used = {getattr(node, "id", getattr(node, "attr", None))
            for node in ast.walk(ast.parse(source))}
    assert "IDENTITIES" not in used | _imported_names(source, "identities")


def test_no_field_nothing_reads():
    # a model's partials are read from ``model.at`` alone, and a sample plan
    # is a grid in a box: no module accesses a field view's partials, nor
    # the random pairs that no identity drew
    removed = {"partials", "second", "rand_pairs"}
    found = [(f.name, node.lineno, node.attr) for f in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(f.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in removed]
    assert not found, found


def test_benchmark_tracer_hooks_resolve():
    # the benchmark's tracer (perfbench/tracer.py, read here and run without
    # writing bytecode) wraps each layer's module and the methods it names:
    # a layer module or traced method that goes fails here, not only in a
    # traced benchmark run
    path = SRC.parents[1] / "perfbench" / "tracer.py"
    tracer = {"__name__": "tracer"}
    exec(compile(path.read_text(), str(path), "exec"), tracer)
    layers = {layer: importlib.import_module(f"kenmotsu3.{layer}")
              for layer in tracer["LAYERS"]}
    missing = [(layer, cls, meth) for layer, cls, meth in tracer["METHODS"]
               if meth not in vars(getattr(layers[layer], cls))]
    assert tracer["METHODS"] and not missing, missing
