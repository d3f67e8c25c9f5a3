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


def _linalg_uses(source: str, filename: str = "<string>") -> list[tuple[str, str]]:
    """(name, enclosing function) of each use of ``linalg.svd`` or
    ``linalg.cond``, and of each import of them from ``numpy.linalg``."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr in ("svd", "cond")
                and getattr(node.value, "attr", getattr(node.value, "id", None))
                == "linalg"):
            out.append((node.attr, func))
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            out.extend((a.name, func) for a in node.names
                       if a.name in ("svd", "cond"))
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
    # the per-point 3x3 paths run no batched SVD: operator norms take the
    # Gram matrix's top eigenvalue, and _inverse_metric calls cond only on
    # the points its Frobenius bound cannot clear
    uses = {f.name: _linalg_uses(f.read_text(), f.name)
            for f in sorted(SRC.glob("*.py"))}
    assert uses
    flat = [(name, func, file) for file, found in uses.items()
            for name, func in found]
    assert flat == [("cond", "_inverse_metric", "geometry.py")], flat
