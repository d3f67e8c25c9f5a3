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
