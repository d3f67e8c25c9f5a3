"""README.md's references to the package's names resolve."""

import importlib
import pkgutil
import re
from pathlib import Path

import kenmotsu3

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(kenmotsu3.__path__)}

# `<module>.<name>`, optionally further dotted: `identities.Probe.eigen`
_REFERENCE = re.compile(r"`(\w+)((?:\.\w+)+)`")


def _references(text: str) -> list[str]:
    """Each distinct backticked reference whose first part names a module
    of the package, in order of first appearance."""
    refs = (module + rest for module, rest in _REFERENCE.findall(text)
            if module in MODULES)
    return list(dict.fromkeys(refs))


def _stale(text: str) -> list[str]:
    """The references in ``text`` that name nothing in the package."""
    out = []
    for ref in _references(text):
        module, *path = ref.split(".")
        obj = importlib.import_module(f"kenmotsu3.{module}")
        for attr in path:
            if not hasattr(obj, attr):
                out.append(ref)
                break
            obj = getattr(obj, attr)
    return out


def test_guard_flags_what_it_should():
    text = ("`structure.frame_of`, `identities.Probe.eigen`, "
            "`identities.Probe.frame_of`, `np.argmax`, `model.at`, "
            "`kenmotsu3.fields.partial_derivative`")
    assert _references(text) == ["structure.frame_of", "identities.Probe.eigen",
                                 "identities.Probe.frame_of"]
    assert _stale(text) == ["structure.frame_of", "identities.Probe.frame_of"]


def test_readme_references_resolve():
    text = README.read_text()
    assert len(_references(text)) >= 12
    assert _stale(text) == []
