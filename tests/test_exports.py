"""Public names: every export resolves and every import is used, so a
deletion leaves none stale."""

import ast
import importlib
from pathlib import Path

import pytest

_MODULES = ["fbmlocal"] + [
    f"fbmlocal.{name}" for name in ("acceptance", "cli", "experiments", "geometry", "kernels", "sampler", "sobolev")
]
_SRC = Path(__file__).resolve().parents[1] / "src" / "fbmlocal"


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _unused_imports(path):
    # names an import binds that the module never reads and does not export
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read | exported)


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read_or_exported(path):
    assert _unused_imports(path) == []
