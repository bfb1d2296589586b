"""Public names: each module's __all__ is its one export list, every
export resolves and every import is used, so a deletion leaves none
stale; the package itself imports nothing, and the gate and the sampler
import no private name."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

_MODULES = [f"fbmlocal.{name}" for name in ("acceptance", "cli", "experiments", "geometry", "kernels", "sampler", "sobolev")]
_NUMERICAL = ("kernels", "geometry", "sobolev", "experiments", "sampler")
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
    return sorted((line, name) for name, line in bound.items() if name not in read | _exported(tree))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read_or_exported(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("module", _NUMERICAL)
def test_every_public_function_and_class_is_exported(module):
    tree = ast.parse((_SRC / f"{module}.py").read_text())
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert [name for name in public if name not in _exported(tree)] == []


@pytest.mark.parametrize("module", ["fbmlocal", "fbmlocal.kernels"])
def test_importing_a_module_loads_no_other_fbmlocal_module(module):
    # in a fresh interpreter: the package imports no submodule, and kernels
    # imports none besides itself
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'fbmlocal'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(_SRC.parent), os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == repr(sorted({"fbmlocal", module}))


@pytest.mark.parametrize("module", ["acceptance", "sampler"])
def test_module_imports_no_private_name(module):
    # the gate and the sampler reach the other modules through their
    # public routes only
    tree = ast.parse((_SRC / f"{module}.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fbmlocal"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
