"""Public names: every export resolves, so a deletion leaves none stale."""

import importlib

import pytest

_MODULES = ["fbmlocal"] + [
    f"fbmlocal.{name}" for name in ("acceptance", "cli", "experiments", "geometry", "kernels", "sampler", "sobolev")
]


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
