"""The package's exports resolve.

Every ``__all__`` name exists, and each name that ``riemplan`` re-exports
from a submodule is the object that the module listing it holds, so a
function moved between modules cannot leave a stale export behind.
"""

from __future__ import annotations

import importlib

import pytest

import riemplan

MODULES = ["dynamics", "bvp", "jacobi", "index", "oracle", "potentials", "geometry"]


@pytest.mark.parametrize("name", ["riemplan"] + [f"riemplan.{m}" for m in MODULES])
def test_every_listed_name_exists(name):
    module = importlib.import_module(name)
    assert [a for a in module.__all__ if not hasattr(module, a)] == []


def test_reexports_are_the_listing_modules_objects():
    owners = {}
    for m in MODULES:
        module = importlib.import_module(f"riemplan.{m}")
        for a in module.__all__:
            owners.setdefault(a, []).append(module)
    for a in riemplan.__all__:
        obj = getattr(riemplan, a)
        home = (getattr(obj, "__module__", None) or "").split(".")
        if len(home) > 1 and home[1] in MODULES:
            assert a in owners, f"{a} comes from riemplan.{home[1]}, which does not list it"
        for module in owners.get(a, []):
            assert obj is getattr(module, a), f"riemplan.{a} is not {module.__name__}.{a}"
