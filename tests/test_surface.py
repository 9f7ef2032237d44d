"""The public surface: every exported name exists, and the retired ones are gone."""

import ast
import importlib
from pathlib import Path

import pytest

import kamconj

# the modules that declare their public names in __all__
MODULES = ["cli", "cohomology", "diophantine", "driver", "io", "kamstep", "rotation", "scheduler", "spectral"]

# (owner, name) of each public name whose work another path does
RETIRED = [
    ("diophantine", "verify_dc"),
    ("diophantine", "verified"),
    ("diophantine", "best_gamma"),
    ("diophantine", "small_divisor"),
    ("diophantine", "DCReport"),
    ("io", "field_to_doc"),
    ("io", "field_from_doc"),
    ("spectral", "field_from_grid"),
    ("spectral.PeriodicField", "constant"),
    ("spectral.TorusMapLift", "identity"),
]


def _imported_names() -> list:
    """(module, name) of every `from .module import name` in kamconj/__init__.py."""
    tree = ast.parse(Path(kamconj.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _owner(path: str):
    module, _, attr = path.partition(".")
    owner = importlib.import_module(f"kamconj.{module}")
    return getattr(owner, attr) if attr else owner


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    mod = importlib.import_module(f"kamconj.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_name_the_package_imports_exists():
    names = _imported_names()
    assert len(names) > 50
    for module, name in names:
        assert hasattr(importlib.import_module(f"kamconj.{module}"), name), (module, name)
        assert hasattr(kamconj, name), name


@pytest.mark.parametrize("owner, name", RETIRED, ids=[f"{o}.{n}" for o, n in RETIRED])
def test_retired_name_is_gone(owner, name):
    with pytest.raises(ImportError):
        exec(f"from kamconj import {name}", {})
    with pytest.raises(AttributeError):
        getattr(_owner(owner), name)
    module = importlib.import_module(f"kamconj.{owner.partition('.')[0]}")
    assert name not in module.__all__
