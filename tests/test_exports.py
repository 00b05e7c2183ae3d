"""The package's exports: what bdrates re-exports from each module is in
that module's __all__, and every __all__ name resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import bdrates

INIT = Path(bdrates.__file__)


def _imports() -> dict[str, list[str]]:
    """{module: names} of the relative imports in bdrates/__init__.py."""
    out: dict[str, list[str]] = {}
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(a.name for a in node.names)
    return out


@pytest.mark.parametrize("module", sorted(_imports()))
def test_reexported_names_are_in_their_modules_all(module):
    mod = importlib.import_module(f"bdrates.{module}")
    missing = [name for name in _imports()[module] if name not in mod.__all__]
    assert missing == []


@pytest.mark.parametrize("module", sorted(_imports()))
def test_every_all_name_resolves(module):
    mod = importlib.import_module(f"bdrates.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
