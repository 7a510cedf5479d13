"""The package's layout: the estimators stand apart from the Fock oracle
that checks them, and each public name is listed once, in its module's
`__all__`, which the top level re-exports."""

import ast
import importlib
from pathlib import Path

import evebounds

SRC = Path(__file__).resolve().parents[1] / "src" / "evebounds"
MODULES = ["states", "linalg", "unitaries", "blochmessiah", "cloner", "bounds", "fock"]


def test_bounds_imports_nothing_from_fock():
    tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    assert not [name for name in imported if "fock" in name.split(".")], imported


def test_every_public_name_is_at_the_top_level_once():
    listed = [(m, name) for m in MODULES for name in importlib.import_module(f"evebounds.{m}").__all__]
    names = [name for _, name in listed]
    assert len(names) == len(set(names)), "a name is in two __all__ lists"
    for module, name in listed:
        assert getattr(evebounds, name) is getattr(importlib.import_module(f"evebounds.{module}"), name)


def test_eb_z4_is_one_object():
    assert evebounds.eb_z4 is evebounds.bounds.eb_z4 is evebounds.fock.eb_z4
