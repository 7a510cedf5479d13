"""The package's layout: the estimators stand apart from the Fock oracle
that checks them, and each public name is listed once, in its module's
`__all__`, which the top level re-exports."""

import ast
import importlib
from pathlib import Path

import evebounds

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "evebounds"
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


# Public names that nothing in the package calls: documented library
# calls, and `fock_bs`, which the benchmark's tracer wraps.
LIBRARY_ONLY = {"bm_gme_entropy", "thermal_entropy", "fock_bs"}


def test_every_public_name_has_a_package_caller():
    # A name counts as called when a top-level definition other than its
    # own refers to it; docstrings and `__all__` strings do not count.
    referenced = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name and name != getattr(top, "name", None):
                    referenced.add(name)
    public = {name for m in MODULES for name in importlib.import_module(f"evebounds.{m}").__all__}
    assert public - referenced == LIBRARY_ONLY


def test_eb_z4_is_one_object():
    assert evebounds.eb_z4 is evebounds.bounds.eb_z4 is evebounds.fock.eb_z4


def _tracer_lists():
    """FUNCTIONS and VALIDATED of bench/tracer.py, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("FUNCTIONS", "VALIDATED")}


def test_traced_names_resolve():
    # The benchmark's tracer patches these by name; a rename would
    # otherwise fail only the traced benchmark runs.
    lists = _tracer_lists()
    assert lists["FUNCTIONS"] and lists["VALIDATED"]
    for _, module, name in lists["FUNCTIONS"]:
        found = getattr(importlib.import_module(f"evebounds.{module}"), name, None)
        assert callable(found), (module, name)
    states = importlib.import_module("evebounds.states")
    for name in lists["VALIDATED"]:
        assert "__post_init__" in vars(getattr(states, name)), name
    assert importlib.import_module("evebounds.checks").SUITES
