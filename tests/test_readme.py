"""The README against the code it documents: the command-line flags, the
values printed in the library sketch, the names it quotes and the values
in its Tolerances table."""

import importlib
import pkgutil
import re
from pathlib import Path

import evebounds
import reference
from evebounds.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title):
    """The text of a '## title' section, up to the next '## ' heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def test_command_line_section_names_every_option():
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section("Command line")))
    options = {
        opt
        for action in build_parser()._actions
        if action.dest != "help"
        for opt in action.option_strings
        if opt.startswith("--")
    }
    assert documented - options == set(), "README names flags the parser lacks"
    assert options - documented == set(), "parser options the README does not name"


def test_library_sketch_values():
    code = re.search(r"```python\n(.*?)```", section("Library sketch"), re.S).group(1)
    namespace = {}
    checked = 0
    for line in code.splitlines():
        statement, _, comment = line.partition("#")
        printed = re.search(r"(\d+\.\d{4}) bits", comment)
        if printed is None:
            exec(statement, namespace)
            continue
        result = eval(statement, namespace)
        value = getattr(result, "value", result)  # the oracle returns a record
        assert f"{value:.4f}" == printed.group(1), line
        checked += 1
    assert checked == 4


MODULES = {info.name: importlib.import_module(f"evebounds.{info.name}")
           for info in pkgutil.iter_modules(evebounds.__path__)}


def resolves(name):
    """A dotted name whose first part is a module of the package resolves
    in that module; any other name in a package module or in
    `tests/reference.py`."""
    head, *attrs = name.split(".")
    if head in MODULES:
        roots = [MODULES[head]]
    else:
        roots = [getattr(m, head) for m in (*MODULES.values(), reference) if hasattr(m, head)]
    for obj in roots:
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is not None:
            return True
    return False


def test_quoted_names_exist():
    quoted = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", README))
    names = {name for name in quoted if "_" in name or "." in name}
    assert {name for name in names if not resolves(name)} == set()


def tolerance_rows():
    """(value, name, where) of each row of the Tolerances table."""
    rows = []
    for line in section("Tolerances").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("|") and len(cells) == 4 and cells[0] not in ("Value", "---"):
            rows.append(tuple(cells[:3]))
    return rows


def test_tolerance_rows_carry_the_code_values(check_results):
    results, _ = check_results
    suites = {}
    constants = 0
    for value, name, where in tolerance_rows():
        constant = re.fullmatch(r"`(\w+)\.([A-Z][A-Z_]*)`", name)
        if constant:
            module, attr = constant.groups()
            assert float(value.split()[0]) == getattr(MODULES[module], attr), (value, name)
            constants += 1
        elif name == "`--check`":
            suites.update(dict.fromkeys((suite.strip() for suite in where.split(",")), float(value)))
    assert constants >= 10
    assert suites == {r.name: r.tolerance for r in results}
