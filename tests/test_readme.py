"""The README against the code it documents: the command-line flags and the
values printed in the library sketch."""

import re
from pathlib import Path

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
