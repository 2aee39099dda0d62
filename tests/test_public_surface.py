"""The public surface stays consistent: each module's ``__all__`` names
only what the module defines, and the package re-exports only names
that its source module's ``__all__`` lists.

Re-exports are read from the syntax tree of ``stepfdr/__init__``, so a
name imported there from a module that stopped listing it is caught.
The README's "Command line" section names exactly the CLI's long options.
The result objects that hold arrays compare and hash by identity.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

import stepfdr
from stepfdr.cli import build_parser
from stepfdr.dataio import load_diabetes
from stepfdr.penalties import PenaltySpec, penalty_table
from stepfdr.regress import forward_path
from stepfdr.selector import select

PACKAGE = Path(stepfdr.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _reexports():
    """(module, name) for every relative ``from .module import name`` in the package."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_modules_with_an_all_are_covered():
    listed = {name for name in MODULES
              if hasattr(importlib.import_module(f"stepfdr.{name}"), "__all__")}
    assert {"campaign", "dataio", "penalties", "quantiles", "regress", "selector", "selfcheck",
            "simlab"} <= listed


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"stepfdr.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    pairs = _reexports()
    assert len(pairs) > 20  # the scan saw the import lists
    unlisted = [f"{module}.{name}" for module, name in pairs
                if name not in importlib.import_module(f"stepfdr.{module}").__all__]
    assert unlisted == []


def test_readme_command_line_section_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", section)) - {"--help"}
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices.values()
    options = {opt for command in commands for action in command._actions
               for opt in action.option_strings if opt.startswith("--")} - {"--help"}
    assert documented == options


@pytest.mark.parametrize("make", [
    load_diabetes,
    lambda: forward_path(load_diabetes()),
    lambda: select(load_diabetes(), PenaltySpec("msfdr", q=0.05)),
    lambda: penalty_table(PenaltySpec("msfdr", q=0.05), 10),
], ids=["Dataset", "ForwardPath", "SelectionResult", "PenaltyTable"])
def test_objects_that_hold_arrays_compare_by_identity(make):
    # A generated __eq__ or __hash__ over numpy fields raised instead.
    a, b = make(), make()
    assert (a == a, a == b, a != b) == (True, False, True)
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert a in [b, a] and a not in [b]
