"""The library never prints: only ``cli`` writes to stdout.

Every other module returns values, raises, warns or logs. The scan
reads each module's syntax tree, so a print in a branch no test runs
is caught too.
"""

import ast
from pathlib import Path

import pytest

import stepfdr

LIBRARY = sorted(p for p in Path(stepfdr.__file__).parent.glob("*.py") if p.name != "cli.py")


def _stdout_uses(tree):
    """(line, what) for every print call and every reference to sys.stdout."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            yield node.lineno, "print call"
        elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__")
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            yield node.lineno, f"sys.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
                alias.name in ("stdout", "__stdout__") for alias in node.names):
            yield node.lineno, "stdout imported from sys"


def test_scan_catches_each_form():
    source = "print(1)\nsys.stdout.write('x')\nf(file=sys.__stdout__)\nfrom sys import stdout\n"
    assert sorted(line for line, _ in _stdout_uses(ast.parse(source))) == [1, 2, 3, 4]


def test_scan_covers_the_library():
    assert {"dataio.py", "regress.py", "selector.py", "simlab.py"} <= {p.name for p in LIBRARY}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_module_never_writes_to_stdout(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_stdout_uses(tree)) == []
