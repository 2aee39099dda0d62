"""The library imports only the standard library, numpy and itself.

scipy and hypothesis are installed for the tests; an import of either
(or of anything else) in ``src/stepfdr`` would make it a dependency of
the package. The scan reads each module's syntax tree, so an import
inside a function or a branch no test runs is caught too.
"""

import ast
import sys
from pathlib import Path

import pytest

import stepfdr

PACKAGE = Path(stepfdr.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "stepfdr"}


def _foreign_imports(tree):
    """(line, module) for every absolute import outside ALLOWED."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in ALLOWED:
                yield node.lineno, name


def test_scan_catches_each_form():
    source = ("import scipy.stats\nfrom hypothesis import given\n"
              "def f():\n    import pandas as pd, math\n"
              "import numpy.linalg\nfrom . import penalties\nfrom statistics import NormalDist\n")
    assert list(_foreign_imports(ast.parse(source))) == [
        (1, "scipy.stats"), (2, "hypothesis"), (4, "pandas")]


def test_scan_covers_the_library():
    assert {"cli.py", "quantiles.py", "regress.py", "simlab.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_foreign_imports(tree)) == []
