"""Each Python block in README runs, and prints what its comments say.

A result comment follows a ``print(...)`` line, on the same line or on
the next line alone; the printed line must equal it, or be followed in
it by a parenthesized note, as in ``# 7 (8 counting the intercept)``.
README's list of campaign keys is ``SimConfig``'s fields and ``methods``.
"""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from stepfdr import SimConfig

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _expected(block: str) -> list:
    lines = block.splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, hash_, comment = line.partition("#")
        if not hash_ and i + 1 < len(lines) and lines[i + 1].startswith("#"):
            comment = lines[i + 1][1:]
        if comment.strip():
            out.append(comment.strip())
    return out


def test_readme_has_result_comments():
    assert _expected(BLOCKS[0]) == ["6 ['BMI', 'S5', 'BP', 'S1', 'SEX', 'S2']",
                                    "7 (8 counting the intercept)"]


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    assert printed
    expected = _expected(block)
    if expected:
        assert len(printed) == len(expected)
        for got, want in zip(printed, expected):
            assert want == got or want.startswith(got + " ("), (got, want)


def test_readme_lists_the_campaign_keys():
    text = " ".join((ROOT / "README.md").read_text().split())
    listed = re.search(r"\(keys: ([^)]*)\)", text).group(1)
    keys = re.findall(r"`(\w+)`", listed)
    assert sorted(keys) == sorted([f.name for f in fields(SimConfig)] + ["methods"])
    assert len(keys) == len(set(keys))
