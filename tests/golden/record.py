"""Write the committed output record in this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py

It writes, all through ``stepfdr.cli.main``:

- ``select.txt``: the diabetes ``select`` reports, main and quad pools,
  for each family's default token, one ``@rule`` token, ``--iterative``
  and a known σ²;
- ``penalty-tables.txt``: ``penalty-table`` at m=40 for a few tokens;
- ``campaign/``: the result files of a 16-cell campaign
  (``campaign.cfg``) and its ``summarize`` output, ``summary.txt``.

It also writes ``acceptance-losses.tsv`` from ``run_config``: one
"cell key, method label, relative loss" line (tab-separated) per method
of every cell of the two 54-cell campaigns of
``tests/test_acceptance.py``, its ``_campaign(20)`` and
``_campaign(40)``, whose losses the band tests read.

``tests/test_golden.py`` recomputes the same outputs and compares them
with these files, and ``tests/test_acceptance.py`` compares its two
campaign fixtures with ``acceptance-losses.tsv``. A change that means
to move a number rewrites the record with this script and says what
moved, by how much and why.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from stepfdr import cli
from stepfdr.dataio import diabetes_path

HERE = Path(__file__).resolve().parent

FAMILY_DEFAULTS = ("msfdr:0.05", "bh:0.05", "tsfdr:0.05", "fixed-alpha:0.05",
                   "aic", "dj", "fs", "tk", "bm", "gf")
SELECT_REQUESTS = tuple(
    f"{pool} {method}"
    for pool in ("main", "quad")
    for method in FAMILY_DEFAULTS + ("msfdr:0.05@global-min", "msfdr:0.05 --iterative",
                                     "msfdr:0.05 --sigma2 known:2900")
)
TABLE_METHODS = ("msfdr:0.05", "bh:0.05", "bm", "tk")
TABLE_M = 40
CAMPAIGN = {
    "m": "20,40",
    "rho": "-0.5,0.5",
    "beta_type": "1,3",
    "p_index": "2,4",
    "replications": "200",
    "seed": "0",
    "methods": "msfdr:0.05,msfdr:0.05@global-min,bh:0.05,tsfdr:0.05,fixed-alpha:0.05,"
               "aic,fs,tk,bm",
}
CAMPAIGN_DIR = HERE / "campaign"
ACCEPTANCE_LOSSES = HERE / "acceptance-losses.tsv"


def run_cli(argv) -> str:
    """stdout of one ``stepfdr`` command, which must succeed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"stepfdr {' '.join(argv)} failed: {err.getvalue().strip()}")
    return out.getvalue()


def select_report(request: str) -> str:
    """The report of one ``SELECT_REQUESTS`` entry: "<pool> <method> [options]"."""
    pool, method, *options = request.split()
    argv = ["select", "--data", diabetes_path(), "--response", "Y", "--method", method, *options]
    if pool == "quad":
        argv += ["--expand", "--square-exclude", "SEX"]
    return run_cli(argv)


def penalty_table(method: str) -> str:
    return run_cli(["penalty-table", "--method", method, "--m", str(TABLE_M)])


def write_sections(path: Path, sections: dict) -> None:
    """Outputs under one "== <key>" line each, in order."""
    path.write_text("".join(f"== {key}\n{text}" for key, text in sections.items()))


def read_sections(path: Path) -> dict:
    sections: dict = {}
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith("== "):
            key = line[3:].rstrip("\n")
            sections[key] = ""
        else:
            sections[key] += line
    return sections


def acceptance_losses() -> str:
    """The ``acceptance-losses.tsv`` lines of today's acceptance campaigns."""
    sys.path.insert(0, str(HERE.parent))
    import test_acceptance

    outcomes = test_acceptance._campaign(20) + test_acceptance._campaign(40)
    return "".join(f"{o.config.key()}\t{mo.label}\t{mo.relative_loss!r}\n"
                   for o in outcomes for mo in o.methods)


def main() -> int:
    write_sections(HERE / "select.txt", {req: select_report(req) for req in SELECT_REQUESTS})
    write_sections(HERE / "penalty-tables.txt", {m: penalty_table(m) for m in TABLE_METHODS})
    config = HERE / "campaign.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in CAMPAIGN.items()))
    CAMPAIGN_DIR.mkdir(exist_ok=True)
    for stale in CAMPAIGN_DIR.glob("*.tsv"):
        stale.unlink()
    run_cli(["simulate", "--config", str(config), "--out", str(CAMPAIGN_DIR), "--workers", "1"])
    (CAMPAIGN_DIR / "summary.txt").write_text(run_cli(["summarize", "--in", str(CAMPAIGN_DIR)]))
    ACCEPTANCE_LOSSES.write_text(acceptance_losses())
    return 0


if __name__ == "__main__":
    sys.exit(main())
