"""Write the committed output record in this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py

It writes, all through ``stepfdr.cli.main``:

- ``select.txt``: the diabetes ``select`` reports, main and quad pools,
  for each family's default token, one ``@rule`` token, ``--iterative``
  and a known σ²;
- ``penalty-tables.txt``: ``penalty-table`` at m=40 for a few tokens;
- ``campaign/``: the result files of a 16-cell campaign
  (``campaign.cfg``) and its ``summarize`` output, ``summary.txt``;
- ``north-star.txt``: ``penalty-table`` at m=1000 for msfdr:0.05, and
  an msfdr:0.05 ``select`` on a seeded n=4000, m=1000 pool. That pool
  is drawn in process (``north_star_dataset``), so no large file is
  committed, and the select runs through the library: its k, selected
  names and sigma2, the first 50 entries of its path and its trace at
  k = 0..50.

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

import numpy as np

from stepfdr import cli
from stepfdr.dataio import diabetes_path
from stepfdr.regress import Dataset, forward_path, standardize
from stepfdr.selector import parse_method, select

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
NORTH_STAR = HERE / "north-star.txt"
NORTH_STAR_N, NORTH_STAR_M, NORTH_STAR_SEED = 4000, 1000, 2009
NORTH_STAR_METHOD = "msfdr:0.05"
NORTH_STAR_ENTRIES = 50
# The section keys of north-star.txt; the table's key is its command line.
NORTH_STAR_TABLE = f"penalty-table --method {NORTH_STAR_METHOD} --m {NORTH_STAR_M}"
NORTH_STAR_SELECT = f"select {NORTH_STAR_METHOD}"


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


def north_star_dataset() -> Dataset:
    """Standardized seeded pool: Gaussian X, 40 true effects from 0.02 to 0.2, unit noise."""
    rng = np.random.default_rng(NORTH_STAR_SEED)
    X = rng.standard_normal((NORTH_STAR_N, NORTH_STAR_M))
    beta = np.zeros(NORTH_STAR_M)
    beta[rng.choice(NORTH_STAR_M, 40, replace=False)] = np.linspace(0.02, 0.2, 40)
    y = X @ beta + rng.standard_normal(NORTH_STAR_N)
    names = tuple(f"x{j:04d}" for j in range(NORTH_STAR_M))
    return standardize(Dataset(y=y, X=X, names=names))


def north_star_select() -> str:
    """k, selected names and sigma2 of the north-star select, its first
    path entries and its trace up to that many entries."""
    ds = north_star_dataset()
    path = forward_path(ds)
    res = select(ds, parse_method(NORTH_STAR_METHOD)[0], path=path)
    lines = [f"# n\t{ds.n}\tm\t{ds.m}\tseed\t{NORTH_STAR_SEED}",
             f"# sigma2\t{res.sigma2:.17g}\t{res.sigma2_source}",
             f"# k_selected\t{res.k_selected}"]
    lines += [f"selected\t{ds.names[j]}" for j in res.selected]
    lines += [f"entered\t{ds.names[j]}" for j in path.entered[:NORTH_STAR_ENTRIES]]
    lines += ["k\tpenalized_rss"]
    lines += [f"{k}\t{t:.17g}" for k, t in enumerate(res.trace[:NORTH_STAR_ENTRIES + 1].tolist())]
    return "\n".join(lines) + "\n"


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
    write_sections(NORTH_STAR, {NORTH_STAR_TABLE: run_cli(NORTH_STAR_TABLE.split()),
                                NORTH_STAR_SELECT: north_star_select()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
