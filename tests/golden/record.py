"""Write the committed output record in this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py [--check]

With ``--check`` it writes nothing: it recomputes the record, compares
it byte for byte with the committed files, and exits 1 naming the first
file and line that differ (0 when every file matches).
As a script it runs numpy with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``, as the benchmark does), so neither the
record nor ``--check`` depends on the host's default thread count.

It writes, all through ``stepfdr.cli.main``, whose every request must
succeed and write nothing to stderr (no warning, no log line):

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

import argparse
import contextlib
import io
import logging
import os
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Optional

if __name__ == "__main__":
    # One BLAS thread, as bench/record_reference.py pins, so the record
    # holds the same bits on any host; set before numpy is first imported.
    # tests/test_golden.py imports this module and leaves its own setting.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    """stdout of one ``stepfdr`` command, which must succeed and write
    nothing to stderr. Its warnings and ``stepfdr`` log records count as
    stderr output, also under pytest, which would catch them first."""
    out, err = io.StringIO(), io.StringIO()
    logger, handler = logging.getLogger("stepfdr"), logging.StreamHandler(err)
    logger.addHandler(handler)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            status = cli.main(argv)
    finally:
        logger.removeHandler(handler)
    errors = err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    if status != 0:
        raise RuntimeError(f"stepfdr {' '.join(argv)} failed: {errors.strip()}")
    if errors:
        raise RuntimeError(f"stepfdr {' '.join(argv)} wrote to stderr: {errors.strip()}")
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


def sections_text(sections: dict) -> str:
    """Outputs under one "== <key>" line each, in order."""
    return "".join(f"== {key}\n{text}" for key, text in sections.items())


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


def recompute(work: Path) -> dict:
    """Every file of the record, by its path under this directory, as bytes.

    The campaign's config and result files are written under ``work``.
    """
    config = work / "campaign.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in CAMPAIGN.items()))
    results = work / CAMPAIGN_DIR.name
    run_cli(["simulate", "--config", str(config), "--out", str(results), "--workers", "1"])
    texts = {
        "select.txt": sections_text({req: select_report(req) for req in SELECT_REQUESTS}),
        "penalty-tables.txt": sections_text({m: penalty_table(m) for m in TABLE_METHODS}),
        "campaign.cfg": config.read_text(),
        f"{results.name}/summary.txt": run_cli(["summarize", "--in", str(results)]),
        ACCEPTANCE_LOSSES.name: acceptance_losses(),
        NORTH_STAR.name: sections_text({NORTH_STAR_TABLE: run_cli(NORTH_STAR_TABLE.split()),
                                        NORTH_STAR_SELECT: north_star_select()}),
    }
    files = {name: text.encode() for name, text in texts.items()}
    files.update({f"{results.name}/{f.name}": f.read_bytes() for f in sorted(results.glob("*.tsv"))})
    return files


def committed(names) -> dict:
    """The committed files of these names, and every committed result file, by name."""
    paths = {HERE / name for name in names} | set(CAMPAIGN_DIR.glob("*.tsv"))
    return {str(p.relative_to(HERE)): p.read_bytes() for p in paths if p.exists()}


def first_difference(want: dict, got: dict) -> Optional[str]:
    """Where the files ``got`` first differ from ``want`` (both by path), or None."""
    for name in sorted(want.keys() | got.keys()):
        if name not in got:
            return f"{name}: committed, but not in the recomputed record"
        if name not in want:
            return f"{name}: recomputed, but not committed"
        want_lines = want[name].splitlines(keepends=True)
        got_lines = got[name].splitlines(keepends=True)
        for line, (w, g) in enumerate(zip(want_lines + [b""], got_lines + [b""]), start=1):
            if w != g:
                return (f"{name}, line {line}:\n  committed:  {w.decode()!r}\n"
                        f"  recomputed: {g.decode()!r}")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed files instead of writing them")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        files = recompute(Path(work))
    if args.check:
        where = first_difference(committed(files), files)
        if where is not None:
            print(f"record differs: {where}", file=sys.stderr)
            return 1
        print(f"record matches: {len(files)} files")
        return 0
    CAMPAIGN_DIR.mkdir(exist_ok=True)
    for stale in CAMPAIGN_DIR.glob("*.tsv"):
        stale.unlink()
    for name, data in files.items():
        (HERE / name).write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
