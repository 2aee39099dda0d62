"""Command-line surface.

Subcommands: ``select`` (dataset selection report), ``penalty-table``
(figure-ready penalty dumps), ``simulate`` (Monte Carlo campaign),
``summarize`` (minimax tables over campaign output), ``selftest``
(brute-force oracle checks on small random instances).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

# Both outcome functions stay bound here: bench/tracer.py traces them as cli.*.
from .campaign import (campaign_grid, pending_cells, read_campaign_file, read_outcome,
                       read_results, write_outcome)
from .dataio import ExpansionSpec, expand, ingest
from .penalties import penalty_table
from .selector import msfdr_iterative, parse_method, select
from .simlab import loss_matrix, q_tables, run_config, worst_k_means

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _cmd_select(args) -> int:
    spec, rule = parse_method(args.method)
    if args.iterative and spec.family != "msfdr":
        raise ValueError(f"--iterative applies to msfdr only, not {spec.family}")
    if args.iterative and rule:
        raise ValueError(f"--iterative takes no stopping rule, got {args.method!r}")
    if not args.expand and (args.square_exclude is not None or args.no_interactions):
        raise ValueError("--square-exclude and --no-interactions need --expand")
    sigma2 = None
    if args.sigma2 != "full-model":
        if not args.sigma2.startswith("known:"):
            raise ValueError("--sigma2 expects 'full-model' or 'known:<value>'")
        try:
            sigma2 = float(args.sigma2.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"--sigma2 {args.sigma2!r}: the known value is not a number") from None
    ds = ingest(args.data, response=args.response)
    if args.expand:
        ds = expand(ds, ExpansionSpec(square_excluded=tuple(args.square_exclude or ()),
                                      include_interactions=not args.no_interactions))

    if args.iterative:
        res = msfdr_iterative(ds, spec.q, sigma2=sigma2)
    else:
        res = select(ds, spec, rule=rule, sigma2=sigma2)

    lines = []
    lines.append(f"# method\t{spec.label()}")
    lines.append(f"# rule\t{res.rule}")
    lines.append(f"# sigma2\t{_FLOAT_FMT % res.sigma2}\t{res.sigma2_source}")
    lines.append(f"# n\t{ds.n}\tm\t{ds.m}")
    lines.append(f"# k_selected\t{res.k_selected}")
    lines.append(f"# k_with_intercept\t{res.k_with_intercept}")
    if res.iterations is not None:
        lines.append(f"# iterations\t{res.iterations}")
    lines.append("name\tcoefficient")
    lines += [f"{ds.names[j]}\t{_FLOAT_FMT % coef}"
              for j, coef in zip(res.selected, res.coefficients.tolist())]
    lines.append("k\tpenalized_rss")
    lines += [f"{k}\t{_FLOAT_FMT % t}" for k, t in enumerate(res.trace.tolist())]
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report)
    return 0


# ---------------------------------------------------------------------------
# penalty-table
# ---------------------------------------------------------------------------


def _cmd_penalty_table(args) -> int:
    spec, rule = parse_method(args.method)
    if rule:
        raise ValueError(f"penalty-table takes no stopping rule, got {args.method!r}")
    if args.m < 1:
        raise ValueError(f"--m {args.m}: the pool size must be at least 1")
    if args.kmax is not None and not 1 <= args.kmax <= args.m:
        raise ValueError(f"--kmax {args.kmax}: must lie in [1, {args.m}] (the --m value)")
    table = penalty_table(spec, args.m, args.kmax)
    # One %-template per row over Python floats: indexing the arrays and
    # formatting numpy scalars cell by cell costs more than the table
    # itself. A family without step constants (alpha all nan) prints an
    # empty alpha cell.
    cols = (table.alpha.tolist(), table.lam.tolist(), table.cost.tolist())
    row = f"%s%d\t{_FLOAT_FMT}\t{_FLOAT_FMT}\t{_FLOAT_FMT}"
    if math.isnan(cols[0][0]):
        row, cols = f"%s%d\t\t{_FLOAT_FMT}\t{_FLOAT_FMT}", cols[1:]
    head = f"{spec.label()}\t{table.m}\t"
    out = ["family\tm\tk\talpha_k\tlambda_k\tstep_cost_k"]
    out += [row % (head, k, *cells) for k, cells in enumerate(zip(*cols), 1)]
    text = "\n".join(out) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0


# ---------------------------------------------------------------------------
# simulate and summarize (campaign.py owns the campaign directory)
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    grid, methods, labels = campaign_grid(read_campaign_file(args.config))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pending = pending_cells(grid, labels, out_dir, args.force)
    for config, reason in pending.items():
        if reason is not None:
            print(f"rerun {config.key()}: result file holds {reason}")
    workers = args.workers
    if workers is None:  # the CPUs this process may run on
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        run_all = map
        if workers > 1 and len(pending) > 1:
            # Imported here: loading it pulls in multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            run_all = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for outcome in run_all(run_config, pending, itertools.repeat(methods)):
            write_outcome(outcome, out_dir)
            print(f"done {outcome.config.key()}")
    print(f"{len(pending)} configuration(s) run, {len(grid) - len(pending)} skipped")
    return 0


def _cmd_summarize(args) -> int:
    worst_k = args.worst_k
    if worst_k != "ALL":
        try:
            worst_k = int(worst_k)
        except ValueError:
            worst_k = 0
        if worst_k < 1:
            raise ValueError(f"--worst-k {args.worst_k!r}: expected a positive integer or ALL")
    outcomes = read_results(args.in_dir)
    labels, losses = loss_matrix(outcomes)

    def worst_of(keep, worst_k=worst_k):
        """Worst-k means, in label order, over the cells whose config passes
        ``keep`` (take() copies them in C order: rows sum as in minimax_summary)."""
        return worst_k_means(losses.take([j for j, o in enumerate(outcomes)
                                          if keep(o.config)], axis=1), worst_k)

    out = []
    for by, key, head in (("m", lambda c: (c.m,), "m={}"),
                          ("(m, rho)", lambda c: (c.m, c.rho), "m={},rho={:g}")):
        groups = sorted({key(o.config) for o in outcomes})
        columns = [worst_of(lambda c: key(c) == group) for group in groups]
        out += [f"# worst-{args.worst_k} relative loss by {by}",
                "\t".join(["method"] + [head.format(*group) for group in groups])]
        out += ["\t".join([label] + ["%.4g" % column[i] for column in columns])
                for i, label in enumerate(labels)]
    overall = worst_of(lambda c: True)
    out.append(f"# overall worst-{args.worst_k} relative loss")
    out += [f"{label}\t{value:.4g}" for label, value in zip(labels, overall)]

    worst_one = overall if worst_k == 1 else worst_of(lambda c: True, 1)
    for family, table in q_tables(dict(zip(labels, worst_one))).items():
        if len(table) > 1:
            best = min(table, key=table.get)
            out.append(f"# best q for {family}: {best:g} " +
                       " ".join(f"q={q:g}:{v:.4g}" for q, v in table.items()))
    sys.stdout.write("\n".join(out) + "\n")
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _cmd_selftest(args) -> int:
    from . import selfcheck

    checks = selfcheck.run(instances=args.instances)
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0 if all(ok for _, ok in checks) else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


# Built once per process: parse_args leaves the parser unchanged, and
# building it costs more than a small select.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stepfdr",
        description="Penalized forward selection with FDR-based and competitor penalties.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sel = sub.add_parser("select", help="run one selection method on a dataset")
    sel.add_argument("--data", required=True)
    sel.add_argument("--response", required=True)
    sel.add_argument("--method", required=True, help="family[:level][@rule], e.g. msfdr:0.05")
    sel.add_argument("--sigma2", default="full-model", help="'full-model' or 'known:<value>'")
    sel.add_argument("--expand", action="store_true", help="add quadratic terms first")
    sel.add_argument("--square-exclude", nargs="*", default=None)
    sel.add_argument("--no-interactions", action="store_true")
    sel.add_argument("--iterative", action="store_true",
                     help="use the iterative p-to-enter computation (msfdr only)")
    sel.add_argument("--out", default=None)
    sel.set_defaults(func=_cmd_select)

    pt = sub.add_parser("penalty-table", help="dump penalty factors and step costs")
    pt.add_argument("--method", required=True)
    pt.add_argument("--m", type=int, required=True)
    pt.add_argument("--kmax", type=int, default=None)
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=_cmd_penalty_table)

    sim = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--workers", type=int, default=None)
    sim.add_argument("--force", action="store_true", help="re-run completed configurations")
    sim.set_defaults(func=_cmd_simulate)

    summ = sub.add_parser("summarize", help="minimax summaries over campaign output")
    summ.add_argument("--in", dest="in_dir", required=True)
    summ.add_argument("--worst-k", default="1", help="1, 2, 3, ... or ALL")
    summ.set_defaults(func=_cmd_summarize)

    st = sub.add_parser("selftest", help="brute-force oracle checks on small instances")
    st.add_argument("--instances", type=int, default=500)
    st.set_defaults(func=_cmd_selftest)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
