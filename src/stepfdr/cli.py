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
import os
import sys
import typing
from dataclasses import fields
from pathlib import Path
from typing import List, Optional, Sequence

from .dataio import ExpansionSpec, expand, ingest
from .penalties import penalty_table
from .regress import forward_path
from .selector import RULES, method_label, msfdr_iterative, parse_method, select
from .simlab import (ConfigOutcome, MethodOutcome, SimConfig, best_q_tables, minimax_summary,
                     run_config)

_FLOAT_FMT = "%.17g"


def _fmt(v: float) -> str:
    return _FLOAT_FMT % v


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _cmd_select(args) -> int:
    spec, rule = parse_method(_method_token(args))
    if args.rule and rule:
        raise ValueError(f"--rule {args.rule} given, but method {args.method!r} already has a rule")
    if args.iterative and spec.family != "msfdr":
        raise ValueError(f"--iterative applies to msfdr only, not {spec.family}")
    if args.iterative and (rule or args.rule):
        raise ValueError("--iterative takes no stopping rule (--rule or @rule)")
    if not args.expand and (args.square_exclude is not None or args.no_interactions):
        raise ValueError("--square-exclude and --no-interactions need --expand")
    rule = args.rule or rule
    sigma2 = None
    if args.sigma2 and args.sigma2 != "full-model":
        if not args.sigma2.startswith("known:"):
            raise ValueError("--sigma2 expects 'full-model' or 'known:<value>'")
        try:
            sigma2 = float(args.sigma2.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"--sigma2 {args.sigma2!r}: the known value is not a number") from None
    ds = ingest(args.data, response=args.response)
    if args.expand:
        ds = expand(
            ds,
            ExpansionSpec(
                square_excluded=tuple(args.square_exclude or ()),
                include_interactions=not args.no_interactions,
            ),
        )

    path = forward_path(ds, sigma2=sigma2)
    if args.iterative:
        res = msfdr_iterative(ds, spec.q, sigma2=sigma2, path=path)
    else:
        res = select(ds, spec, rule=rule, sigma2=sigma2, path=path)

    lines = []
    lines.append(f"# method\t{spec.label()}")
    lines.append(f"# rule\t{res.rule}")
    lines.append(f"# sigma2\t{_fmt(res.sigma2)}\t{res.sigma2_source}")
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
    spec, rule = parse_method(_method_token(args))
    if rule:
        raise ValueError(f"penalty-table takes no stopping rule, got {args.method!r}")
    if args.m < 1:
        raise ValueError(f"--m {args.m}: the pool size must be at least 1")
    if args.kmax is not None and not 1 <= args.kmax <= args.m:
        raise ValueError(f"--kmax {args.kmax}: must lie in [1, {args.m}] (the --m value)")
    table = penalty_table(spec, args.m, args.kmax)
    head = f"{spec.label()}\t{table.m}\t"
    # One pass over Python floats (a != a marks a nan): indexing the
    # arrays and formatting numpy scalars cell by cell costs more than
    # the table itself.
    out = ["family\tm\tk\talpha_k\tlambda_k\tstep_cost_k"]
    out += [
        f"{head}{k}\t{'' if a != a else _FLOAT_FMT % a}\t{_FLOAT_FMT % lam}\t{_FLOAT_FMT % c}"
        for k, (a, lam, c) in enumerate(
            zip(table.alpha.tolist(), table.lam.tolist(), table.cost.tolist()), 1)
    ]
    text = "\n".join(out) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def read_campaign_file(path) -> dict:
    """Parse the `key = value` campaign format (lists comma-separated).

    Keys are those of ``campaign_grid``, each given once.  Lines
    starting with '#' are comments.
    """
    cfg: dict = {}
    lines: dict = {}
    for lineno, ln in enumerate(Path(path).read_text().splitlines(), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError(f"{path}: malformed line {ln!r} (expected key = value)")
        key, _, val = ln.partition("=")
        key = key.strip().lower()
        if key in cfg:
            raise ValueError(f"{path}: key {key!r} is set on lines {lines[key]} and {lineno}")
        cfg[key], lines[key] = val.strip(), lineno
    return cfg


# Each SimConfig field, in order, with its declared type, which decides
# how its value is written to and read from text.
_hints = typing.get_type_hints(SimConfig)
_CONFIG_TYPES = {f.name: _hints[f.name] for f in fields(SimConfig)}


def _config_text(name: str, value) -> str:
    """A config value as written to a result file (floats as %.17g)."""
    return str(value) if _CONFIG_TYPES[name] is int or isinstance(value, str) else _fmt(value)


def _config_value(name: str, text: str):
    """Parse a config value by its field's declared type ("auto" where allowed).

    A malformed value is reported with the field's name.
    """
    kind = _CONFIG_TYPES[name]
    if kind not in (int, float) and text == "auto":
        return "auto"
    try:
        return int(text) if kind is int else float(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name}: {text!r} is not {what}") from None


# Grid axes with their default lists, and the scalar keys, whose
# defaults are SimConfig's.
_GRID_AXES = {"m": "20", "rho": "-0.5,0,0.5", "beta_type": "1,2,3", "p_index": "1,2,3,4,5,6"}
_SCALAR_KEYS = ("seed", "replications", "c_scale", "effect_target")


def campaign_grid(cfg: dict):
    """Cells, methods and labels of a campaign: each combination of the
    grid axes, with the scalar keys (or SimConfig's defaults) in each cell.

    Unknown keys, two method tokens with one label, and two cells that
    would share a result file, are rejected.
    """
    unknown = sorted(set(cfg) - set(_GRID_AXES) - set(_SCALAR_KEYS) - {"methods"})
    if unknown:
        raise ValueError(f"unknown campaign key(s): {', '.join(unknown)}")
    scalars = {key: _config_value(key, cfg[key]) for key in _SCALAR_KEYS if key in cfg}
    axes = {key: [_config_value(key, tok) for tok in cfg.get(key, default).split(",")]
            for key, default in _GRID_AXES.items()}
    methods = [parse_method(tok) for tok in cfg.get("methods", "msfdr:0.05").split(",")]
    labels = [method_label(spec, rule)[1] for spec, rule in methods]
    twice = [label for i, label in enumerate(labels) if label in labels[:i]]
    if twice:
        raise ValueError(f"methods: two tokens name method {twice[0]!r}")
    grid = [SimConfig(**dict(zip(axes, cell)), **scalars)
            for cell in itertools.product(*axes.values())]
    cells = {}
    for config in grid:
        other = cells.setdefault(config.key(), config)
        if other is not config:
            raise ValueError(f"cells {_cell(other)} and {_cell(config)} both map to "
                             f"result file {config.key()}.tsv")
    return grid, methods, labels


def _cell(config: SimConfig) -> str:
    return "(" + ", ".join(f"{key}={getattr(config, key)!r}" for key in _GRID_AXES) + ")"


_TABLE_COLUMNS = ("method", "mean_mspe", "oracle_mspe", "relative_loss", "se_relative_loss")
_TABLE_HEADER = "\t".join(_TABLE_COLUMNS)


def write_outcome(outcome: ConfigOutcome, out_dir: Path) -> Path:
    """Write one cell's result file atomically (temp file, then rename)."""
    c = outcome.config
    path = out_dir / f"{c.key()}.tsv"
    lines = [f"# {name}\t{_config_text(name, getattr(c, name))}" for name in _CONFIG_TYPES]
    lines += [
        f"# oracle_mspe\t{_fmt(outcome.oracle_mspe)}",
        f"# dominance_violations\t{outcome.dominance_violations}",
        _TABLE_HEADER,
    ]
    for mo in outcome.methods:
        lines.append(
            f"{mo.label}\t{_fmt(mo.mean_mspe)}\t{_fmt(outcome.oracle_mspe)}"
            f"\t{_fmt(mo.relative_loss)}\t{_fmt(mo.se_relative_loss)}"
        )
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_outcome(path: Path) -> ConfigOutcome:
    """Read one cell's result file: '# name<TAB>value' lines, the method
    table's header, then one row per method.

    Every row repeats the cell's oracle MSPE as written on its
    '# oracle_mspe' line.  Errors name the file, and the line and column
    where they can.
    """
    lines = path.read_bytes().decode().splitlines()
    try:
        start = lines.index(_TABLE_HEADER) + 1
    except ValueError:
        raise ValueError(f"{path}: result file lacks the method table header") from None
    meta = {}
    for lineno, ln in enumerate(lines[:start - 1], 1):
        if not ln.startswith("#"):
            if ln.strip():
                raise ValueError(f"{path}: line {lineno} is not a '# name<TAB>value' line")
            continue
        name, _, value = ln[1:].strip().partition("\t")
        meta[name] = value
    missing = [name for name in (*_CONFIG_TYPES, "oracle_mspe") if name not in meta]
    if missing:
        raise ValueError(f"{path}: result file lacks {', '.join(missing)}")
    oracle_text = meta["oracle_mspe"]
    try:
        config = SimConfig(**{name: _config_value(name, meta[name]) for name in _CONFIG_TYPES})
        oracle = float(oracle_text)
        violations = int(meta.get("dominance_violations") or 0)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    methods = []
    for lineno, ln in enumerate(lines[start:], start + 1):
        cells = ln.split("\t")
        if len(cells) != len(_TABLE_COLUMNS):
            if not ln.strip():
                continue
            raise ValueError(f"{path}: line {lineno} has {len(cells)} cells, "
                             f"expected {len(_TABLE_COLUMNS)}")
        if cells[2] != oracle_text:
            raise ValueError(f"{path}: line {lineno}, column 'oracle_mspe' holds {cells[2]!r}, "
                             f"not the cell's {oracle_text!r}")
        try:
            methods.append(MethodOutcome(cells[0], float(cells[1]), float(cells[3]),
                                         float(cells[4])))
        except ValueError:
            for col in (1, 3, 4):
                try:
                    float(cells[col])
                except ValueError:
                    raise ValueError(f"{path}: non-numeric cell at line {lineno}, column "
                                     f"{_TABLE_COLUMNS[col]!r}: {cells[col]!r}") from None
    if not methods:
        raise ValueError(f"{path}: result file holds no method rows")
    return ConfigOutcome(config=config, oracle_mspe=oracle, methods=tuple(methods),
                         dominance_violations=violations)


def _stale(path: Path, config: SimConfig, labels: List[str]) -> Optional[str]:
    """Why an existing result file does not hold this cell's result, or None."""
    try:
        done = read_outcome(path)
    except (OSError, ValueError) as exc:
        return f"an unreadable file ({exc})"
    if done.config != config:
        return "a different configuration"
    if [mo.label for mo in done.methods] != labels:
        return "a different method list"
    return None


def _run_one(payload):
    config, methods = payload
    return run_config(config, methods)


def _cmd_simulate(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    cfg = read_campaign_file(args.config)
    grid, methods, labels = campaign_grid(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pending = []
    for config in grid:
        target = out_dir / f"{config.key()}.tsv"
        if target.exists() and not args.force:
            reason = _stale(target, config, labels)
            if reason is None:
                continue
            print(f"rerun {config.key()}: result file holds {reason}")
        pending.append(config)
    workers = args.workers or os.cpu_count() or 1
    with contextlib.ExitStack() as stack:
        run_all = map
        if workers > 1 and len(pending) > 1:
            # Imported here: loading it pulls in multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            run_all = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for outcome in run_all(_run_one, [(c, methods) for c in pending]):
            write_outcome(outcome, out_dir)
            print(f"done {outcome.config.key()}")
    print(f"{len(pending)} configuration(s) run, {len(grid) - len(pending)} skipped")
    return 0


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def _cmd_summarize(args) -> int:
    worst_k = args.worst_k
    if worst_k != "ALL":
        try:
            worst_k = int(worst_k)
        except ValueError:
            worst_k = 0
        if worst_k < 1:
            raise ValueError(f"--worst-k {args.worst_k!r}: expected a positive integer or ALL")
    in_dir = Path(args.in_dir)
    files = sorted(in_dir.glob("*.tsv"))
    if not files:
        raise ValueError(f"no campaign output files found in {in_dir}")
    outcomes = [read_outcome(f) for f in files]
    labels = [mo.label for mo in outcomes[0].methods]
    for f, o in zip(files, outcomes):
        other = [mo.label for mo in o.methods]
        if other != labels:
            raise ValueError(f"{f} holds methods {', '.join(other)}; "
                             f"{files[0]} holds {', '.join(labels)}")

    ms = sorted({o.config.m for o in outcomes})
    pairs = sorted({(o.config.m, o.config.rho) for o in outcomes})
    by_m = [minimax_summary([o for o in outcomes if o.config.m == m], worst_k) for m in ms]
    by_pair = [minimax_summary([o for o in outcomes if (o.config.m, o.config.rho) == pair],
                               worst_k) for pair in pairs]

    out = ["# worst-%s relative loss by m" % args.worst_k,
           "method\t" + "\t".join(f"m={m}" for m in ms)]
    out += ["\t".join([label] + ["%.4g" % summary[label] for summary in by_m])
            for label in labels]
    out += ["# worst-%s relative loss by (m, rho)" % args.worst_k,
            "method\t" + "\t".join(f"m={m},rho={r:g}" for m, r in pairs)]
    out += ["\t".join([label] + ["%.4g" % summary[label] for summary in by_pair])
            for label in labels]
    out.append("# overall worst-%s relative loss" % args.worst_k)
    overall = minimax_summary(outcomes, worst_k)
    out += [f"{label}\t{overall[label]:.4g}" for label in labels]

    for family, table in best_q_tables(outcomes).items():
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
    sel.add_argument("--q", type=float, default=None, help="FDR level shorthand")
    sel.add_argument("--rule", choices=RULES, default=None)
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
    pt.add_argument("--q", type=float, default=None)
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


def _method_token(args) -> str:
    """``--method`` with ``--q`` as its level, placed before any ``@rule``."""
    token = args.method
    if args.q is None:
        return token
    base, at, rule = token.partition("@")
    if ":" in base:
        raise ValueError(f"--q {args.q} given, but method {token!r} already has a level")
    return f"{base}:{args.q}{at}{rule}"


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
