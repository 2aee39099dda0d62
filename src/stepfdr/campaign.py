"""The campaign directory: the campaign file, its grid of cells, and
one result file per cell.

A campaign file holds ``key = value`` lines whose keys are
``SimConfig``'s fields and ``methods``. Each cell's result is written
to ``<key>.tsv`` in the output directory: one ``# name<TAB>value`` line
per ``SimConfig`` field, the oracle MSPE and the dominance count, then
a table with one row per method. A file is written to a temporary name
and renamed into place. A cell is done, and not re-run on resume, when
its file holds the cell's config and method list.
"""

from __future__ import annotations

import itertools
import os
import typing
from dataclasses import fields
from pathlib import Path
from typing import List

from .selector import method_label, parse_method
from .simlab import ConfigOutcome, MethodOutcome, SimConfig

__all__ = ["read_campaign_file", "campaign_grid", "write_outcome", "read_outcome",
           "pending_cells", "read_results"]

_FLOAT_FMT = "%.17g"  # reads back as the same float


def _file_name(config: SimConfig) -> str:
    return f"{config.key()}.tsv"


def read_campaign_file(path) -> dict:
    """Parse the `key = value` campaign format (lists comma-separated).

    Keys are those of ``campaign_grid``, each given once.  Lines
    starting with '#' are comments.
    """
    cfg, lines = {}, {}
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
    """A config value as written to a result file (floats as %.17g, bools as True/False)."""
    as_float = _CONFIG_TYPES[name] not in (int, bool) and not isinstance(value, str)
    return _FLOAT_FMT % value if as_float else str(value)


def _config_value(name: str, text: str):
    """Parse a config value by its field's declared type ("auto" where allowed).

    A malformed value is reported with the field's name.
    """
    kind = _CONFIG_TYPES[name]
    if kind is bool:
        if text not in ("True", "False"):
            raise ValueError(f"{name}: {text!r} is not a boolean")
        return text == "True"
    if kind not in (int, float) and text == "auto":
        return "auto"
    return _number(name, int if kind is int else float, text)


def _number(name: str, kind: type, text: str):
    """``text`` as ``kind``, int or float; a malformed value is reported with the line's name."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name}: {text!r} is not {what}") from None


# The grid axes with their default lists. Every other SimConfig field
# is a scalar campaign key, with SimConfig's default.
_GRID_AXES = {"m": "20", "rho": "-0.5,0,0.5", "beta_type": "1,2,3", "p_index": "1,2,3,4,5,6"}


def campaign_grid(cfg: dict):
    """Cells, methods and labels of a campaign: each combination of the
    grid axes, with the scalar keys (or SimConfig's defaults) in each cell.

    The keys are SimConfig's fields and ``methods``.  Unknown keys, two
    method tokens with one label, and two cells that would share a
    result file, are rejected.
    """
    unknown = sorted(set(cfg) - set(_CONFIG_TYPES) - {"methods"})
    if unknown:
        raise ValueError(f"unknown campaign key(s): {', '.join(unknown)}")
    scalars = {key: _config_value(key, cfg[key]) for key in _CONFIG_TYPES
               if key in cfg and key not in _GRID_AXES}
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
                             f"result file {_file_name(config)}")
    return grid, methods, labels


def _cell(config: SimConfig) -> str:
    return "(" + ", ".join(f"{key}={getattr(config, key)!r}" for key in _GRID_AXES) + ")"


_TABLE_COLUMNS = ("method", "mean_mspe", "oracle_mspe", "relative_loss", "se_relative_loss")
_TABLE_HEADER = "\t".join(_TABLE_COLUMNS)


def write_outcome(outcome: ConfigOutcome, out_dir: Path) -> Path:
    """Write one cell's result file atomically (temp file, then rename)."""
    c = outcome.config
    path = out_dir / _file_name(c)
    lines = [f"# {name}\t{_config_text(name, getattr(c, name))}" for name in _CONFIG_TYPES]
    lines += [f"# oracle_mspe\t{_FLOAT_FMT % outcome.oracle_mspe}",
              f"# dominance_violations\t{outcome.dominance_violations}", _TABLE_HEADER]
    row = "\t".join(["%s"] + [_FLOAT_FMT] * 4)
    lines += [row % (mo.label, mo.mean_mspe, outcome.oracle_mspe, mo.relative_loss,
                     mo.se_relative_loss) for mo in outcome.methods]
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
        if ln.startswith("#"):
            name, _, value = ln[1:].strip().partition("\t")
            meta[name] = value
        elif ln.strip():
            raise ValueError(f"{path}: line {lineno} is not a '# name<TAB>value' line")
    missing = [name for name in (*_CONFIG_TYPES, "oracle_mspe", "dominance_violations")
               if name not in meta]
    if missing:
        raise ValueError(f"{path}: result file lacks {', '.join(missing)}")
    oracle_text = meta["oracle_mspe"]
    try:
        config = SimConfig(**{name: _config_value(name, meta[name]) for name in _CONFIG_TYPES})
        oracle = _number("oracle_mspe", float, oracle_text)
        violations = _number("dominance_violations", int, meta["dominance_violations"])
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


def pending_cells(grid: List[SimConfig], labels: List[str], out_dir: Path, force: bool) -> dict:
    """The cells of ``grid`` whose result file in ``out_dir`` does not hold
    their config and ``labels``, in order, each mapped to why its file is
    re-run (None when there is none, or with ``force``)."""
    pending = {}
    for config in grid:
        path = out_dir / _file_name(config)
        if force or not path.exists():
            pending[config] = None
            continue
        try:
            done = read_outcome(path)
        except (OSError, ValueError) as exc:
            pending[config] = f"an unreadable file ({exc})"
            continue
        if done.config != config:
            pending[config] = "a different configuration"
        elif [mo.label for mo in done.methods] != labels:
            pending[config] = "a different method list"
    return pending


def read_results(in_dir) -> List[ConfigOutcome]:
    """Every result file in ``in_dir``, in file-name order; there must be
    one.  ``loss_matrix`` checks that they hold the same method labels."""
    in_dir = Path(in_dir)
    try:  # the names Path.glob("*.tsv") yields, dot-named ones too
        files = [in_dir / name for name in sorted(os.listdir(in_dir)) if name.endswith(".tsv")]
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        files = []
    if not files:
        raise ValueError(f"no campaign output files found in {in_dir}")
    return [read_outcome(f) for f in files]
