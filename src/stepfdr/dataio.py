"""Delimited-text ingestion and quadratic term expansion."""

from __future__ import annotations

import importlib.resources
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .regress import Dataset, standardize

__all__ = ["ExpansionSpec", "ingest", "expand", "diabetes_path", "load_diabetes"]


@dataclass(frozen=True)
class ExpansionSpec:
    """Which quadratic terms to append to a pool of main effects."""

    square_excluded: tuple = ()
    include_interactions: bool = True

    def __post_init__(self):
        object.__setattr__(self, "square_excluded", tuple(self.square_excluded))


def _sniff_delimiter(header: str) -> str:
    return "\t" if header.count("\t") >= header.count(",") else ","


def _header_names(path, line: str, delim: str) -> list:
    """Column names of a header line; a name given twice is rejected."""
    header = [h.strip() for h in line.split(delim)]
    first: dict = {}
    for col, name in enumerate(header, start=1):
        if first.setdefault(name, col) != col:
            raise ValueError(
                f"{path}: header name {name!r} appears twice, in columns {first[name]} and {col}"
            )
    return header


def _load_numeric(fh, delim: str) -> Optional[np.ndarray]:
    """The rest of an open file as a 2-d float array, or None if numpy rejects it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # raised when no data rows follow
        try:
            return np.loadtxt(fh, delimiter=delim, comments=None, ndmin=2)
        except ValueError:
            return None


def ingest(path, response: str, standardize_data: bool = True) -> Dataset:
    """Read a delimited text file with a header row into a Dataset.

    The named response column is separated out; remaining columns
    become candidates.  Header names must be distinct.  Cells must be
    finite numbers; errors name the offending row and column.

    At most two arrays the size of X are alive at any time: the parsed
    table and X while the columns are copied out, then X and its
    standardized copy (plus one block of columns while ``standardize``
    sums their squares).

    numpy parses the data in one streaming pass.  Whenever it fails, or
    its array lacks the response, 3 rows, a column per name or finite
    row sums, the line-by-line parser reads the file instead: it raises
    the error naming row and column, or parses what only Python's
    ``float`` accepts (such as ``1_000``).
    """
    data = None
    with open(path, "r", encoding="utf-8") as fh:
        line = next((ln for ln in fh if ln.strip()), None)
        if line is not None:
            delim = _sniff_delimiter(line)
            header = _header_names(path, line, delim)
            data = _load_numeric(fh, delim)
    if (data is None or response not in header or data.shape[0] < 3
            or data.shape[1] != len(header) or not np.isfinite(data.sum(axis=1)).all()):
        header, data = _parse_lines(path, response)
    ycol = header.index(response)
    keep = [j for j in range(len(header)) if j != ycol]
    # A view of y would keep the whole table alive; with it dropped,
    # standardizing holds X and its centered copy, not a third array.
    # X keeps the column-major layout data[:, keep] gives it: layout
    # fixes the order of every column sum downstream, so a C-ordered X
    # would move the last digits of the results.
    y = data[:, ycol].copy()
    X = data[:, keep]
    del data
    ds = Dataset(y=y, X=X, names=tuple(header[j] for j in keep))
    return standardize(ds) if standardize_data else ds


def _parse_lines(path, response: str):
    """Header names and data array of a file, parsed cell by cell with ``float``.

    The fallback of ``ingest``: every error names its row and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    delim = _sniff_delimiter(lines[0])
    header = _header_names(path, lines[0], delim)
    if response not in header:
        raise ValueError(f"{path}: response column {response!r} not found in header")
    if len(lines) - 1 < 3:
        raise ValueError(f"{path}: need at least 3 data rows, found {len(lines) - 1}")
    rows = []
    for ridx, line in enumerate(lines[1:], start=1):
        cells = line.split(delim)
        if len(cells) != len(header):
            raise ValueError(f"{path}: row {ridx} has {len(cells)} cells, expected {len(header)}")
        row = []
        for cidx, cell in enumerate(cells):
            try:
                row.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {ridx}, column {header[cidx]!r}: {cell!r}"
                ) from None
        rows.append(row)
    data = np.array(rows)
    # A row sum is non-finite when a cell is (or when it overflows); row
    # sums keep the check from adding a matrix-sized temporary.
    for ridx in np.flatnonzero(~np.isfinite(data.sum(axis=1))):
        bad = np.flatnonzero(~np.isfinite(data[ridx]))
        if bad.size:
            raise ValueError(
                f"{path}: non-finite cell at row {ridx + 1}, column {header[bad[0]]!r}: "
                f"{lines[ridx + 1].split(delim)[bad[0]]!r}"
            )
    return header, data


def expand(dataset: Dataset, spec: ExpansionSpec) -> Dataset:
    """Append pairwise products and permitted squares, then re-standardize.

    Products are taken between the standardized main-effect columns, so
    the expanded pool matches the usual quadratic construction for
    standardized regression data.
    """
    base = dataset if dataset.standardized else standardize(dataset)
    unknown = set(spec.square_excluded) - set(base.names)
    if unknown:
        raise ValueError(f"unknown column name(s) in square exclusions: {sorted(unknown)}")
    pairs = list(combinations(range(base.m), 2)) if spec.include_interactions else []
    squared = [j for j in range(base.m) if base.names[j] not in spec.square_excluded]
    names = list(base.names)
    names += [f"{base.names[a]}*{base.names[b]}" for a, b in pairs]
    names += [f"{base.names[j]}^2" for j in squared]
    # Each term is written into its column of one C-ordered array: the
    # layout a stack of the columns would have, which fixes the order of
    # standardize's column sums.
    X = np.empty((base.n, len(names)))
    X[:, :base.m] = base.X
    for col, (a, b) in enumerate(pairs, base.m):
        np.multiply(base.X[:, a], base.X[:, b], out=X[:, col])
    for col, j in enumerate(squared, base.m + len(pairs)):
        np.square(base.X[:, j], out=X[:, col])
    raw = Dataset(
        y=dataset.y,
        X=X,
        names=tuple(names),
        intercept_forced=dataset.intercept_forced,
    )
    return standardize(raw)


def diabetes_path() -> str:
    """Filesystem path of the bundled diabetes fixture."""
    return str(importlib.resources.files("stepfdr").joinpath("data/diabetes.tsv"))


def load_diabetes(standardize_data: bool = True) -> Dataset:
    return ingest(diabetes_path(), response="Y", standardize_data=standardize_data)
