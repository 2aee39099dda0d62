"""Delimited-text ingestion and quadratic term expansion."""

from __future__ import annotations

import codecs
import contextlib
import importlib.resources
import io
import os
import signal
import struct
import threading
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .regress import Dataset, _first_nonfinite, standardize

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


# Body size (bytes after the header) from which ingest parses in forked
# children. On a 2-CPU Xeon VM (numpy 2.4.6, 51-column tables) two
# children tied one np.loadtxt at 1.0-1.2 MB (a fork costs about 2.5 ms)
# and won from 1.4 MB in every sweep.
SPLIT_BYTES = 3 << 19

_SHAPE = struct.Struct("<qq")


def ingest(path, response: str, standardize_data: bool = True) -> Dataset:
    """Read a delimited text file with a header row into a Dataset.

    The named response column is separated out; remaining columns
    become candidates.  Header names must be distinct.  Cells must be
    finite numbers; errors name the offending row and column.  An empty
    file, a repeated name and a missing response are rejected from the
    header, before any of the body is parsed.  A leading UTF-8
    byte-order mark, as spreadsheet programs write, is skipped.

    At most two arrays the size of X are alive at any time: the parsed
    table and X while the columns are copied out, then X and its
    standardized copy.

    numpy parses the data in one streaming pass.  A body of at least
    ``SPLIT_BYTES`` is cut at newlines into one part per usable CPU and
    each part is parsed by a forked child (see ``_load_parts``); the
    children hold their own parts, and this process only reads their
    rows into the table, so its peak stays as above.  Whenever numpy or
    a child fails, or the array lacks 3 rows, a column per name or
    finite cells, the line-by-line parser reads the body instead: it
    raises the error naming row and column, or parses what only
    Python's ``float`` accepts (such as ``1_000``).

    With ``standardize_data=False`` X and y are returned as read; the
    dataset still selects with an intercept (see ``Dataset``).
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        line = next((ln for ln in fh if ln.strip()), None)
        if line is None:
            raise ValueError(f"{path}: empty file")
        delim = _sniff_delimiter(line)
        header = _header_names(path, line, delim)
        if response not in header:
            raise ValueError(f"{path}: response column {response!r} not found in header")
        parts = _body_parts(path)
        data = _load_numeric(fh, delim) if parts is None else _load_parts(path, parts, delim)
    if (data is None or data.shape[0] < 3 or data.shape[1] != len(header)
            or _first_nonfinite(data) is not None):
        data = _parse_lines(path, header, delim)
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
    # The table passed its scan (or _parse_lines's), so its columns are not scanned again.
    ds = Dataset._derived(y, X, [header[j] for j in keep])
    return standardize(ds) if standardize_data else ds


def _body_parts(path) -> Optional[list]:
    """Byte ranges of the body after the header, one per child parser, or None.

    None keeps the parse in this process: a body under ``SPLIT_BYTES``,
    fewer than two usable CPUs, no ``os.fork``, or a second thread
    alive (a forked child gets a copy of every lock, held or not).
    Each part but the last ends just after a newline, and each is at
    least about half of ``SPLIT_BYTES``.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    size = os.path.getsize(path)
    if cpus < 2 or size < SPLIT_BYTES:
        return None
    with open(path, "rb") as fh:
        # The header is the first line that is not blank as text, after
        # the byte-order mark that the text paths' "utf-8-sig" drops.
        fh.seek(3 if fh.read(3) == codecs.BOM_UTF8 else 0)
        start = next((fh.tell() for ln in fh if ln.decode("utf-8", "replace").strip()), size)
        count = min(cpus, 2 * (size - start) // SPLIT_BYTES)
        if count < 2:
            return None
        cuts = [start]
        for i in range(1, count):
            fh.seek(start + i * (size - start) // count)
            fh.readline()
            cuts.append(max(fh.tell(), cuts[-1]))
    cuts.append(size)
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _load_parts(path, parts: list, delim: str) -> Optional[np.ndarray]:
    """The body parsed by one forked child per byte range, or None if a part fails.

    Each child runs ``_load_numeric`` on its part and writes its shape,
    then its float64 rows, to a pipe. This process parses nothing: once
    every child has sent its shape it allocates the C-ordered table
    (the layout ``np.loadtxt`` returns) and reads each part straight
    into its rows. A fork or a child that fails, a column count that
    differs, or a short read gives None. Every child is killed, if
    still running, and reaped before this returns or raises.
    """
    children = []  # (pid, read end of its pipe)
    try:
        for lo, hi in parts:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                return None
            if pid == 0:
                _parse_part(path, lo, hi, delim, w)
            os.close(w)
            # A buffered reader's readinto fills the view until the pipe ends.
            children.append((pid, open(r, "rb")))
        shapes = []
        for _, pipe in children:
            head = bytearray(_SHAPE.size)
            if pipe.readinto(head) != len(head):
                return None
            shapes.append(_SHAPE.unpack(head))
        widths = {cols for rows, cols in shapes if rows}
        if len(widths) != 1:
            return None
        table = np.empty((sum(rows for rows, _ in shapes), widths.pop()))
        view = memoryview(table).cast("B")
        pos = 0
        for (_, pipe), (rows, _) in zip(children, shapes):
            end = pos + rows * table.shape[1] * table.itemsize
            if pipe.readinto(view[pos:end]) != end - pos:
                return None
            pos = end
        return table
    finally:
        for pid, pipe in children:
            pipe.close()
            # A child still parsing is of no use once its pipe is closed.
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _parse_part(path, lo: int, hi: int, delim: str, w: int):
    """In a forked child: parse bytes [lo, hi) of the file and write them to fd w.

    A part numpy rejects is reported by writing nothing. The child
    leaves through ``os._exit``, so it never returns into the caller's
    code or runs the parent's exit handlers.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(lo)
            text = io.TextIOWrapper(io.BytesIO(fh.read(hi - lo)), encoding="utf-8")
        data = _load_numeric(text, delim)
        if data is not None:
            with open(w, "wb") as out:
                out.write(_SHAPE.pack(*data.shape))
                out.write(data)
    finally:
        os._exit(0)


def _parse_lines(path, header: list, delim: str) -> np.ndarray:
    """The body of a file (its lines after the header), parsed cell by cell with ``float``.

    The fallback of ``ingest``: every error names its row and column.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()][1:]
    if len(lines) < 3:
        raise ValueError(f"{path}: need at least 3 data rows, found {len(lines)}")
    rows = []
    for ridx, line in enumerate(lines, start=1):
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
    bad = _first_nonfinite(data)
    if bad is not None:
        row, col = bad
        raise ValueError(f"{path}: non-finite cell at row {row + 1}, column {header[col]!r}: "
                         f"{lines[row].split(delim)[col]!r}")
    return data


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
    # A product of finite cells is finite, or infinite where it
    # overflows; standardize then rejects its column by name.
    with np.errstate(over="ignore"):
        for col, (a, b) in enumerate(pairs, base.m):
            np.multiply(base.X[:, a], base.X[:, b], out=X[:, col])
        for col, j in enumerate(squared, base.m + len(pairs)):
            np.square(base.X[:, j], out=X[:, col])
    return standardize(Dataset._derived(dataset.y, X, names))


def diabetes_path() -> str:
    """Filesystem path of the bundled diabetes fixture."""
    return str(importlib.resources.files("stepfdr").joinpath("data/diabetes.tsv"))


def load_diabetes(standardize_data: bool = True) -> Dataset:
    return ingest(diabetes_path(), response="Y", standardize_data=standardize_data)
