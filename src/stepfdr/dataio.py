"""Delimited-text ingestion and quadratic term expansion."""

from __future__ import annotations

import codecs
import contextlib
import importlib.resources
import io
import mmap
import os
import shutil
import signal
import struct
import tempfile
import threading
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

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
    """Column names of a header line; a name left empty or given twice is rejected."""
    header = [h.strip() for h in line.split(delim)]
    first: dict = {}
    for col, name in enumerate(header, start=1):
        if not name:
            raise ValueError(f"{path}: header column {col} has no name")
        if first.setdefault(name, col) != col:
            raise ValueError(f"{path}: header name {name!r} appears twice, "
                             f"in columns {first[name]} and {col}")
    return header


def _reader(raw, pos: int, newline=None):
    """A text reader of ``raw``'s file from byte ``pos`` on; closing it leaves the file open."""
    raw.seek(pos)
    return open(raw.fileno(), encoding="utf-8", newline=newline, closefd=False)


def _load_numeric(fh, delim: str) -> Optional[np.ndarray]:
    """The rest of an open file as a 2-d float array, or None if numpy rejects it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # raised when no data rows follow
        try:
            return np.loadtxt(fh, delimiter=delim, comments=None, ndmin=2)
        except ValueError:
            return None


# Body size (bytes after the header) from which ingest splits its parse.
# On a 2-CPU Xeon VM (numpy 2.4.6, 51-column tables) two forked children
# tied one np.loadtxt at 1.0-1.2 MB and won from 1.4 MB in every sweep.
SPLIT_BYTES = 3 << 19

_SHAPE = struct.Struct("<qq")


def ingest(path, response: str, standardize_data: bool = True) -> Dataset:
    """Read a delimited text file with a header row into a Dataset.

    The named response column is separated out; remaining columns
    become candidates.  The header, the first line not blank after a
    leading UTF-8 byte-order mark, must name every column once and the
    response; it is checked before the body, which every parse reads
    from its byte offset on.  Cells must be finite numbers; errors name
    the offending row and column.

    At most two arrays the size of X are alive at any time: the parsed
    table and X while the columns are copied out, then X and its
    standardized copy.

    numpy parses the body, one range of ``_body_parts`` per process
    (``_load_parts``).  If numpy or a child fails, or the array lacks 3
    rows, a column per name or finite cells, the line-by-line parser
    raises the error naming row and column, or parses what only
    Python's ``float`` accepts (such as ``1_000``).  With
    ``standardize_data=False`` X and y are returned as read; the dataset
    still selects with an intercept (see ``Dataset``).
    """
    with contextlib.ExitStack() as stack:
        raw = stack.enter_context(open(path, "rb", buffering=0))
        if not raw.seekable():  # a pipe's bytes are read once, into a file that can seek
            pipe, raw = raw, stack.enter_context(tempfile.TemporaryFile(buffering=0))
            shutil.copyfileobj(pipe, raw)
            raw.seek(0)
        start = len(codecs.BOM_UTF8) if raw.read(3) == codecs.BOM_UTF8 else 0
        # newline="" keeps line ends as read, so the lengths sum to the body's offset.
        with _reader(raw, start, newline="") as fh:
            for line in fh:
                start += len(line.encode())
                if line.strip():
                    break
            else:
                raise ValueError(f"{path}: empty file")
        delim = _sniff_delimiter(line)
        header = _header_names(path, line, delim)
        if response not in header:
            raise ValueError(f"{path}: response column {response!r} not found in header")
        data = _load_parts(raw, _body_parts(raw, start), delim)
        if (data is None or data.shape[0] < 3 or data.shape[1] != len(header)
                or _first_nonfinite(data) is not None):
            with _reader(raw, start) as fh:
                data = _parse_lines(path, fh, header, delim)
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


def _body_parts(raw, start: int) -> list:
    """Cut points ``[start, c1, ...]`` of the body at byte ``start``, one per usable CPU.

    Just ``[start]``, one process, for a body under ``SPLIT_BYTES``, one
    usable CPU, no ``os.fork`` or a second thread alive (whose held locks
    a child would copy).  A later cut follows a "\\n", which ends a line
    of any ending.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    size = os.fstat(raw.fileno()).st_size
    count = min(cpus, 2 * (size - start) // SPLIT_BYTES)
    if count < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return [start]
    with mmap.mmap(raw.fileno(), 0, access=mmap.ACCESS_READ) as mm:
        # find gives -1, so a cut at 0, where no "\n" is left.
        ends = {mm.find(b"\n", start + i * (size - start) // count) + 1 for i in range(1, count)}
    return [start] + sorted(end for end in ends if start < end < size)


def _load_parts(raw, cuts: list, delim: str) -> Optional[np.ndarray]:
    """The body parsed one range per cut, or None if a range fails.

    A forked child parses each range between two cuts and pipes back its
    shape, then its float64 rows, while this process streams the last
    range to the end of the file.  A failed fork or child, differing
    widths or a short read give None.  No child outlives this call.
    """
    children = []  # (pid, read end of its pipe)
    try:
        for lo, hi in zip(cuts, cuts[1:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                return None
            if pid == 0:
                _parse_part(raw.fileno(), lo, hi, delim, w)
            os.close(w)
            # A buffered reader's readinto fills the view until the pipe ends.
            children.append((pid, open(r, "rb")))
        with _reader(raw, cuts[-1]) as fh:
            last = _load_numeric(fh, delim)
        if last is None or not children:
            return last
        heads = [pipe.read(_SHAPE.size) for _, pipe in children]
        shapes = [_SHAPE.unpack(head) for head in heads if len(head) == _SHAPE.size]
        widths = {cols for rows, cols in shapes + [last.shape] if rows}
        if len(shapes) != len(children) or len(widths) != 1:
            return None
        # Grown in place: freeing a copy would raise malloc's mmap threshold and RSS peak.
        own = last.nbytes
        last.resize((sum(rows for rows, _ in shapes) + len(last), widths.pop()), refcheck=False)
        view, pos = memoryview(last).cast("B"), 0
        view[last.nbytes - own:] = view[:own]
        for (_, pipe), (rows, _) in zip(children, shapes):
            end = pos + rows * last.strides[0]
            if pipe.readinto(view[pos:end]) != end - pos:
                return None
            pos = end
        return last
    finally:
        for pid, pipe in children:
            pipe.close()
            # A child still parsing is of no use once its pipe is closed.
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _parse_part(fd: int, lo: int, hi: int, delim: str, w: int):
    """In a forked child: parse bytes [lo, hi) of open file ``fd`` and write them to fd w.

    A map of the file reads them without moving the offset the parent
    shares.  A part numpy rejects is reported by writing nothing.  The
    child leaves through ``os._exit``, never returning into the caller.
    """
    try:
        with mmap.mmap(fd, 0, access=mmap.ACCESS_READ) as mm:
            text = io.TextIOWrapper(io.BytesIO(mm[lo:hi]), encoding="utf-8")
        data = _load_numeric(text, delim)
        if data is not None:
            with open(w, "wb") as out:
                out.write(_SHAPE.pack(*data.shape))
                out.write(data)
    finally:
        os._exit(0)


def _parse_lines(path, fh, header: list, delim: str) -> np.ndarray:
    """The body read from text reader ``fh``, parsed cell by cell with ``float``.

    The fallback of ``ingest``: every error names its row and column.
    """
    lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
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
