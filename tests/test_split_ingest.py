"""``ingest`` parsing a large body in forked children.

The split parse must give the bytes the one-process parse gives, raise
the line parser's row/column message for any bad cell in any part, fall
back to one process where forking is unsafe or impossible, and leave no
child behind on any path. ``SPLIT_BYTES`` is patched small so that small
tables split, and the usable CPU count is patched so the split is taken
(and its part count varied) on any host.
"""

import os
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepfdr import dataio
from stepfdr.dataio import ingest

ONE_PROCESS = 1 << 62


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(path, split_bytes, cpus=2):
    """Names and the exact bytes of y and X, or the error message."""
    with mock.patch.object(dataio, "SPLIT_BYTES", split_bytes), \
         mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
        try:
            ds = ingest(path, "Y", standardize_data=False)
        except ValueError as exc:
            return str(exc)
    return ds.names, ds.X.shape, ds.y.tobytes(), ds.X.tobytes()


def _table(path, rows=40, cols=5, delim="\t"):
    table = np.random.default_rng(rows).standard_normal((rows, cols))
    with open(path, "w") as fh:
        fh.write(delim.join(["Y"] + [f"x{j}" for j in range(1, cols)]) + "\n")
        np.savetxt(fh, table, fmt="%.17g", delimiter=delim)
    return path


# Breakages that reach the line parser: a bad cell, a nan, a row one cell
# short, and rows that each gain a cell from some row on, so every part
# is consistent in itself but the parts differ in width.
_BREAKS = (None, "oops", "nan", "ragged", "wide tail")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), delim=st.sampled_from([",", "\t"]), newline=st.sampled_from(["\n", "\r\n"]),
       ncols=st.integers(1, 6), nrows=st.integers(3, 60), cpus=st.integers(2, 5),
       breakage=st.sampled_from(_BREAKS), blanks=st.integers(0, 3))
def test_split_parse_matches_one_process(data, delim, newline, ncols, nrows, cpus, breakage,
                                         blanks):
    names = [f"c{j}" for j in range(ncols)]
    names[data.draw(st.integers(0, ncols - 1))] = "Y"
    cell = st.floats(-1e300, 1e300).map(lambda v: "%.17g" % v)
    cells = [[data.draw(cell) for _ in range(ncols)] for _ in range(nrows)]
    if breakage is not None:
        i = data.draw(st.integers(0, nrows - 1))
        if breakage == "ragged":
            cells[i] = cells[i][:-1] if ncols > 1 else cells[i] + ["1"]
        elif breakage == "wide tail":
            cells[i:] = [row + ["1"] for row in cells[i:]]
        else:
            cells[i][data.draw(st.integers(0, ncols - 1))] = breakage
    lines = [delim.join(names)] + [delim.join(row) for row in cells]
    for _ in range(blanks):
        lines.insert(data.draw(st.integers(0, len(lines))), "")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        raw = (newline.join(lines) + newline).encode()
        path.write_bytes(raw)
        header = (delim.join(names) + newline).encode()
        body = len(raw) - raw.index(header) - len(header)
        split_bytes = data.draw(st.integers(1, body))
        want = _outcome(path, ONE_PROCESS)
        with mock.patch.object(dataio, "_load_parts", wraps=dataio._load_parts) as spy:
            got = _outcome(path, split_bytes, cpus)
        assert got == want
        assert spy.called
        if breakage is not None:
            assert isinstance(got, str) and "row" in got
    _no_child_left()


def test_bad_cell_in_the_last_part_names_its_row(tmp_path):
    path = _table(tmp_path / "t.tsv")
    lines = path.read_text().splitlines()
    lines[38] = "oops" + lines[38][lines[38].index("\t"):]
    path.write_text("\n".join(lines) + "\n")
    assert _outcome(path, 1) == f"{path}: non-numeric cell at row 38, column 'Y': 'oops'"
    _no_child_left()


def test_a_child_that_reports_more_rows_than_it_sends_falls_back(tmp_path):
    path = _table(tmp_path / "t.tsv")

    def short_part(path, lo, hi, delim, w):
        try:
            os.write(w, dataio._SHAPE.pack(10**6, 5) + b"\0" * 64)
        finally:
            os._exit(0)

    want = _outcome(path, ONE_PROCESS)
    with mock.patch.object(dataio, "_parse_part", short_part), \
         mock.patch.object(dataio, "_parse_lines", wraps=dataio._parse_lines) as line_parser:
        assert _outcome(path, 1) == want
    assert line_parser.called
    _no_child_left()


def test_children_are_reaped_when_the_parent_raises(tmp_path):
    # Each part's rows outgrow a pipe's buffer: the children are still
    # blocked writing when the parent stops reading.
    path = _table(tmp_path / "t.tsv", rows=2000)
    read_full = dataio._read_full
    reads = []

    def failing_read(pipe, view):
        reads.append(len(view))
        if len(reads) > 2:  # both shapes are read; fail on the first part's rows
            raise RuntimeError("interrupted")
        return read_full(pipe, view)

    with mock.patch.object(dataio, "_read_full", failing_read):
        with pytest.raises(RuntimeError, match="interrupted"):
            _outcome(path, 1)
    _no_child_left()


def test_one_process_without_fork(tmp_path, monkeypatch):
    path = _table(tmp_path / "t.tsv")
    want = _outcome(path, ONE_PROCESS)
    monkeypatch.delattr(os, "fork")
    with mock.patch.object(dataio, "_load_parts") as split:
        assert _outcome(path, 1) == want
    assert not split.called


def test_one_process_while_a_second_thread_is_alive(tmp_path):
    path = _table(tmp_path / "t.tsv")
    want = _outcome(path, ONE_PROCESS)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10.0,))
    thread.start()
    try:
        with mock.patch.object(dataio, "_load_parts") as split:
            assert _outcome(path, 1) == want
    finally:
        release.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert not split.called
    with mock.patch.object(dataio, "_load_parts", wraps=dataio._load_parts) as split:
        assert _outcome(path, 1) == want
    assert split.called
    _no_child_left()
