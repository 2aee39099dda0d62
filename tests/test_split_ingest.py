"""``ingest`` parsing a large body in forked children.

The split parse must give the bytes the one-process parse gives, raise
the line parser's row/column message for any bad cell in any part, fall
back to one process where forking is unsafe or impossible, and leave no
child or descriptor behind on any path. A body cut into k ranges forks
k - 1 children: this process parses the last range itself.
``SPLIT_BYTES`` is patched small so that small tables split, and the
usable CPU count is patched so the split is taken (and its part count
varied) on any host.
"""

import contextlib
import errno
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


@contextlib.contextmanager
def _counted_forks():
    """The mock ``os.fork``, which counts the children, with the cut points ingest used."""
    fork, body_parts = mock.Mock(wraps=os.fork), dataio._body_parts
    fork.cuts = []

    def record(raw, start):
        fork.cuts = body_parts(raw, start)
        return fork.cuts

    with mock.patch.object(os, "fork", fork), mock.patch.object(dataio, "_body_parts", record):
        yield fork


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
        with _counted_forks() as forks:
            got = _outcome(path, split_bytes, cpus)
        assert got == want
        assert forks.cuts[0] == len(raw) - body
        assert forks.call_count == len(forks.cuts) - 1 <= cpus - 1
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

    def short_part(fd, lo, hi, delim, w):
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


def _raising_view(obj):
    raise RuntimeError("interrupted")


def test_children_are_reaped_when_the_parent_raises(tmp_path):
    # The child's rows outgrow a pipe's buffer, and the table's view is
    # taken once its shape is read: the child is still blocked writing
    # its rows when the parent raises.
    path = _table(tmp_path / "t.tsv", rows=4000)
    with mock.patch.object(dataio, "memoryview", _raising_view, create=True):
        with pytest.raises(RuntimeError, match="interrupted"):
            _outcome(path, 1)
    _no_child_left()


def test_one_process_without_fork(tmp_path, monkeypatch):
    path = _table(tmp_path / "t.tsv")
    want = _outcome(path, ONE_PROCESS)
    monkeypatch.delattr(os, "fork")  # a fork would raise AttributeError
    assert _outcome(path, 1) == want
    _no_child_left()


def test_one_process_while_a_second_thread_is_alive(tmp_path):
    path = _table(tmp_path / "t.tsv")
    want = _outcome(path, ONE_PROCESS)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10.0,))
    thread.start()
    try:
        with _counted_forks() as forks:
            assert _outcome(path, 1) == want
    finally:
        release.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert forks.call_count == 0
    with _counted_forks() as forks:
        assert _outcome(path, 1) == want
    assert forks.call_count == 1
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_k_ranges_fork_k_minus_one_children(tmp_path, cpus):
    # This process parses the last range itself.
    path = _table(tmp_path / "t.tsv")
    want = _outcome(path, ONE_PROCESS)
    with _counted_forks() as forks:
        assert _outcome(path, 1, cpus) == want
    assert len(forks.cuts) == cpus
    assert forks.call_count == cpus - 1
    _no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_failed_fork_leaves_the_rest_to_this_process(tmp_path, cpus):
    # The last fork fails. The children already forked keep their ranges
    # and this process parses from the failed range's cut on: with numpy,
    # not the line parser, which took 0.43 s against 0.29 s on a 20 MB table.
    path = _table(tmp_path / "t.tsv", rows=2000)
    want = _outcome(path, ONE_PROCESS)
    real_fork, pids = os.fork, []

    def fork():
        if len(pids) == cpus - 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pids.append(real_fork())
        return pids[-1]

    before = _open_descriptors()
    with mock.patch.object(os, "fork", fork), \
         mock.patch.object(dataio, "_parse_lines", wraps=dataio._parse_lines) as line_parser:
        assert _outcome(path, 1, cpus) == want
    assert not line_parser.called
    assert len(pids) == cpus - 2
    _no_child_left()
    assert _open_descriptors() == before


def test_carriage_return_lines_are_read_in_one_process(tmp_path):
    # A file whose lines end in "\r" alone has no "\n" to cut the body
    # at; the text paths read the table that "\n" line ends give.
    path = _table(tmp_path / "t.tsv")
    cr = tmp_path / "cr.tsv"
    cr.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    want = _outcome(path, ONE_PROCESS)
    with _counted_forks() as forks, \
         mock.patch.object(dataio, "_parse_lines", wraps=dataio._parse_lines) as line_parser:
        assert _outcome(cr, 1) == want
    assert want[1] == (40, 4)
    assert forks.call_count == 0 and len(forks.cuts) == 1
    assert not line_parser.called
    _no_child_left()


@pytest.mark.parametrize("split_bytes", [ONE_PROCESS, 1], ids=["one-process", "forked"])
@pytest.mark.parametrize("lead", ["", "\n"], ids=["header", "blank-line"])
@pytest.mark.parametrize("response_first", [True, False], ids=["Y-first", "Y-last"])
@pytest.mark.parametrize("delim", ["\t", ","], ids=["tab", "comma"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, delim, response_first, lead,
                                              split_bytes):
    # A spreadsheet's "CSV UTF-8" starts with a byte-order mark. It is not
    # part of the first name, and the forked path finds the same header
    # line, so neither path falls back to the line parser.
    names = ["Y", "x1", "x2"] if response_first else ["x1", "x2", "Y"]
    table = np.random.default_rng(7).standard_normal((40, 3))
    text = delim.join(names) + "\n" + "".join(delim.join("%.17g" % v for v in row) + "\n"
                                               for row in table)
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + (lead + text).encode())
    want = _outcome(plain, ONE_PROCESS)
    with _counted_forks() as forks, \
         mock.patch.object(dataio, "_parse_lines", wraps=dataio._parse_lines) as line_parser:
        assert _outcome(marked, split_bytes) == want
    assert want[0] == ("x1", "x2")
    assert forks.call_count == (split_bytes == 1)
    assert not line_parser.called
    _no_child_left()


@pytest.mark.parametrize("blanks", [0, 2], ids=["header", "blank-lines"])
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_every_parse_reads_the_same_table(tmp_path, newline, bom, blanks):
    # One header rule for all three parsers: the one-process parse, the
    # split and the line parser, which a cell written "1_000" forces. A
    # name outside ASCII makes the header's bytes outnumber its characters.
    table = np.random.default_rng(3).standard_normal((40, 4))
    table[17, 2] = 1000.0
    lines = ["x1,Y,größe,x3"] + [",".join("%.17g" % v for v in row) for row in table]
    want = _outcome(_write_lines(tmp_path / "plain.csv", lines, "\n"), ONE_PROCESS)
    lines = [""] * blanks + lines
    path = _write_lines(tmp_path / "t.csv", lines, newline, bom)
    underscored = list(lines)
    underscored[blanks + 18] = underscored[blanks + 18].replace(",1000,", ",1_000,")
    forced = _write_lines(tmp_path / "u.csv", underscored, newline, bom)
    for source, split_bytes, line_parsed in ((path, ONE_PROCESS, False), (path, 1, False),
                                             (forced, ONE_PROCESS, True), (forced, 1, True)):
        with _counted_forks() as forks, \
             mock.patch.object(dataio, "_parse_lines", wraps=dataio._parse_lines) as line_parser:
            assert _outcome(source, split_bytes) == want
        assert line_parser.called == line_parsed
        assert forks.cuts[0] == len(bom) + len(newline) * (blanks + 1) + len(lines[blanks].encode())
        forked = split_bytes == 1 and newline != "\r"
        assert forks.call_count == len(forks.cuts) - 1 == forked
    assert want[:2] == (("x1", "größe", "x3"), (40, 3))
    _no_child_left()


def _write_lines(path, lines, newline, bom=b""):
    path.write_bytes(bom + (newline.join(lines) + newline).encode())
    return path


def _open_descriptors():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("case", ["split", "fallback", "parent-raises"])
def test_ingest_leaves_no_child_or_descriptor_behind(tmp_path, case):
    path = _table(tmp_path / "t.tsv", rows=2000)
    if case == "fallback":  # a bad cell in the forked range
        lines = path.read_text().splitlines()
        lines[5] = "oops" + lines[5][lines[5].index("\t"):]
        path.write_text("\n".join(lines) + "\n")
    before = _open_descriptors()
    with _counted_forks() as forks, \
         mock.patch.object(dataio, "memoryview",
                           _raising_view if case == "parent-raises" else memoryview, create=True):
        try:
            got = _outcome(path, 1)
        except RuntimeError:
            got = None
    assert forks.call_count == 1
    assert (got is None) == (case == "parent-raises")
    if case == "fallback":
        assert got == f"{path}: non-numeric cell at row 5, column 'Y': 'oops'"
    _no_child_left()
    assert _open_descriptors() == before


def test_the_line_parser_skips_a_byte_order_mark(tmp_path):
    # "1_000" only Python's float reads, so the line parser reads the body.
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xef\xbb\xbfY,x1\n1,1_000\n2,3\n4,5\n")
    ds = ingest(path, "Y", standardize_data=False)
    assert ds.names == ("x1",)
    assert ds.y.tolist() == [1.0, 2.0, 4.0] and ds.X[:, 0].tolist() == [1000.0, 3.0, 5.0]
