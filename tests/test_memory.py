"""Peak memory of ingest, standardize and expand, as tracemalloc sees it.

numpy reports its array buffers to tracemalloc, so the traced peak
counts every data-sized array alive at once. ``ingest`` holds at most
two (the parsed table while X is copied out of it, then X and its
standardized copy), whether it parses the table alone or shares the
parse with a forked child; ``standardize`` alone holds the centered copy,
with no squared columns; ``expand`` holds the expanded pool and its
standardized copy.
"""

import os
import tracemalloc
from unittest import mock

import numpy as np

from stepfdr import dataio
from stepfdr.dataio import ExpansionSpec, expand, ingest
from stepfdr.regress import Dataset, standardize


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _ingest_peak(tmp_path, split_bytes):
    n, m = 1000, 200
    table = np.random.default_rng(0).standard_normal((n, m + 1))
    header = [f"x{j}" for j in range(m)]
    header.insert(m // 2, "Y")
    path = tmp_path / "wide.tsv"
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        np.savetxt(fh, table, fmt="%.17g", delimiter="\t")

    with mock.patch.object(dataio, "SPLIT_BYTES", split_bytes), \
         mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True), \
         mock.patch.object(os, "fork", wraps=os.fork) as fork:
        ds, peak = _traced_peak(lambda: ingest(path, "Y"))
    assert fork.call_count == (split_bytes == 1)
    assert ds.X.shape == (n, m)
    assert peak <= 2.5 * ds.X.nbytes


def test_ingest_peaks_at_two_data_sized_arrays(tmp_path):
    _ingest_peak(tmp_path, split_bytes=1 << 62)


def test_split_ingest_peaks_at_two_data_sized_arrays(tmp_path):
    # A forked child parses the first half of the table and this process
    # the second (whatever the host's CPU count); the parent grows its own
    # half in place into the table and reads the child's rows into it, so
    # it peaks as the one-process parse does.
    _ingest_peak(tmp_path, split_bytes=1)


def test_standardize_peaks_at_one_copy():
    n, m = 1000, 200
    rng = np.random.default_rng(1)
    X = np.asfortranarray(rng.standard_normal((n, m)) + 3.0)
    raw = Dataset(y=rng.standard_normal(n), X=X, names=tuple(f"x{j}" for j in range(m)))

    ds, peak = _traced_peak(lambda: standardize(raw))
    assert ds.X.shape == (n, m)
    assert peak <= 1.1 * X.nbytes


def test_expand_peaks_at_two_data_sized_arrays():
    n, m = 1000, 30
    rng = np.random.default_rng(2)
    base = standardize(Dataset(y=rng.standard_normal(n), X=rng.standard_normal((n, m)),
                               names=tuple(f"x{j}" for j in range(m))))

    ds, peak = _traced_peak(lambda: expand(base, ExpansionSpec()))
    assert ds.X.shape == (n, m + m * (m - 1) // 2 + m)
    assert peak <= 2.5 * ds.X.nbytes
