"""Traced runs of one seed must give identical counts.

Uses small versions of the three workloads so the test runs in seconds.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import stepfdr.cli  # noqa: E402
from measure import Tally, traced  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Campaign, Diabetes, Wide  # noqa: E402

SEED = 3  # not the reference seed: outputs are checked by invariants


def small(name, work):
    if name == "campaign":
        return Campaign(SEED, work, m=(20,), rho=(0,), beta_type=(1,), p_index=(1, 4),
                        replications=10)
    if name == "diabetes":
        wl = Diabetes(SEED, work)
        wl.trace_blocks = 1
        return wl
    return Wide(SEED, work, n=400, m=40, effects=5)


def counts(name, tmp_path, run):
    wl = small(name, tmp_path / f"{name}-{run}")
    tally = Tally()
    metrics = traced(wl, tally, tmp_path / f"spans-{run}.tsv")
    assert tally.failed == 0, tally.reasons
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}


@pytest.mark.parametrize("name", ["campaign", "diabetes", "wide"])
def test_traced_counts_repeat(name, tmp_path):
    first = counts(name, tmp_path, 1)
    assert first == counts(name, tmp_path, 2)
    assert first["regress.forward_sweep_calls"] > 0
    assert first["regress.sweep_steps"] > 0
    assert first["quantiles.inverse_normal_cdf_calls"] > 0
    assert all(first[k] == 0 for k in first if k.endswith(".errors"))
    if name == "campaign":
        assert first["regress.forward_sweep_calls"] == 2 * 10
        assert first["cli.bytes_written"] > 0


def test_uninstall_restores_every_binding():
    main = stepfdr.cli.main
    sweep = stepfdr.simlab.forward_sweep
    tracer = Tracer()
    tracer.install()
    try:
        assert stepfdr.cli.main is not main
        assert stepfdr.simlab.forward_sweep is stepfdr.regress.forward_sweep
        assert stepfdr.simlab.forward_sweep is not sweep
    finally:
        tracer.uninstall()
    assert stepfdr.cli.main is main
    assert stepfdr.simlab.forward_sweep is sweep is stepfdr.regress.forward_sweep
