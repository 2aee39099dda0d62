"""Measurement loops: timed end-to-end runs and traced per-layer runs."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import execute

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_ROUNDS = 5  # at least this many set-up rounds per timed run
# The host's speed drifts over seconds, so set-up rounds are spread over
# the run: one more between operations whenever the last is this old.
SETUP_GAP_S = 3.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import stepfdr.cli; "
                "print(time.perf_counter() - t)")
# The metrics of the JSON line; timed() also returns raw times, p99s and
# the workload's own metric names for the human-readable lines.
END_TO_END = ("work_per_cal", "heavy_p50_cal", "light_p50_cal", "setup_s", "peak_rss_mb")
# The host's speed drifts by up to 2x over minutes, so times go into the
# JSON line in units of a fixed probe timed throughout the same run.
PROBE_LOOPS = 4000
PROBE_GAP_S = 0.2  # at most one probe per this many seconds, before a request
_PROBE_COEFFS = (1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7, 8.8)
_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal((600, 150))
_PROBE_Y = _PROBE_RNG.standard_normal(600)


def _horner(x: float) -> float:
    acc = 0.0
    for c in _PROBE_COEFFS:
        acc = acc * x + c
    return acc


def probe() -> dict:
    """Seconds taken by two fixed pieces of work, one 'cal' of each kind.

    ``py`` is a pure-Python loop of function calls and float arithmetic;
    it tracks the host's speed for requests bound by the interpreter.
    ``np`` is a QR factorization and matrix-vector products on fixed
    data; it tracks the host's speed for requests that spend their time
    in numpy and BLAS.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, PROBE_LOOPS):
        x = i / PROBE_LOOPS
        acc += _horner(x) / _horner(1.0 - x) + math.sqrt(-math.log(x))
    t1 = time.perf_counter()
    q, _ = np.linalg.qr(_PROBE_X)
    _PROBE_X.T @ (_PROBE_X @ (q.T @ _PROBE_Y))
    return {"py": t1 - t0, "np": time.perf_counter() - t1}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _cache_sizes():
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"l{level}"] = size
    return out


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for ln in Path("/proc/cpuinfo").read_text().splitlines():
            if ln.startswith("model name"):
                cpu = ln.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(outcome.reason)


def run_op(op, tally, samples=None, probes=None) -> float:
    """Run one operation's requests; return the seconds they took.

    With ``probes``, time the probe before a request when the last probe
    is more than PROBE_GAP_S old.
    """
    busy = 0.0
    for req in op.requests:
        if probes is not None and time.perf_counter() - probes.last > PROBE_GAP_S:
            probes.append(probe())
            probes.last = time.perf_counter()
        outcome = execute(req)
        tally.add(outcome)
        busy += outcome.seconds
        if samples is not None:
            samples[req.cls].append(outcome.seconds)
    return busy


class Probes(list):
    """Probe times of one run; ``last`` is when the latest was taken."""

    last = float("-inf")


def import_seconds() -> float:
    """Time to import the package (and numpy) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


def setup_round(wl, tally: Tally) -> float:
    """One set-up: a fresh import, the seed's inputs and the warm-up; its seconds."""
    imported = import_seconds()
    t0 = time.perf_counter()
    wl.setup()
    for outcome in wl.warmup():
        tally.add(outcome)
    return imported + time.perf_counter() - t0


def timed(wl, seconds: float, tally: Tally) -> dict:
    rounds = [setup_round(wl, tally)]
    last_round = time.perf_counter()
    in_setup = 0.0  # seconds of the loop spent in set-up rounds, not counted in its length

    samples = {"heavy": [], "light": []}
    rates = []  # work items per second of each operation
    probes = Probes()
    start = time.perf_counter()
    for op in wl.ops():
        busy = run_op(op, tally, samples, probes)
        rates.append(op.items / busy)
        if time.perf_counter() - last_round > SETUP_GAP_S:
            t0 = time.perf_counter()
            rounds.append(setup_round(wl, tally))
            last_round = time.perf_counter()
            in_setup += last_round - t0
        elapsed = time.perf_counter() - start - in_setup
        enough = all(len(s) >= wl.min_samples for s in samples.values())
        if enough and elapsed + elapsed / len(rates) > seconds:
            break
    while len(rounds) < SETUP_ROUNDS:
        rounds.append(setup_round(wl, tally))

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cal = {kind: statistics.median(p[kind] for p in probes) for kind in ("py", "np")}
    work_per_s = statistics.median(rates)
    values = {
        # an operation's time is mostly its heavy requests'
        "work_per_cal": (work_per_s * cal[wl.cal_kind["heavy"]], "1/cal"),
        "setup_s": (statistics.median(rounds), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "cal_py_ms": (cal["py"] * 1e3, "ms"),
        "cal_np_ms": (cal["np"] * 1e3, "ms"),
        "work_per_s": (work_per_s, "1/s"),
    }
    for cls, vals in samples.items():
        values[f"{cls}_p50_cal"] = (statistics.median(vals) / cal[wl.cal_kind[cls]], "cal")
        values[f"{cls}_ms_p50"] = (statistics.median(vals) * 1e3, "ms")
        values[f"{cls}_ms_p99"] = (percentile(vals, 99) * 1e3, "ms")
    for name, (source, scale, unit) in wl.aliases.items():
        values[name] = (values[source][0] * scale, unit)
    print(f"# {wl.name}: {len(rates)} operation(s) of {op.items} {wl.item}(s) in {elapsed:.3f} s; "
          f"heavy n={len(samples['heavy'])}, light n={len(samples['light'])}, "
          f"probes n={len(probes)}; "
          f"{len(rounds)} setup rounds, median {statistics.median(rounds):.4f} s "
          f"({min(rounds):.4f}-{max(rounds):.4f})")
    return values


def traced(wl, tally: Tally, spans_path: Path) -> dict:
    wl.setup()
    for outcome in wl.warmup():
        tally.add(outcome)
    ops = wl.trace_ops()
    t0 = time.perf_counter()
    for op in ops:
        run_op(op, tally)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op_id = i
            run_op(op, tally)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    with open(spans_path, "w") as fh:
        fh.write("op_id\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for i, (name, start, end, parent, op_id) in enumerate(tracer.spans):
            fh.write(f"{op_id}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")
    print(f"# {wl.name}: {len(ops)} operation(s) traced, {len(tracer.spans)} spans "
          f"written to {spans_path}")
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics
