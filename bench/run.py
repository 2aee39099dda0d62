"""stepfdr benchmark: one workload per invocation, or all three.

    python3 bench/run.py --workload campaign|diabetes|wide|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` times the workload with tracing off and
prints the end-to-end metrics; ``--trace 1`` runs a fixed set of
operations once untraced and once traced and prints the per-layer
metrics and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("campaign", "diabetes", "wide")
# One closed-loop client on a shared 2-CPU machine: one BLAS thread (see
# README). Set before numpy is first imported.
BLAS_THREADS = "1"


def run_one(args) -> int:
    import stepfdr
    from measure import END_TO_END, Tally, environment, timed, traced
    from workloads import WORKLOADS

    if Path(stepfdr.__file__).resolve().parent != ROOT / "src" / "stepfdr":
        sys.exit(f"error: stepfdr imported from {stepfdr.__file__}, not from {ROOT / 'src'}")

    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    for key, value in {**environment(), **wl.env()}.items():
        print(f"# env {key}: {value}")
    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}; "
          f"heavy = {wl.heavy}; light = {wl.light}; work_per_s counts {wl.item}s")

    tally = Tally()
    try:
        if args.trace:
            metrics = traced(wl, tally, out_dir / f"spans-{wl.name}-seed{args.seed}.tsv")
        else:
            metrics = timed(wl, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{wl.name}\t{name}\t{value:.6g}\t{unit}")
    print(f"{wl.name}\tfailed_frac\t{tally.failed / max(tally.attempted, 1):.6g}\t1")
    for reason in tally.reasons:
        print(f"# FAILED: {reason}")

    reported = metrics if args.trace else {name: metrics[name] for name in END_TO_END}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status |= subprocess.run(argv, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stepfdr" / "__init__.py").is_file():
        print(f"error: no stepfdr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
