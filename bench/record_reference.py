"""Record bench/reference.json: the outputs the benchmark checks against.

    python3 bench/record_reference.py

Runs each workload's requests once at the default seed from the
sources under ``src/`` and stores the diabetes selections, the campaign
relative losses, the wide selection and the penalty table.  Record
only from a commit whose outputs are known good: the diabetes
acceptance values are checked before anything is written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACCEPTED_MAIN_MSFDR = ["BMI", "S5", "BP", "S1", "SEX", "S2"]
ACCEPTED_QUAD_ITERATIVE_K = 7


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, REFERENCE_PATH, Campaign, Diabetes, Wide

    work = ROOT / ".bench_out" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ref = {}
        for cls in (Diabetes, Campaign, Wide):
            ref.update(cls(DEFAULT_SEED, work / cls.name, {}).record())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if (ref["diabetes"]["main msfdr:0.05"]["names"] != ACCEPTED_MAIN_MSFDR
            or ref["diabetes"]["quad msfdr:0.05 --iterative"]["k"] != ACCEPTED_QUAD_ITERATIVE_K):
        print("error: diabetes selections differ from the acceptance values", file=sys.stderr)
        return 1
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
