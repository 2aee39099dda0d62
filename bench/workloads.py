"""The three benchmark workloads: inputs, requests and output checks.

Every request is one ``stepfdr`` command line, run in-process through
``stepfdr.cli.main`` with its output captured.  Each workload sorts its
requests into a heavy and a light class, reported as separate latency
distributions, and names the unit of work its throughput counts.
Inputs come from the benchmark seed alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

import stepfdr.cli
from stepfdr.dataio import diabetes_path

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-12


@dataclass
class Request:
    cls: str  # "heavy" or "light"
    argv: List[str]
    # stdout -> None when correct, else a one-line reason
    check: Callable[[str], Optional[str]]


@dataclass
class Op:
    items: int  # units of work counted by work_per_s
    requests: List[Request]


@dataclass
class Outcome:
    ok: bool
    seconds: float
    reason: str = ""


def call(argv: List[str]):
    """Run one command line in-process; return (status, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = stepfdr.cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def execute(req: Request) -> Outcome:
    rc, out, err, dt = call(req.argv)
    if rc != 0:
        return Outcome(False, dt, f"exit {rc}: {err.strip()[:200]}")
    try:
        reason = req.check(out)
    except (ValueError, KeyError) as exc:
        reason = f"unreadable output: {exc!r}"
    return Outcome(reason is None, dt, reason or "")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


# ---------------------------------------------------------------------------
# report parsers
# ---------------------------------------------------------------------------


def parse_select(text: str):
    """(k_selected, entered names in order) from a select report."""
    k = None
    names = []
    section = None
    for ln in text.splitlines():
        if ln.startswith("# k_selected\t"):
            k = int(ln.split("\t")[1])
        elif ln == "name\tcoefficient":
            section = "names"
        elif ln == "k\tpenalized_rss":
            section = None
        elif section == "names":
            name, coef = ln.split("\t")
            if not math.isfinite(float(coef)):
                raise ValueError(f"non-finite coefficient for {name}")
            names.append(name)
    return k, names


def parse_penalty_table(text: str):
    """Columns alpha, lambda and cost of a penalty-table dump."""
    cols = {"alpha": [], "lambda": [], "cost": []}
    for ln in text.splitlines()[1:]:
        _, _, _, a, lam, cost = ln.split("\t")
        cols["alpha"].append(float(a) if a else float("nan"))
        cols["lambda"].append(float(lam))
        cols["cost"].append(float(cost))
    return cols


def parse_cell(path: Path):
    """(dominance violations, {method label: relative loss}) of a campaign file."""
    violations = None
    losses = {}
    for ln in path.read_text().splitlines():
        if ln.startswith("# dominance_violations\t"):
            violations = int(ln.split("\t")[1])
        elif ln and not ln.startswith("#") and not ln.startswith("method\t"):
            label, _, _, rel, _ = ln.split("\t")
            losses[label] = float(rel)
    return violations, losses


def parse_overall(text: str) -> Dict[str, float]:
    """The overall worst-k section of a summarize report."""
    out = {}
    inside = False
    for ln in text.splitlines():
        if ln.startswith("# "):
            inside = ln.startswith("# overall worst-")
        elif inside and ln:
            label, value = ln.split("\t")
            out[label] = float(value)
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    heavy = ""  # what a heavy request is
    light = ""  # what a light request is
    item = ""  # what work_per_s counts
    # Workload-specific metric names: name -> (printed metric, scale, unit)
    aliases: Dict[str, tuple] = {}
    min_samples = 1  # per request class, before a timed run may stop
    # The probe (measure.probe) whose cal each request class's times are
    # divided by: "py" for requests bound by the interpreter, "np" for
    # those that spend their time in numpy and BLAS.
    cal_kind = {"heavy": "py", "light": "py"}

    def __init__(self, seed: int, work_dir: Path, reference: Optional[dict] = None):
        self.seed = seed
        self.work = Path(work_dir)
        self.work.mkdir(parents=True, exist_ok=True)
        self.reference = reference if reference is not None else load_reference()

    def setup(self) -> None:
        """Write this seed's inputs."""

    def warmup_requests(self) -> List[Request]:
        return []

    def warmup(self) -> List[Outcome]:
        """The untimed operation run after each setup."""
        return [execute(req) for req in self.warmup_requests()]

    def ops(self) -> Iterator[Op]:
        """The timed operations, in seeded order, without end."""
        raise NotImplementedError

    def trace_ops(self) -> List[Op]:
        """The fixed operations of a traced run."""
        raise NotImplementedError

    def env(self) -> Dict[str, str]:
        return {}


METHODS = ("msfdr:0.05", "tk", "fixed-alpha:0.05", "dj", "fs", "bm", "aic", "bh:0.05", "tsfdr:0.05")
WORST_K = ("1", "2", "3", "ALL")


class Campaign(Workload):
    """Many small full-depth paths (n = 2m) that also track bias.

    The grid is simulated in nine parts, one per beta type and rho (6
    cells each, both m), and each part's output is summarized.  One
    operation is one part; operations take the parts in turn, so a timed
    run covers the grid and holds many samples of each request class.
    """

    name = "campaign"
    heavy = "simulate, 6 cells (one beta type and rho) x 200 replications, 9 methods"
    light = "summarize 6 cells at worst-k 1, 2, 3 and ALL"
    # Most of a simulate is forward_sweep's numpy calls.  Both classes
    # divided by the np probe spread less over sets of runs than by py.
    cal_kind = {"heavy": "np", "light": "np"}
    item = "cell-replication"
    aliases = {"reps_per_s": ("work_per_s", 1, "1/s")}

    def __init__(self, seed, work_dir, reference=None, m=(20, 40), rho=(-0.5, 0, 0.5),
                 beta_type=(1, 2, 3), p_index=(1, 4, 6), replications=200):
        super().__init__(seed, work_dir, reference)
        self.grid = dict(m=m, p_index=p_index)
        self.parts = [(b, r) for b in beta_type for r in rho]
        self.replications = replications
        self.part_cells = math.prod(len(v) for v in self.grid.values())

    def _write_config(self, path: Path, replications: int, **grid) -> None:
        lines = [f"seed = {self.seed}", f"replications = {replications}",
                 f"methods = {','.join(METHODS)}"]
        lines += [f"{k} = {','.join(str(x) for x in v)}" for k, v in grid.items()]
        path.write_text("\n".join(lines) + "\n")

    def setup(self):
        for i, (b, r) in enumerate(self.parts):
            self._write_config(self.work / f"part{i}.conf", self.replications,
                               beta_type=(b,), rho=(r,), **self.grid)
        self._write_config(self.work / "warm.conf", 10, m=(20,), rho=(0,), beta_type=(1,),
                           p_index=(1,))

    def _simulate(self, conf: str, out: Path, check) -> Request:
        return Request("heavy", ["simulate", "--config", str(self.work / conf), "--out",
                                 str(out), "--workers", "1", "--force"], check)

    def warmup_requests(self):
        warm = self.work / "warm"
        return [self._simulate("warm.conf", warm, lambda _: None),
                Request("light", ["summarize", "--in", str(warm)], lambda _: None)]

    def check_cells(self, stdout: str, out: Path) -> Optional[str]:
        if f"{self.part_cells} configuration(s) run, 0 skipped" not in stdout:
            return "simulate did not run every cell"
        files = sorted(out.glob("*.tsv"))
        if len(files) != self.part_cells:
            return f"{len(files)} result files, expected {self.part_cells}"
        ref = self.reference["campaign"] if self.seed == DEFAULT_SEED else None
        for f in files:
            violations, losses = parse_cell(f)
            if violations != 0:
                return f"{f.name}: {violations} dominance violations"
            if list(losses) != list(METHODS):
                return f"{f.name}: methods {list(losses)}"
            low = [k for k, v in losses.items() if not v >= 1.0]
            if low:
                return f"{f.name}: relative loss below 1 for {low}"
            if ref is not None:
                want = ref.get(f.stem)
                if want is None or not all(_close(losses[k], want[k]) for k in METHODS):
                    return f"{f.name}: relative losses differ from the reference"
        return None

    @staticmethod
    def check_summary(stdout: str) -> Optional[str]:
        overall = parse_overall(stdout)
        if list(overall) != list(METHODS) or not all(v >= 1.0 for v in overall.values()):
            return "summary lacks a method or reports a relative loss below 1"
        return None

    def _part(self, i) -> Op:
        out = self.work / f"out{i}"
        reqs = [self._simulate(f"part{i}.conf", out,
                               lambda stdout: self.check_cells(stdout, out))]
        reqs += [Request("light", ["summarize", "--in", str(out), "--worst-k", k],
                         self.check_summary) for k in WORST_K]
        return Op(self.part_cells * self.replications, reqs)

    def ops(self):
        while True:
            for i in range(len(self.parts)):
                yield self._part(i)

    def trace_ops(self):
        return [self._part(i) for i in range(len(self.parts))]

    def record(self) -> dict:
        self.setup()
        for op in self.trace_ops():
            rc, _, err, _ = call(op.requests[0].argv)
            if rc != 0:
                raise RuntimeError(err)
        files = sorted(self.work.glob("out*/*.tsv"))
        return {"campaign": {f.stem: parse_cell(f)[1] for f in files}}


FAMILY_DEFAULTS = ("msfdr:0.05", "bh:0.05", "tsfdr:0.05", "fixed-alpha:0.05",
                   "aic", "dj", "fs", "tk", "bm", "gf")
DIABETES_KINDS = tuple(
    (pool, method)
    for pool in ("main", "quad")
    for method in FAMILY_DEFAULTS + ("msfdr:0.05 --iterative",)
)


class Diabetes(Workload):
    """Small select requests on the bundled data, where no layer dominates."""

    name = "diabetes"
    heavy = "select on the quad pool (m=64)"
    light = "select on the main pool (m=10)"
    item = "select request"
    aliases = {
        "main_select_ms_p50": ("light_ms_p50", 1, "ms"),
        "main_select_ms_p99": ("light_ms_p99", 1, "ms"),
        "quad_select_ms_p50": ("heavy_ms_p50", 1, "ms"),
        "quad_select_ms_p99": ("heavy_ms_p99", 1, "ms"),
        "selects_per_s": ("work_per_s", 1, "1/s"),
    }
    min_samples = 1000  # so p99 has ten samples beyond it
    trace_blocks = 20

    def request(self, pool: str, method: str) -> Request:
        tokens = method.split()
        argv = ["select", "--data", diabetes_path(), "--response", "Y", "--method", tokens[0]]
        argv += tokens[1:]
        if pool == "quad":
            argv += ["--expand", "--square-exclude", "SEX"]
        key = f"{pool} {method}"

        def check(stdout):
            k, names = parse_select(stdout)
            want = self.reference["diabetes"][key]
            if k != want["k"] or names != want["names"]:
                return f"{key}: k={k} {names} differs from the reference"
            return None

        return Request("heavy" if pool == "quad" else "light", argv, check)

    def warmup_requests(self):
        return [self.request("main", "msfdr:0.05"), self.request("quad", "msfdr:0.05")]

    def ops(self):
        """Blocks of one request per kind, each block in its own seeded order."""
        rng = random.Random(self.seed)
        while True:
            block = list(DIABETES_KINDS)
            rng.shuffle(block)
            yield Op(len(block), [self.request(pool, method) for pool, method in block])

    def trace_ops(self):
        gen = self.ops()
        return [next(gen) for _ in range(self.trace_blocks)]

    def record(self) -> dict:
        out = {}
        for pool, method in DIABETES_KINDS:
            rc, stdout, err, _ = call(self.request(pool, method).argv)
            if rc != 0:
                raise RuntimeError(err)
            k, names = parse_select(stdout)
            out[f"{pool} {method}"] = {"k": k, "names": names}
        return {"diabetes": out}


TABLE_M = 500
TABLES_PER_OP = 4  # so that a run holds enough penalty-table samples


class Wide(Workload):
    """One large path where sweep depth dominates, plus a large penalty table."""

    name = "wide"
    heavy = "select msfdr:0.05 on the synthetic TSV"
    light = f"penalty-table msfdr:0.05 at m={TABLE_M}"
    cal_kind = {"heavy": "np", "light": "py"}
    item = "CLI request"
    aliases = {"select_s": ("heavy_ms_p50", 1e-3, "s"),
               "penalty_table_s": ("light_ms_p50", 1e-3, "s")}

    def __init__(self, seed, work_dir, reference=None, n=2000, m=500, effects=20):
        super().__init__(seed, work_dir, reference)
        self.n, self.m, self.effects = n, m, effects
        self.data = self.work / "wide.tsv"
        self.truth: List[str] = []

    def setup(self):
        rng = np.random.default_rng([self.seed, 7])
        X = rng.standard_normal((self.n, self.m))
        support = np.sort(rng.choice(self.m, self.effects, replace=False))
        beta = np.zeros(self.m)
        # |t| of at least 0.25 * sqrt(n) ~ 11: every true effect enters the path
        # ahead of the nulls and is selected.
        beta[support] = rng.choice([-1.0, 1.0], self.effects) * rng.uniform(0.25, 0.5, self.effects)
        y = 1.0 + X @ beta + rng.standard_normal(self.n)
        self.truth = [f"X{j}" for j in support]
        header = ["Y"] + [f"X{j}" for j in range(self.m)]
        table = np.column_stack([y, X])
        for path, rows, cols in ((self.data, self.n, self.m + 1), (self.work / "warm.tsv", 200, 21)):
            with open(path, "w") as fh:
                fh.write("\t".join(header[:cols]) + "\n")
                np.savetxt(fh, table[:rows, :cols], fmt="%.17g", delimiter="\t")

    def warmup_requests(self):
        return [Request("heavy", ["select", "--data", str(self.work / "warm.tsv"),
                                  "--response", "Y", "--method", "msfdr:0.05"], lambda _: None)]

    def warmup(self):
        outcomes = super().warmup()
        with open(self.data, "rb") as fh:  # page in the timed input
            while fh.read(1 << 20):
                pass
        return outcomes

    def check_select(self, stdout: str) -> Optional[str]:
        k, names = parse_select(stdout)
        if k != len(names) or len(set(names)) != k:
            return f"k_selected={k} but {len(names)} distinct names reported"
        missed = sorted(set(self.truth) - set(names))
        if missed:
            return f"true effects not selected: {missed}"
        if self.seed == DEFAULT_SEED and names != self.reference["wide"]["selected"]:
            return "selected terms differ from the reference"
        return None

    def check_table(self, stdout: str) -> Optional[str]:
        got = parse_penalty_table(stdout)
        want = self.reference["penalty_table"]
        for col in ("alpha", "lambda", "cost"):
            if len(got[col]) != len(want[col]) or not all(
                    _close(a, b) for a, b in zip(got[col], want[col])):
                return f"penalty table column {col} differs from the reference"
        return None

    def _op(self) -> Op:
        table = Request("light", ["penalty-table", "--method", "msfdr:0.05", "--m", str(TABLE_M)],
                        self.check_table)
        return Op(1 + TABLES_PER_OP, [
            Request("heavy", ["select", "--data", str(self.data), "--response", "Y",
                              "--method", "msfdr:0.05"], self.check_select),
        ] + [table] * TABLES_PER_OP)

    def ops(self):
        while True:
            yield self._op()

    def trace_ops(self):
        return [self._op()]

    def env(self):
        mb = self.n * self.m * 8 / 1e6
        return {"wide_matrix": f"{self.n}x{self.m} float64 = {mb:.0f} MB, "
                               "cache-resident (below L3): not a memory-bandwidth measurement"}

    def record(self) -> dict:
        self.setup()
        select, table = self._op().requests[:2]
        rc, stdout, err, _ = call(select.argv)
        rc2, stdout2, err2, _ = call(table.argv)
        if rc or rc2:
            raise RuntimeError(err + err2)
        return {"wide": {"selected": parse_select(stdout)[1]},
                "penalty_table": parse_penalty_table(stdout2)}


WORKLOADS = {w.name: w for w in (Campaign, Diabetes, Wide)}
