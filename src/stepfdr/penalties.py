"""The ten penalty families.

Each family defines the marginal cost c_k of the k-th entry; the
per-parameter penalty factor lambda_k is the mean of c_1..c_k, so
c_k = k*lambda_k - (k-1)*lambda_{k-1}.  For the FDR families c_k is the
squared normal quantile at half the step constant alpha_k.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quantiles import inverse_normal_cdf

__all__ = [
    "FAMILIES",
    "PenaltySpec",
    "PenaltyTable",
    "UnsupportedFamilyError",
    "step_alpha",
    "penalty_factor",
    "penalty_table",
]

FAMILIES = ("bh", "msfdr", "tsfdr", "fixed-alpha", "aic", "dj", "fs", "tk", "bm", "gf")

# Birge-Massart style penalty 2*log(C*m/k). The source material leaves C
# unstated; this default reproduces its published diabetes selections
# (3 main-effect terms, 2 quadratic-pool terms). Override via PenaltySpec.
DEFAULT_BM_CONSTANT = 2000.0


# The spec field a method token's level sets; other families take none.
_LEVEL_FIELDS = {"bh": "q", "msfdr": "q", "tsfdr": "q", "fixed-alpha": "p", "bm": "c_bm"}

_LARGE_Q = "msfdr with q >= 0.5 loses its asymptotic optimality guarantees"


class UnsupportedFamilyError(ValueError):
    """Operation not defined for this penalty family."""


@dataclass(frozen=True)
class PenaltySpec:
    """Tagged choice of penalty family with its parameters.

    ``q`` applies to bh/msfdr/tsfdr, ``p`` to fixed-alpha and ``c_bm``
    is the Birge-Massart multiplicative constant.
    """

    family: str
    q: Optional[float] = None
    p: Optional[float] = None
    c_bm: float = DEFAULT_BM_CONSTANT

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamilyError(f"unknown penalty family {self.family!r}; "
                                         f"known families: {', '.join(FAMILIES)}")
        if self.family in ("bh", "msfdr", "tsfdr"):
            if self.q is None or not 0.0 < self.q < 1.0:
                raise ValueError(f"{self.family} requires q in (0, 1)")
            if self.family == "msfdr" and self.q >= 0.5:
                # stacklevel: past the generated __init__, to the line building the spec
                warnings.warn(_LARGE_Q, stacklevel=3)
        if self.family == "fixed-alpha" and (self.p is None or not 0.0 < self.p < 1.0):
            raise ValueError("fixed-alpha requires p in (0, 1)")
        if not 0.0 < self.c_bm < math.inf:
            raise ValueError("c_bm must be positive and finite")

    def label(self) -> str:
        name = _LEVEL_FIELDS.get(self.family)
        if name is None or (name == "c_bm" and self.c_bm == DEFAULT_BM_CONSTANT):
            return self.family
        return f"{self.family}:{_level(getattr(self, name))}"


@contextlib.contextmanager
def _large_q_warned():
    """Build specs without the msfdr q >= 0.5 warning, for a level whose
    method token already warned once; every check still runs."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=_LARGE_Q, category=UserWarning)
        yield


def _level(value: float) -> str:
    """The ``:g`` form of a level when it reads back exactly, else its repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def step_alpha(spec: PenaltySpec, i: int, m: int) -> float:
    """Step constant alpha_i for the FDR-type families."""
    if not 1 <= i <= m:
        raise ValueError(f"step index must lie in [1, {m}], got {i}")
    return float(_alphas(spec, m, i)[i - 1])


def _alphas(spec: PenaltySpec, m: int, k_max: int) -> np.ndarray:
    """Step constants alpha_1..alpha_{k_max}.

    BH constants run past k = m (up to just below 1): the two-stage
    procedure's second stage applies them over the whole path with the
    pool shrunk to m - r1.
    """
    k = np.arange(1.0, k_max + 1)
    if spec.family == "bh":
        return np.minimum(k * spec.q / m, 1.0 - 1e-15)
    if spec.family == "msfdr":
        return k * spec.q / (m + 1 - k * (1.0 - spec.q))
    if spec.family == "fixed-alpha":
        return np.full(k_max, spec.p)
    raise UnsupportedFamilyError(
        f"step constants are not defined for family {spec.family!r}"
    )


def step_costs(spec: PenaltySpec, m: int, k_max: int) -> np.ndarray:
    """Marginal costs c_1..c_{k_max} of entering the k-th variable.

    For the FDR families c_k is the squared normal quantile at
    alpha_k / 2, the p-to-enter test written as a penalty; an alpha_k
    so small that 1 - alpha_k/2 rounds to 1 raises a ValueError naming
    the method, m and k.  ``k_max`` lies in [1, m], except for bh (see
    ``_alphas``).
    """
    if k_max < 1 or (k_max > m and spec.family != "bh"):
        raise ValueError(f"k_max must lie in [1, {m}], got {k_max}")
    fam = spec.family
    k = np.arange(1.0, k_max + 1)
    if fam in ("bh", "msfdr", "fixed-alpha"):
        alphas = _alphas(spec, m, k_max)
        upper = 1.0 - alphas / 2.0
        if upper.max() >= 1.0:
            first = int(np.argmax(upper >= 1.0))
            raise ValueError(f"{spec.label()} at m={m}: step k={first + 1} has alpha_k = "
                             f"{alphas[first]:.3g}, so 1 - alpha_k/2 rounds to 1 and its "
                             "normal quantile is infinite; use a larger level")
        z = inverse_normal_cdf(upper)
        return z * z
    if fam == "aic":
        return np.full(k_max, 2.0)
    if fam == "dj":
        return np.full(k_max, 2.0 * math.log(m))
    if fam == "fs":
        return 2.0 * np.log(m / k)
    if fam == "tk":
        return 2.0 * 2.0 * np.log(m / k)
    if fam == "bm":
        # differences of k * 2*log(C*m/k)
        return np.diff(k * 2.0 * np.log(spec.c_bm * m / k), prepend=0.0)
    if fam == "gf":
        return 2.0 * np.log((m + 1 - k) / k)
    raise UnsupportedFamilyError(
        f"family {spec.family!r} has no standalone penalty (two-stage composition)"
    )


def penalty_factor(spec: PenaltySpec, k: int, m: int) -> float:
    """Per-parameter penalty factor lambda_{k,m}, the mean of c_1..c_k."""
    if not 1 <= k <= m:
        raise ValueError(f"model size must lie in [1, {m}], got {k}")
    return float(step_costs(spec, m, k).mean())


@dataclass(frozen=True, eq=False)
class PenaltyTable:
    """Penalty factors and step costs for one family on a (k, m) grid."""

    spec: PenaltySpec
    m: int
    k_max: int
    alpha: np.ndarray  # nan where the family has no step constants
    lam: np.ndarray
    cost: np.ndarray


def penalty_table(spec: PenaltySpec, m: int, k_max: Optional[int] = None) -> PenaltyTable:
    if k_max is None:
        k_max = m
    if not 1 <= k_max <= m:
        raise ValueError(f"k_max must lie in [1, {m}]")
    if spec.family in ("bh", "msfdr", "fixed-alpha"):
        alpha = _alphas(spec, m, k_max)
    else:
        alpha = np.full(k_max, np.nan)
    # lambda_k is the mean of each prefix, bit for bit as .mean() takes it:
    # 0.0 plus a pairwise sum of c_1..c_k, then one division.  reduceat
    # sums a segment as its first cell plus a pairwise sum of the rest, so
    # each even segment starts at a padded 0.0; the trailing 0.0 keeps the
    # last bound inside the array, and the odd one-cell segments are
    # dropped.  Without the pad, or with cumsum(c) / k, the bits differ
    # (tests/test_properties.py::test_penalty_table_lambda_is_each_prefix_mean).
    costs = step_costs(spec, m, k_max)
    ks = np.arange(1, k_max + 1)
    bounds = np.zeros(2 * k_max, dtype=np.intp)
    bounds[1::2] = ks + 1
    lam = np.add.reduceat(np.concatenate([[0.0], costs, [0.0]]), bounds)[::2] / ks
    # The cost column stays the differences of k*lambda_k, not ``costs``:
    # bench/reference.json pins that rounding (ROADMAP.md, item 7).
    cost = np.diff(np.concatenate([[0.0], ks * lam]))
    return PenaltyTable(spec=spec, m=m, k_max=k_max, alpha=alpha, lam=lam, cost=cost)
