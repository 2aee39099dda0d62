"""Turn a forward path plus a penalty into a selected model.

Three stopping rules on the penalized-RSS trace, the iterative
p-to-enter computation of the multiple-stage procedure, and the
two-stage FDR composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .penalties import _LEVEL_FIELDS, PenaltySpec, _large_q_warned, _warn_large_q, step_costs
from .regress import Dataset, ForwardPath, forward_path, least_squares

__all__ = [
    "RULES",
    "SelectionResult",
    "stop",
    "choose_size",
    "select",
    "msfdr_iterative",
    "default_rule",
    "parse_method",
    "method_label",
]

RULES = ("first-local-min", "global-min", "last-crossing")

# Step-down procedures stop at the leftmost local minimum, the step-up
# BH at the last crossing; for the remaining penalties the global
# minimum of the penalized RSS reproduces the published diabetes
# selections, so it is the default.
_DEFAULT_RULES = {"msfdr": "first-local-min", "tsfdr": "first-local-min", "bh": "last-crossing"}


def default_rule(spec: PenaltySpec) -> str:
    return _DEFAULT_RULES.get(spec.family, "global-min")


def parse_method(token: str) -> Tuple[PenaltySpec, Optional[str]]:
    """Parse "family[:level][@rule]" into a penalty spec and rule override."""
    base, at, rule = token.strip().partition("@")
    if at and rule not in RULES:
        raise ValueError(f"unknown stopping rule {rule!r}")
    fam, _, level = base.partition(":")
    fam = fam.lower()
    field = _LEVEL_FIELDS.get(fam)
    try:
        levels = {field: float(level)} if field and level else {}
    except ValueError:
        raise ValueError(f"method {token.strip()!r}: level {level!r} is not a number") from None
    spec = PenaltySpec(fam, **levels)
    if level and field is None:
        raise ValueError(f"{fam} takes no level, got {base!r}")
    return spec, rule or None


def method_label(spec: PenaltySpec, rule: Optional[str]) -> Tuple[str, str]:
    """(effective rule, method token): a non-default rule is appended as "@rule".

    ``parse_method`` reads the token back as the same spec and rule.
    """
    eff = rule if rule is not None else default_rule(spec)
    label = spec.label() if eff == default_rule(spec) else f"{spec.label()}@{eff}"
    return eff, label


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Selected prefix of a forward path under one penalty and rule."""

    k_selected: int
    selected: tuple
    coefficients: np.ndarray
    trace: np.ndarray
    rule: str
    method: PenaltySpec
    sigma2: float
    sigma2_source: str
    iterations: Optional[int] = None

    @property
    def k_with_intercept(self) -> int:
        return self.k_selected + 1


def stop(trace: np.ndarray, rule: str) -> int | np.ndarray:
    """Model size chosen on a penalized trace by the given rule.

    Ties (equal consecutive trace values) count as continued descent,
    matching rejection at p-values exactly equal to their constants.
    A 2-d trace holds one path per row, each padded with +inf past its
    depth, and gives one model size per row.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.ndim not in (1, 2) or trace.shape[-1] < 1:
        raise ValueError("trace must be a nonempty 1-d sequence or a 2-d array of rows")
    K = trace.shape[-1] - 1
    prev, nxt = trace[..., :-1], trace[..., 1:]
    end = np.ones(trace.shape[:-1] + (1,), dtype=bool)
    if rule == "first-local-min":
        # First rise; the appended True stands for the end of the path.
        k = np.concatenate([nxt > prev, end], axis=-1).argmax(axis=-1)
    elif rule == "global-min":
        k = trace.argmin(axis=-1)
    elif rule == "last-crossing":
        # Last step that does not rise (a step into the +inf padding
        # rises); the prepended True stands for k = 0.
        down = np.concatenate([end, (nxt <= prev) & (nxt < np.inf)], axis=-1)
        k = K - down[..., ::-1].argmax(axis=-1)
    else:
        raise ValueError(f"unknown stopping rule {rule!r}")
    return int(k) if trace.ndim == 1 else k


def choose_size(rss: np.ndarray, sigma2: float, spec: PenaltySpec, m: int, rule: str):
    """Penalized trace, the model size its stopping rule picks, and the step costs.

    ``rss`` is RSS_0..RSS_K of one path, or one path per row padded
    with +inf past its depth; trace(k) = RSS_k + sigma2 * (c_1 + ... +
    c_k).  Returns ``(trace, k, c_1..c_K)``, each per row for 2-d input.

    Two-stage FDR: stage 1 is BH at q' = q/(1+q).  A path whose stage-1
    size r1 is neither 0 nor m is rescanned with the stage-2 constants
    k*q'/(m - r1); its trace and costs are the stage-2 ones.
    """
    rss = np.asarray(rss, dtype=float)
    paths = np.atleast_2d(rss)
    K = paths.shape[1] - 1
    stage = PenaltySpec("bh", q=spec.q / (1.0 + spec.q)) if spec.family == "tsfdr" else spec
    costs = np.empty((len(paths), K))

    def penalized(rows, pool):
        try:
            costs[rows] = c = step_costs(stage, pool, K) if K else np.zeros(0)
        except ValueError as err:  # name the method asked for, not its BH stage
            raise err if stage is spec else ValueError(f"{spec.label()}, stage {err}") from None
        with np.errstate(over="ignore"):  # a huge sigma2 gives an inf trace, as it should
            return paths[rows] + sigma2 * np.concatenate([[0.0], np.cumsum(c)])

    trace = penalized(slice(None), m)
    k = stop(trace, rule)
    if spec.family == "tsfdr":
        r1 = k.copy()
        for size in sorted(set(r1[(r1 > 0) & (r1 < m)].tolist())):
            rows = r1 == size
            trace[rows] = penalized(rows, m - size)
            k[rows] = stop(trace[rows], rule)
    return (trace[0], int(k[0]), costs[0]) if rss.ndim == 1 else (trace, k, costs)


def _path(dataset: Dataset, sigma2: Optional[float], path: Optional[ForwardPath]) -> ForwardPath:
    """``path``, or else the dataset's forward path at ``sigma2``; not both."""
    if path is None:
        return forward_path(dataset, sigma2=sigma2)
    if sigma2 is not None:
        raise ValueError("give sigma2 or path, not both: the path carries its own sigma2")
    return path


def _finish(dataset, path, spec, rule, trace, k, iterations=None) -> SelectionResult:
    selected = path.entered[:k]
    coef, _ = least_squares(dataset, selected)
    return SelectionResult(
        k_selected=k,
        selected=tuple(selected),
        coefficients=np.asarray(coef),
        trace=trace,
        rule=rule,
        method=spec,
        sigma2=path.sigma2,
        sigma2_source=path.sigma2_source,
        iterations=iterations,
    )


def select(
    dataset: Dataset,
    spec: PenaltySpec,
    rule: Optional[str] = None,
    sigma2: Optional[float] = None,
    path: Optional[ForwardPath] = None,
) -> SelectionResult:
    """Forward path -> penalized trace -> stopping rule -> refit.

    Takes a known ``sigma2`` (None estimates it) or a ``path``, not both.
    """
    if rule is None:
        rule = default_rule(spec)
    path = _path(dataset, sigma2, path)
    trace, k, _ = choose_size(path.rss, path.sigma2, spec, dataset.m, rule)
    return _finish(dataset, path, spec, rule, trace, k)


def msfdr_iterative(
    dataset: Dataset,
    q: float,
    sigma2: Optional[float] = None,
    path: Optional[ForwardPath] = None,
) -> SelectionResult:
    """Fixed-point computation of the multiple-stage procedure.

    Repeatedly runs forward selection at a constant p-to-enter, the
    msfdr step constant alpha_i = i*q/(m + 1 - i*(1 - q)), feeding the
    resulting model size back as the next index until it stabilizes.
    The intercept (every path has one) occupies position 1 of the size
    counter, so the counter is (entered candidates) + 1, up to m + 1,
    while the pool size m counts candidates only.  An entry's p-value
    is at most alpha_i exactly when its tsq reaches c_i, the step cost
    ``choose_size`` returns; costs fall with i, so an index past the
    path's depth admits every entry.  The index strictly rises until it
    stops before the first entry k with p_k > alpha_k, where the default
    step-down rule stops too.  ``sigma2`` and ``path`` are as in ``select``.
    """
    with _large_q_warned():  # warned next, from the caller's line
        spec = PenaltySpec("msfdr", q=q)
    _warn_large_q(spec, stacklevel=2)
    path = _path(dataset, sigma2, path)
    trace, _, costs = choose_size(path.rss, path.sigma2, spec, dataset.m, default_rule(spec))
    lowest = np.minimum.accumulate(path.tsq)

    run, i, iterations = 0, 1, 1
    while i <= len(costs) and (run := int((lowest >= costs[i - 1]).sum())) >= i:
        i, iterations = run + 1, iterations + 1

    return _finish(dataset, path, spec, "iterative-p-to-enter", trace, run, iterations)
