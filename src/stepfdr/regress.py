"""Least-squares machinery: standardization, the greedy forward path,
exact reference solvers and residual-variance estimation.

The forward path works on the cross-product matrix X'X (Goodnight's
SWEEP operator in pivoted-Cholesky form): X'X, X'y and the signal's
X'mu are formed once, and each step costs O(m*k) instead of a pass
over the n*m data.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Dataset",
    "ForwardPath",
    "DegenerateColumnError",
    "standardize",
    "least_squares",
    "estimate_sigma2",
    "forward_path",
    "forward_sweep",
]

RANK_RTOL = 1e-12

log = logging.getLogger(__name__)


class DegenerateColumnError(ValueError):
    """A candidate column is constant and cannot be standardized."""


@dataclass(frozen=True)
class Dataset:
    """Response vector plus named candidate-predictor matrix."""

    y: np.ndarray
    X: np.ndarray
    names: tuple
    intercept_forced: bool = False
    standardized: bool = False

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("y length must match the number of rows of X")
        if X.shape[0] < 2 or X.shape[1] < 1:
            raise ValueError("need at least 2 observations and 1 candidate column")
        if len(self.names) != X.shape[1]:
            raise ValueError("one name per candidate column required")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def has_intercept(self) -> bool:
        # Standardization centers y and X, which absorbs one intercept dof.
        return self.intercept_forced or self.standardized


@dataclass(frozen=True)
class ForwardPath:
    """Ordered forward-selection entry sequence with its RSS profile.

    ``tsq[k-1]`` is the squared standardized coefficient of the k-th
    entering column, (RSS_{k-1} - RSS_k) / sigma2.
    """

    entered: tuple
    rss: np.ndarray
    sigma2: float
    sigma2_source: str
    intercept_forced: bool = False
    tsq: np.ndarray = field(init=False)

    def __post_init__(self):
        rss = np.asarray(self.rss, dtype=float)
        if len(rss) != len(self.entered) + 1:
            raise ValueError("rss must have one value per model size 0..K")
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")
        object.__setattr__(self, "entered", tuple(self.entered))
        object.__setattr__(self, "rss", rss)
        object.__setattr__(self, "tsq", -np.diff(rss) / self.sigma2)

    @property
    def depth(self) -> int:
        return len(self.entered)


def standardize(dataset: Dataset) -> Dataset:
    """Center y; center every column of X and scale it to unit length."""
    X = dataset.X
    means = X.mean(axis=0)
    Xc = X - means
    lengths = np.sqrt((Xc * Xc).sum(axis=0))
    bad = np.flatnonzero(lengths <= 0.0)
    if bad.size:
        raise DegenerateColumnError(
            f"column {dataset.names[bad[0]]!r} is constant and cannot be standardized"
        )
    yc = dataset.y - dataset.y.mean()
    return Dataset(
        y=yc,
        X=Xc / lengths,
        names=dataset.names,
        intercept_forced=dataset.intercept_forced,
        standardized=True,
    )


def least_squares(dataset: Dataset, subset: Sequence[int]) -> tuple:
    """Exact least-squares fit on ``subset`` columns; returns (coef, rss).

    Serves as the reference oracle for the incremental forward path.
    An intercept is included when the dataset carries one.
    """
    subset = list(subset)
    if len(set(subset)) != len(subset):
        raise ValueError("subset indices must be distinct")
    y = dataset.y
    cols = [dataset.X[:, j] for j in subset]
    if dataset.intercept_forced:
        cols = [np.ones(dataset.n)] + cols
    if not cols:
        if dataset.standardized:
            return np.empty(0), float(y @ y)
        return np.empty(0), float(((y - 0.0) ** 2).sum())
    A = np.column_stack(cols)
    if A.shape[1] >= dataset.n:
        raise ValueError("subset too large for the number of observations")
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        raise np.linalg.LinAlgError("subset columns are rank deficient")
    resid = y - A @ coef
    rss = float(resid @ resid)
    if dataset.intercept_forced:
        coef = coef[1:]
    return coef, rss


def estimate_sigma2(dataset: Dataset) -> float:
    """Residual variance of the full model, RSS_full / (n - m - intercept).

    The full model is fit by a Cholesky factor of X'X (of the centered
    columns when the intercept is forced), and RSS_full is taken from
    the residual y - Xb itself: an error d in b moves it by only |Xd|^2,
    while RSS_0 minus the explained sum of squares loses most of its
    digits at high R^2. When the factor fails or its smallest
    squared pivot is at or below the sweep's floor (RANK_RTOL times the
    largest diagonal of X'X, at least 1), a warning gives that ratio and
    ``least_squares`` fits the model by SVD instead; it raises
    ``LinAlgError`` when the pool is rank deficient.
    """
    dof = dataset.n - dataset.m - (1 if dataset.has_intercept else 0)
    if dof <= 0:
        raise ValueError(
            f"insufficient degrees of freedom: n={dataset.n}, m={dataset.m} "
            "(need n > m + 1 with an intercept)"
        )
    X, y = dataset.X, dataset.y
    if dataset.intercept_forced:
        X = X - X.mean(axis=0)
        y = y - y.mean()
    G = X.T @ X
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        ratio = 0.0
    else:
        ratio = float(L.diagonal().min()) ** 2 / max(float(G.diagonal().max()), 1.0)
    if ratio > RANK_RTOL:
        b = np.linalg.solve(L.T, np.linalg.solve(L, X.T @ y))
        r = y - X @ b
        rss_full = float(r @ r)
    else:
        log.warning(
            "full-model X'X is near singular (smallest squared Cholesky pivot "
            "/ largest diagonal = %.3g <= %g); fitting sigma2 by SVD least squares",
            ratio, RANK_RTOL,
        )
        _, rss_full = least_squares(dataset, range(dataset.m))
    scale = float(dataset.y @ dataset.y)
    if rss_full <= 1e-12 * max(scale, 1.0):
        warnings.warn(
            "full-model residual is numerically zero; the variance "
            "estimate is degenerate (response lies in the span of the "
            "candidates)",
            RuntimeWarning,
            stacklevel=2,
        )
    return rss_full / dof


def forward_sweep(
    X: np.ndarray,
    y: np.ndarray,
    k_max: int,
    center: bool = False,
    true_mean: Optional[np.ndarray] = None,
):
    """Greedy forward selection by maximal RSS reduction.

    Returns ``(order, rss, bias)`` where ``rss[k]`` is the residual sum
    of squares after k entries and ``bias`` (when ``true_mean`` is
    given) holds the squared norm of ``true_mean`` projected off the
    span of the model at each prefix, used for theoretical MSPE along
    the path. When ``center`` is set an intercept is swept out first
    and does not count toward ``order``.

    Ties (drops within RANK_RTOL * RSS_0 of the best) break toward the
    lowest column index; the path stops early once no candidate reduces
    the RSS by more than RANK_RTOL * RSS_0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m = X.shape[1]
    b = None if true_mean is None else np.asarray(true_mean, dtype=float)
    if center:
        X = X - X.mean(axis=0)
        y = y - y.mean()
        if b is not None:
            b = b - b.mean()

    # Residual cross-products after k entries: Gram row j is G[j] minus
    # L[:k, j] @ L[:k], where row l of L is the l-th entered column's
    # residual Gram row divided by the square root of its pivot.
    G = X.T @ X
    scores = X.T @ y  # X'r for the current residual r
    # Residual squared column norms; inf marks entered or degenerate columns.
    norms2 = G.diagonal().copy()
    floor = RANK_RTOL * max(norms2.max(initial=0.0), 1.0)
    norms2[norms2 <= floor] = math.inf
    rss0 = float(y @ y)
    tol = RANK_RTOL * rss0
    rss = [rss0]
    bias = None
    if b is not None:
        bscores = X.T @ b
        bias = [float(b @ b)]
    L = np.empty((max(min(k_max, m), 0), m))
    drops = np.empty(m)
    order = []

    for k in range(len(L)):
        np.square(scores, out=drops)
        drops /= norms2
        best = float(drops[drops.argmax()])
        if not tol < best < math.inf:
            break
        # Drops within tol of the best are ties, so rounding noise cannot
        # reorder duplicate columns: the lowest index enters.
        j = int((drops >= best - tol).argmax())
        drop = float(drops[j])
        pivot = math.sqrt(norms2[j])
        g = L[k]
        np.subtract(G[j], L[:k, j] @ L[:k], out=g)
        g /= pivot
        scores -= g * (scores[j] / pivot)
        norms2 -= g * g
        norms2[j] = math.inf
        norms2[norms2 <= floor] = math.inf
        order.append(j)
        rss.append(max(rss[-1] - drop, 0.0))
        if bias is not None:
            pb = bscores[j] / pivot
            bscores -= g * pb
            bias.append(max(bias[-1] - pb * pb, 0.0))

    bias_arr = np.array(bias) if bias is not None else None
    return order, np.array(rss), bias_arr


def forward_path(
    dataset: Dataset,
    sigma2: Optional[float] = None,
    k_max: Optional[int] = None,
) -> ForwardPath:
    """Run forward selection on a dataset and attach the sigma2 scale.

    ``sigma2=None`` estimates it from the full model; a positive value
    is used as a known variance.
    """
    if not (dataset.standardized or dataset.intercept_forced):
        raise ValueError("dataset must be standardized or carry a forced intercept")
    cap = min(dataset.m, dataset.n - 1 - (1 if dataset.has_intercept else 0))
    if k_max is None:
        k_max = cap
    if not 1 <= k_max <= cap:
        raise ValueError(f"k_max must lie in [1, {cap}], got {k_max}")
    if sigma2 is None:
        s2 = estimate_sigma2(dataset)
        source = "estimated-from-full-model"
        if s2 <= 0.0:
            raise ValueError("degenerate fit: full-model RSS is zero, sigma2 unavailable")
    else:
        s2 = float(sigma2)
        source = "known"
        if s2 <= 0.0:
            raise ValueError("known sigma2 must be positive")
    order, rss, _ = forward_sweep(
        dataset.X, dataset.y, k_max, center=dataset.intercept_forced
    )
    return ForwardPath(
        entered=order,
        rss=rss,
        sigma2=s2,
        sigma2_source=source,
        intercept_forced=dataset.has_intercept,
    )
