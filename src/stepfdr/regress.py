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
    "cross_products",
    "forward_sweep",
]

RANK_RTOL = 1e-12
STANDARDIZE_BLOCK_BYTES = 1 << 18

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
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be a positive finite number, got {self.sigma2}")
        object.__setattr__(self, "entered", tuple(self.entered))
        object.__setattr__(self, "rss", rss)
        object.__setattr__(self, "tsq", -np.diff(rss) / self.sigma2)

    @property
    def depth(self) -> int:
        return len(self.entered)


def standardize(dataset: Dataset) -> Dataset:
    """Center y; center every column of X and scale it to unit length.

    The input is left untouched. Besides the centered copy of X, only
    the squares of one block of columns are held at a time, at most
    ``STANDARDIZE_BLOCK_BYTES`` of them unless two columns take more;
    each column is summed on its own, so the lengths equal those of a
    whole-matrix ``(Xc * Xc).sum(axis=0)`` bit for bit.
    """
    X = dataset.X
    n, m = X.shape
    # numpy sums a lone column of a C-ordered matrix pairwise but a wider
    # block row by row, so no block, the tail included, is one column.
    width = max(STANDARDIZE_BLOCK_BYTES // (n * X.itemsize), 2)
    edges = [*range(0, max(m - 1, 1), width), m]
    lengths = np.empty(m)
    # Entries past about 1e154 overflow the squared length (and past
    # about 1.8e308 / n the mean); the checks below report it as an
    # error, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        Xc = X - mean
        for a, b in zip(edges, edges[1:]):
            block = Xc[:, a:b]
            np.sum(block * block, axis=0, out=lengths[a:b])
        # A constant column centers to the rounding error of its mean, at
        # most n * eps * |mean| in each of its n entries.
        constant = lengths <= n * (n * np.finfo(float).eps * mean) ** 2
    # An overflowing column that is not constant would be scaled to zeros.
    if not math.isfinite(lengths.sum()):
        for j in np.flatnonzero(~np.isfinite(lengths)):
            if (X[:, j] != X[0, j]).any():
                raise ValueError(f"column {dataset.names[j]!r} is too large to standardize: "
                                 "its squared length overflows")
    bad = np.flatnonzero(constant)
    if bad.size:
        raise DegenerateColumnError(
            f"column {dataset.names[bad[0]]!r} is constant and cannot be standardized"
        )
    np.sqrt(lengths, out=lengths)
    yc = dataset.y - dataset.y.mean()
    np.divide(Xc, lengths, out=Xc)
    return Dataset(
        y=yc,
        X=Xc,
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
        return np.empty(0), float(y @ y)
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


def cross_products(X: np.ndarray, center: bool, true_mean: Optional[np.ndarray] = None):
    """The cross-product form of a pool: ``(X, G, start, center, signal)``.

    X comes back centered when ``center`` is set; G = X'X of the
    returned X, ``start`` holds each column's squared norm before
    centering (G's diagonal plus n times its squared mean), and
    ``signal`` is ``(X'b, b'b)`` of the true mean b, centered with X,
    or None. Centering is the intercept's sweep step: it leaves a
    constant column rounding noise, far under ``start``.
    """
    X = np.asarray(X, dtype=float)
    b = None if true_mean is None else np.asarray(true_mean, dtype=float)
    if center:
        means = X.mean(axis=0)
        X = X - means
        if b is not None:
            b = b - b.mean()
    G = X.T @ X
    start = G.diagonal() + X.shape[0] * means * means if center else G.diagonal()
    signal = None if b is None else (X.T @ b, float(b @ b))
    return X, G, start, center, signal


def estimate_sigma2(dataset: Dataset, pool: Optional[tuple] = None) -> float:
    """Residual variance of the full model, RSS_full / (n - m - intercept).

    ``pool`` is the dataset's ``cross_products(dataset.X,
    dataset.intercept_forced)``, formed here when not given;
    ``forward_path`` passes the one its sweep uses.

    The full model is fit by a Cholesky factor of X'X (of the centered
    columns when the intercept is forced), and RSS_full is taken from
    the residual y - Xb itself: an error d in b moves it by only |Xd|^2,
    while RSS_0 minus the explained sum of squares loses most of its
    digits at high R^2. When the factor fails or a squared pivot is at
    most RANK_RTOL times its column's diagonal of X'X (the pivots of the
    correlation matrix, so column units do not matter), a warning gives
    the smallest ratio and ``least_squares`` fits the model by SVD
    instead; it raises ``LinAlgError`` when the pool is rank deficient.
    With a forced intercept, a column that centering leaves with at most
    RANK_RTOL of its squared norm counts as constant and also falls back.
    """
    dof = dataset.n - dataset.m - (1 if dataset.has_intercept else 0)
    if dof <= 0:
        raise ValueError(
            f"insufficient degrees of freedom: n={dataset.n}, m={dataset.m} "
            "(need n > m + 1 with an intercept)"
        )
    if pool is None:
        pool = cross_products(dataset.X, dataset.intercept_forced)
    X, G, start, center, _ = pool
    y = dataset.y - dataset.y.mean() if center else dataset.y
    diag = G.diagonal()
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        ratio = 0.0
    else:
        ratio = float((L.diagonal() ** 2 / diag).min())
        if center:
            ratio = min(ratio, float((diag / start).min()))
    if ratio > RANK_RTOL:
        b = np.linalg.solve(L.T, np.linalg.solve(L, X.T @ y))
        r = y - X @ b
        rss_full = float(r @ r)
    else:
        log.warning(
            "full-model X'X is near singular (smallest squared pivot / its "
            "column's squared norm = %.3g <= %g); fitting sigma2 by SVD least squares",
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


def forward_sweep(pool: tuple, y: np.ndarray, k_max: int):
    """Greedy forward selection by maximal RSS reduction on a ``cross_products`` pool.

    Returns ``(order, rss, bias)`` where ``rss[k]`` is the residual sum
    of squares after k entries and ``bias`` (when the pool carries a
    true mean) holds the squared norm of the true mean projected off
    the span of the model at each prefix, used for theoretical MSPE
    along the path. When the pool is centered an intercept is swept
    out first and does not count toward ``order``. The pool is left
    unchanged, so it can serve many responses.

    Ties (drops within RANK_RTOL * RSS_0 of the best) break toward the
    lowest column index; the path stops early once no candidate reduces
    the RSS by more than RANK_RTOL * RSS_0. A column whose residual
    squared norm falls to RANK_RTOL times its own starting one (after
    centering) never enters, nor does one that centering leaves with
    at most RANK_RTOL of its squared norm; both floors are unit-free.
    """
    X, G, start, center, signal = pool
    y = np.asarray(y, dtype=float)
    y = y - y.mean() if center else y
    m = X.shape[1]

    # Residual cross-products after k entries: Gram row j is G[j] minus
    # L[:k, j] @ L[:k], where row l of L is the l-th entered column's
    # residual Gram row divided by the square root of its pivot.
    scores = X.T @ y  # X'r for the current residual r
    # Residual squared column norms; inf marks entered or degenerate columns.
    norms2 = G.diagonal().copy()
    floor = RANK_RTOL * norms2
    norms2[norms2 <= RANK_RTOL * start] = math.inf
    rss0 = float(y @ y)
    tol = RANK_RTOL * rss0
    rss = [rss0]
    bias = None
    if signal is not None:
        bscores = signal[0].copy()
        bias = [signal[1]]
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


def forward_path(dataset: Dataset, sigma2: Optional[float] = None) -> ForwardPath:
    """Run forward selection on a dataset and attach the sigma2 scale.

    The path runs until no candidate is left or one more entry would
    leave no residual degree of freedom.  ``sigma2=None`` estimates the
    scale from the full model; a positive value is used as a known
    variance.
    """
    if not (dataset.standardized or dataset.intercept_forced):
        raise ValueError("dataset must be standardized or carry a forced intercept")
    k_max = min(dataset.m, dataset.n - 1 - (1 if dataset.has_intercept else 0))
    if k_max < 1:
        raise ValueError(f"n={dataset.n} leaves no room for one entry")
    pool = cross_products(dataset.X, dataset.intercept_forced)
    if sigma2 is None:
        s2 = estimate_sigma2(dataset, pool)
        source = "estimated-from-full-model"
        if s2 <= 0.0:
            raise ValueError("degenerate fit: full-model RSS is zero, sigma2 unavailable")
    else:
        s2 = float(sigma2)
        source = "known"
    order, rss, _ = forward_sweep(pool, dataset.y, k_max)
    return ForwardPath(
        entered=order,
        rss=rss,
        sigma2=s2,
        sigma2_source=source,
        intercept_forced=dataset.has_intercept,
    )
