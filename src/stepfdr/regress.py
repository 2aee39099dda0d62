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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "Dataset",
    "ForwardPath",
    "Pool",
    "DegenerateColumnError",
    "standardize",
    "least_squares",
    "estimate_sigma2",
    "forward_path",
    "cross_products",
    "forward_sweep",
]

RANK_RTOL = 1e-12

log = logging.getLogger(__name__)


class DegenerateColumnError(ValueError):
    """A candidate column is constant and cannot be standardized."""


def _first_nonfinite(data: np.ndarray):
    """(row, column) of the first non-finite cell of a table in row-major order, or None.

    A table's min and max are finite exactly when all its cells are, and
    take no temporary: an ``np.isfinite`` mask of the wide benchmark's
    table took its peak RSS from 58.7 to 66.0 MB.
    """
    if math.isfinite(data.min()) and math.isfinite(data.max()):
        return None
    row, col = np.argwhere(~np.isfinite(data))[0]
    return int(row), int(col)


def _check_shapes(y: np.ndarray, X: np.ndarray, names) -> None:
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("y length must match the number of rows of X")
    if X.shape[0] < 2 or X.shape[1] < 1:
        raise ValueError("need at least 2 observations and 1 candidate column")
    if len(names) != X.shape[1]:
        raise ValueError("one name per candidate column required")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Response vector plus named candidate-predictor matrix.

    Every model fit on a dataset has an intercept. ``standardized``
    marks X and y as already centered, which sweeps the intercept out;
    otherwise the pool (``cross_products(X, True)``) and
    ``least_squares`` center them, so no fit holds a ones column.

    The constructor names a non-finite cell by its row (from 1) and, in
    X, its column. ``_derived`` skips that scan for the datasets that
    ``ingest`` (copied from a table it checked), ``standardize`` (every
    squared length finite, so each cell within ±1) and ``expand`` (its
    products go to ``standardize``, which names an overflowed one) build.
    """

    y: np.ndarray
    X: np.ndarray
    names: tuple
    standardized: bool = False

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        _check_shapes(y, X, self.names)
        bad = _first_nonfinite(X)
        if bad is not None:
            row, col = bad
            raise ValueError(f"non-finite X cell at row {row + 1}, column "
                             f"{self.names[col]!r}: {X[row, col]}")
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            raise ValueError(f"non-finite y cell at row {bad[0] + 1}: {y[bad[0]]}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "names", tuple(self.names))

    @classmethod
    def _derived(cls, y: np.ndarray, X: np.ndarray, names, standardized: bool = False):
        """A dataset of float arrays whose cells are known to be finite; no cell is scanned."""
        _check_shapes(y, X, names)
        ds = object.__new__(cls)
        ds.__dict__.update(y=y, X=X, names=tuple(names), standardized=standardized)
        return ds

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class ForwardPath:
    """Ordered forward-selection entry sequence with its RSS profile.

    ``tsq[k-1]`` is the squared standardized coefficient of the k-th
    entering column, (RSS_{k-1} - RSS_k) / sigma2.
    """

    entered: tuple
    rss: np.ndarray
    sigma2: float
    sigma2_source: str
    tsq: np.ndarray = field(init=False)

    def __post_init__(self):
        rss = np.asarray(self.rss, dtype=float)
        if len(rss) != len(self.entered) + 1:
            raise ValueError("rss must have one value per model size 0..K")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be a positive finite number, got {self.sigma2}")
        object.__setattr__(self, "entered", tuple(self.entered))
        object.__setattr__(self, "rss", rss)
        with np.errstate(over="ignore"):  # a subnormal sigma2 gives tsq = inf, as it should
            object.__setattr__(self, "tsq", -np.diff(rss) / self.sigma2)

    @property
    def depth(self) -> int:
        return len(self.entered)


def _constant(lengths, n: int, mean):
    """Whether centered squared lengths are only the rounding of the mean:
    at most n * eps * |mean| in each of n entries (with mean 0, zeros)."""
    return lengths <= n * (n * np.finfo(float).eps * mean) ** 2


def standardize(dataset: Dataset) -> Dataset:
    """Center y; center every column of X and scale it to unit length.

    The input is left untouched. Besides the centered copy of X, only
    one value per column is held: ``np.einsum`` sums each column's
    squares without forming them. A constant column or response
    (``_constant``), or one whose squared length overflows, is rejected,
    so the result's cells are finite.
    """
    X = dataset.X
    n = X.shape[0]
    # Entries past about 1e154 overflow the squared length (and past
    # about 1.8e308 / n the mean); the checks below report it as an
    # error, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        Xc = X - mean
        lengths = np.einsum("ij,ij->j", Xc, Xc)
        constant = _constant(lengths, n, mean)
        y_mean = dataset.y.mean()
        yc = dataset.y - y_mean
        y_length = float(yc @ yc)
        y_constant = _constant(y_length, n, y_mean)
    # An overflowing column that is not constant would be scaled to zeros,
    # and one holding an infinite cell (a product that overflowed in
    # ``expand``) to nans.
    for j in np.flatnonzero(~np.isfinite(lengths)):
        if not math.isfinite(X[0, j]) or (X[:, j] != X[0, j]).any():
            raise ValueError(f"column {dataset.names[j]!r} is too large to standardize: "
                             "its squared length overflows")
    bad = np.flatnonzero(constant)
    if bad.size:
        raise DegenerateColumnError(f"column {dataset.names[bad[0]]!r} is constant and "
                                    "cannot be standardized")
    if not math.isfinite(y_length):
        raise ValueError("the response is too large to standardize: its squared length overflows")
    if y_constant:
        raise ValueError("the response is constant and cannot be standardized")
    np.sqrt(lengths, out=lengths)
    np.divide(Xc, lengths, out=Xc)
    return Dataset._derived(yc, Xc, dataset.names, standardized=True)


def least_squares(dataset: Dataset, subset: Sequence[int]) -> tuple:
    """Exact least-squares fit on ``subset`` columns; returns (coef, rss).

    Serves as the reference oracle for the incremental forward path.
    The intercept is swept out as in the pool: y and the subset's
    columns are centered, unless the dataset is standardized and so
    centered already. Every fit spends one degree of freedom on the
    intercept, so a subset of n - 1 or more columns is rejected.
    """
    subset = list(subset)
    if len(set(subset)) != len(subset):
        raise ValueError("subset indices must be distinct")
    y, A = dataset.y, dataset.X[:, subset]
    if not dataset.standardized:
        y = y - y.mean()
        A = A - A.mean(axis=0)
    if not subset:
        return np.empty(0), float(y @ y)
    if len(subset) + 1 >= dataset.n:
        raise ValueError("subset too large for the number of observations")
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < len(subset):
        raise np.linalg.LinAlgError("subset columns are rank deficient")
    resid = y - A @ coef
    return coef, float(resid @ resid)


class Pool(NamedTuple):
    """A pool in cross-product form, as ``cross_products`` returns it."""

    X: np.ndarray  # centered when ``center`` is set
    G: np.ndarray  # X'X of that X
    dead: np.ndarray  # constant columns, by ``standardize``'s rounding rule (``_constant``)
    center: bool
    signal: Optional[tuple]  # (X'b, b'b) of the true mean b, centered with X, or None


def cross_products(X: np.ndarray, center: bool, true_mean: Optional[np.ndarray] = None) -> Pool:
    """The ``Pool`` of X, centered when ``center`` is set.

    Centering is the intercept's sweep step. It leaves a constant column
    only the rounding of its mean, and ``standardize``'s rule
    (``_constant``) marks such a column ``dead``; an uncentered pool's
    mask marks only all-zero columns. A dataset's pool is
    ``cross_products(dataset.X, not dataset.standardized)``, so a
    standardized X is not copied again.
    """
    X = np.asarray(X, dtype=float)
    b = None if true_mean is None else np.asarray(true_mean, dtype=float)
    means = 0.0
    if center:
        means = X.mean(axis=0)
        X = X - means
        if b is not None:
            b = b - b.mean()
    G = X.T @ X
    signal = None if b is None else (X.T @ b, float(b @ b))
    return Pool(X, G, _constant(G.diagonal(), X.shape[0], means), center, signal)


def _rank_deficiency(names: tuple, pool: Pool) -> str:
    """Why a pool's full model is rank deficient, naming the columns at fault.

    Dead columns are constant. A natural-order QR of the others names each
    column that the columns before it explain to RANK_RTOL of its squared
    norm, so of two copies of a column it names the later one.
    """
    live = np.flatnonzero(~pool.dead)
    r = np.linalg.qr(pool.X[:, live], mode="r").diagonal()
    explained = live[r * r <= RANK_RTOL * pool.G.diagonal()[live]]
    faults = [f"{names[j]!r} is constant" for j in np.flatnonzero(pool.dead)]
    faults += [f"{names[j]!r} lies in the span of the intercept and the columns before it"
               for j in explained]
    found = ": " + ", ".join(faults) if faults else ""
    return f"full model is rank deficient{found}; a known sigma2 skips the full-model fit"


def estimate_sigma2(dataset: Dataset, pool: Optional[Pool] = None) -> float:
    """Residual variance of the full model with its intercept, RSS_full / (n - m - 1).

    ``pool`` is the dataset's ``cross_products(dataset.X, not
    dataset.standardized)``, formed here when not given;
    ``forward_path`` passes the one its sweep uses.

    The full model is fit by one solve of X'X b = X'y on the pool's
    centered columns, and RSS_full is taken from the residual y - Xb
    itself: an error d in b moves it by only |Xd|^2, while RSS_0 minus
    the explained sum of squares loses most of its digits at high R^2. A
    Cholesky factor of X'X checks the rank first: when the pool has a
    dead column, the factor fails, or a squared pivot is at most
    RANK_RTOL times its column's diagonal of X'X (unit-free),
    ``least_squares`` fits the pool's columns by SVD instead and a
    logged warning gives the smallest ratio (0 for a dead column); on a
    rank-deficient pool only the ``LinAlgError`` is raised, naming the
    columns at fault. An RSS_full of at most RANK_RTOL of RSS_0 is logged too.
    """
    dof = dataset.n - dataset.m - 1
    if dof <= 0:
        raise ValueError(f"insufficient degrees of freedom: n={dataset.n}, m={dataset.m} "
                         "(need n > m + 1 with an intercept)")
    if pool is None:
        pool = cross_products(dataset.X, not dataset.standardized)
    X, G = pool.X, pool.G
    y = dataset.y - dataset.y.mean() if pool.center else dataset.y
    ratio = 0.0
    if not pool.dead.any():
        try:
            ratio = float((np.linalg.cholesky(G).diagonal() ** 2 / G.diagonal()).min())
        except np.linalg.LinAlgError:
            pass
    if ratio > RANK_RTOL:
        b = np.linalg.solve(G, X.T @ y)
        r = y - X @ b
        rss_full = float(r @ r)
    else:
        try:
            _, rss_full = least_squares(Dataset._derived(y, X, dataset.names, True),
                                        range(dataset.m))
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(_rank_deficiency(dataset.names, pool)) from None
        log.warning(
            "full-model X'X is near singular (smallest squared pivot / its "
            "column's squared norm = %.3g <= %g); fitting sigma2 by SVD least squares",
            ratio, RANK_RTOL,
        )
    if rss_full <= RANK_RTOL * float(y @ y):  # RSS_0, around the intercept: unit-free
        log.warning("full-model residual is numerically zero; the variance estimate is "
                    "degenerate (response lies in the span of the candidates)")
    return rss_full / dof


def forward_sweep(pool: Pool, y: np.ndarray, k_max: int):
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
    squared norm falls to RANK_RTOL times its squared norm after centering
    never enters, nor does a dead one; both floors are unit-free.
    """
    X, G, dead, center, signal = pool
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
    norms2[dead] = math.inf
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

    return order, np.array(rss), None if bias is None else np.array(bias)


def forward_path(dataset: Dataset, sigma2: Optional[float] = None) -> ForwardPath:
    """Run forward selection on a dataset and attach the sigma2 scale.

    The path runs until no candidate is left or one more entry would
    leave no residual degree of freedom, and a warning names the columns
    that never entered when it stops sooner.  ``sigma2=None`` estimates
    the scale from the full model; a positive value is used as a known
    variance.
    """
    k_max = min(dataset.m, dataset.n - 2)  # one dof goes to the intercept
    if k_max < 1:
        raise ValueError(f"n={dataset.n} leaves no room for one entry")
    pool = cross_products(dataset.X, not dataset.standardized)
    if sigma2 is None:
        s2 = estimate_sigma2(dataset, pool)
        source = "estimated-from-full-model"
        if s2 <= 0.0:
            raise ValueError("degenerate fit: full-model RSS is zero, sigma2 unavailable")
    else:
        s2 = float(sigma2)
        source = "known"
    order, rss, _ = forward_sweep(pool, dataset.y, k_max)
    if len(order) < k_max:
        left = sorted(set(range(dataset.m)) - set(order))
        log.warning("forward path stopped at depth %d of %d: no column left reduces the RSS by "
                    "more than %g of RSS_0; never entered: %s", len(order), k_max, RANK_RTOL,
                    ", ".join(repr(dataset.names[j]) for j in left))
    return ForwardPath(entered=order, rss=rss, sigma2=s2, sigma2_source=source)
