"""Property tests for the numerical core.

The covariance-form forward sweep is checked against exact least-squares
refits on ill-conditioned pools, pools with n = m + 2, duplicate columns
and exact zero drops; the 2-d stopping rules against the 1-d rule row by
row (and both against a difference-based reference); and the diabetes full-depth entry orders against the orders the
residual-matrix (Gram-Schmidt) sweep produced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepfdr.regress import Dataset, forward_path, forward_sweep, least_squares
from stepfdr.selector import RULES, stop

EPS = np.finfo(float).eps

# Examples are derandomized so every run of the suite checks the same
# cases; a path may stop early by chance on a fresh random draw.

# Full-depth entry orders recorded with the Gram-Schmidt sweep, which
# kept residualized copies of the n x m data and so did not square the
# condition number.
DIABETES_MAIN_ORDER = ("BMI", "S5", "BP", "S1", "SEX", "S2", "S4", "S6", "S3", "AGE")
DIABETES_QUAD_ORDER = (
    "BMI", "S5", "BP", "AGE*SEX", "BMI*BP", "S3", "SEX", "S6^2", "AGE^2", "BP*S6",
    "S1", "S2", "S5^2", "AGE*S2", "AGE*S1", "SEX*BP", "S6", "S4", "SEX*S4", "SEX*BMI",
    "S1*S4", "S4*S6", "S3*S6", "BP*S1", "BMI*S5", "BMI^2", "S4^2", "S1^2", "S1*S3",
    "AGE*S6", "S2*S6", "SEX*S6", "AGE", "BMI*S4", "BMI*S6", "S1*S2", "S2*S5", "AGE*S4",
    "AGE*S3", "BMI*S3", "AGE*S5", "SEX*S1", "SEX*S2", "SEX*S5", "SEX*S3", "S3*S5",
    "S1*S5", "S1*S6", "S5*S6", "BP*S4", "BP*S3", "BP*S5", "BP*S2", "S3*S4", "S3^2",
    "S2*S4", "S4*S5", "S2*S3", "S2^2", "AGE*BP", "AGE*BMI", "BMI*S1", "BMI*S2", "BP^2",
)


def _pool(seed, m, n, log_cond):
    """n x m pool whose singular values run from 1 down to 10**-log_cond."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, m)))
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    X = (U * np.logspace(0.0, -log_cond, m)) @ V.T
    beta = rng.standard_normal(m) * (rng.random(m) < 0.5)
    y = X @ beta + 0.1 * rng.standard_normal(n)
    return X, y


def _check_against_refits(X, y, order, rss, cond):
    """Every prefix RSS matches a refit, and each entry is the best refit.

    The covariance form's error grows as cond^2 * eps, so both checks
    allow that much slack relative to RSS_0.
    """
    ds = Dataset(y=y, X=X, names=tuple(f"x{j}" for j in range(X.shape[1])),
                 standardized=True)
    slack = (1e-9 + 100.0 * cond**2 * EPS) * rss[0]
    assert rss[0] == pytest.approx(float(y @ y))
    for k in range(1, len(order) + 1):
        _, exact = least_squares(ds, order[:k])
        assert abs(rss[k] - exact) <= slack
        for j in set(range(X.shape[1])) - set(order[:k]):
            try:
                _, other = least_squares(ds, order[:k - 1] + [j])
            except np.linalg.LinAlgError:
                continue
            assert exact <= other + slack


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), extra=st.integers(2, 12),
       log_cond=st.floats(0.0, 4.0))
def test_sweep_matches_refits_on_ill_conditioned_pools(seed, m, extra, log_cond):
    X, y = _pool(seed, m, m + extra, log_cond)
    order, rss, _ = forward_sweep(X, y, k_max=m)
    assert len(set(order)) == len(order)
    assert np.all(np.diff(rss) <= 0.0)
    _check_against_refits(X, y, order, rss, np.linalg.cond(X))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 10))
def test_sweep_with_n_just_above_m(seed, m):
    X, y = _pool(seed, m, m + 2, log_cond=1.0)
    order, rss, _ = forward_sweep(X, y, k_max=m)
    assert len(order) == m
    _check_against_refits(X, y, order, rss, np.linalg.cond(X))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), data=st.data(),
       center=st.booleans())
def test_duplicate_column_never_enters(seed, m, data, center):
    rng = np.random.default_rng(seed)
    n = m + 6
    X = rng.standard_normal((n, m))
    y = X[:, : max(m // 2, 1)].sum(axis=1) + rng.standard_normal(n)
    first = data.draw(st.integers(0, m - 1))
    dup = data.draw(st.integers(first + 1, m))
    X = np.insert(X, dup, X[:, first], axis=1)
    order, rss, _ = forward_sweep(X, y, k_max=m + 1, center=center)
    # The lowest index wins the tie and the copy is left with no residual.
    assert dup not in order
    assert len(order) == m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 7), data=st.data())
def test_exact_zero_drops_stop_the_path(seed, m, data):
    # Scaled coordinate columns: drop j is a[j]**2 and every column off
    # the response's support has an exactly zero score.  Equal |a[j]|
    # are ties, so the lowest index enters first.
    rng = np.random.default_rng(seed)
    n = m + 3
    rows = rng.permutation(n)
    X = np.zeros((n, m))
    X[rows[:m], np.arange(m)] = rng.uniform(0.5, 2.0, m)
    a = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0]),
                                    min_size=m, max_size=m)))
    y = np.zeros(n)
    y[rows[:m]] = a
    y[rows[m]] = 0.5  # out of every column's reach
    order, rss, _ = forward_sweep(X, y, k_max=m)
    assert order == sorted(np.flatnonzero(a).tolist(), key=lambda j: (-a[j] ** 2, j))
    assert rss[-1] == pytest.approx(0.25)


def _stop_reference(trace, rule):
    """Reference 1-d rule, computed from the trace differences."""
    K = len(trace) - 1
    diffs = np.diff(trace)
    if rule == "first-local-min":
        rising = np.flatnonzero(diffs > 0)
        return int(rising[0]) if rising.size else K
    if rule == "global-min":
        return int(np.argmin(trace))
    down = np.flatnonzero(diffs <= 0)
    return int(down[-1]) + 1 if down.size else 0


def _trace_rows(draw_values, lengths, width):
    """Rows of given depth, each padded with +inf to a common width."""
    rows = np.full((len(lengths), width), np.inf)
    for i, (vals, depth) in enumerate(zip(draw_values, lengths)):
        rows[i, : depth + 1] = vals[: depth + 1]
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), width=st.integers(1, 9), nrows=st.integers(1, 6),
       rule=st.sampled_from(RULES))
def test_stop_rows_match_1d_rule(data, width, nrows, rule):
    # Few distinct levels, so equal consecutive trace values are common.
    level = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    values = [data.draw(st.lists(level, min_size=width, max_size=width)) for _ in range(nrows)]
    depths = [data.draw(st.integers(0, width - 1)) for _ in range(nrows)]
    traces = _trace_rows(values, depths, width)
    got = stop(traces, rule)
    assert got.shape == (nrows,)
    for i, depth in enumerate(depths):
        row = traces[i, : depth + 1]
        assert got[i] == stop(row, rule) == _stop_reference(row, rule)


def test_stop_rows_with_ties_and_padding():
    traces = np.array([
        [5.0, 4.0, 4.0, 3.0, np.inf],   # tie continues the descent
        [5.0, 5.0, 6.0, np.inf, np.inf],
        [2.0, 1.0, 1.0, 1.0, 1.0],       # full depth, flat tail
        [1.0, np.inf, np.inf, np.inf, np.inf],
    ])
    assert stop(traces, "first-local-min").tolist() == [3, 1, 4, 0]
    assert stop(traces, "global-min").tolist() == [3, 0, 1, 0]
    assert stop(traces, "last-crossing").tolist() == [3, 1, 4, 0]


@pytest.mark.parametrize("pool, expected", [("main", DIABETES_MAIN_ORDER),
                                            ("quad", DIABETES_QUAD_ORDER)])
def test_diabetes_full_depth_orders(pool, expected, diabetes_main, diabetes_quad):
    ds = diabetes_main if pool == "main" else diabetes_quad
    path = forward_path(ds, sigma2=1.0)
    assert tuple(ds.names[j] for j in path.entered) == expected
    for k in range(path.depth + 1):
        _, exact = least_squares(ds, path.entered[:k])
        assert path.rss[k] == pytest.approx(exact, rel=1e-9)
