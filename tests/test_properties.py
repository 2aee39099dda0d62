"""Property tests for the numerical core.

The covariance-form forward sweep is checked against exact least-squares
refits on ill-conditioned pools, pools with n = m + 2, duplicate columns
and exact zero drops; the 2-d stopping rules against the 1-d rule row by
row (and both against a difference-based reference); the diabetes
full-depth entry orders against the orders the residual-matrix
(Gram-Schmidt) sweep produced; the array quantile function against
its scalar form; the penalty algebra of every family, and each
table's lambda_k against the mean of its prefix of costs; the batched
trace-to-size function against one call per path; the penalized
trace against the p-to-enter test it encodes; the iterative msfdr
fixed point on step costs against the same fixed point on p-values,
and its selection against the default step-down rule's; method tokens
read back as the spec and rule they were written from; ``ingest``
against the line-by-line parser it falls back to, on clean and broken
tables alike; the normal-equation ``estimate_sigma2`` against the
SVD least-squares fit, on collinear, high-R^2 and raw pools; the rank
floors of the sweep and of ``estimate_sigma2`` on raw pools whose
columns are in units up to 10^12 apart; the forward path, sigma2 and
selection of a raw dataset against those of its standardized copy;
``standardize`` against the one-pass ``einsum`` formula bit for bit, and
against the whole-matrix formula within 2*n*eps relative; ``standardize``
on constant columns of any finite value; the non-finite scan against a
row-major scan cell by cell, on C- and F-ordered tables whose row sums
overflow;
``minimax_summary`` against a per-label sort and ``np.mean``, and the
worst-k means of column copies of one loss matrix against
``minimax_summary`` of those cells, bit for bit; and forward selection
on designs orthonormal after centering against the Benjamini-Hochberg
step-up and msfdr step-down tests on sorted p-values.
"""

import logging
import re
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stepfdr import regress
from stepfdr.dataio import _header_names, _load_numeric, _parse_lines, _sniff_delimiter, ingest
from stepfdr.penalties import FAMILIES, PenaltySpec, penalty_table, step_alpha, step_costs
from stepfdr.quantiles import inverse_normal_cdf, two_sided_pvalue
from stepfdr.regress import (
    RANK_RTOL,
    Dataset,
    DegenerateColumnError,
    cross_products,
    estimate_sigma2,
    forward_path,
    forward_sweep,
    least_squares,
    standardize,
)
from stepfdr.selector import (
    RULES,
    choose_size,
    default_rule,
    method_label,
    msfdr_iterative,
    parse_method,
    select,
    stop,
)
from stepfdr.simlab import (ConfigOutcome, MethodOutcome, SimConfig, loss_matrix,
                            minimax_summary, worst_k_means)

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
    order, rss, _ = forward_sweep(cross_products(X, False), y, m)
    assert len(set(order)) == len(order)
    assert np.all(np.diff(rss) <= 0.0)
    _check_against_refits(X, y, order, rss, np.linalg.cond(X))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 10))
def test_sweep_with_n_just_above_m(seed, m):
    X, y = _pool(seed, m, m + 2, log_cond=1.0)
    order, rss, _ = forward_sweep(cross_products(X, False), y, m)
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
    order, rss, _ = forward_sweep(cross_products(X, center), y, m + 1)
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
    order, rss, _ = forward_sweep(cross_products(X, False), y, m)
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


def _sigma2_pool(seed, m, n, log_cond, noise, raw):
    """A `_pool`-style dataset whose noise is ``noise`` times the signal's
    RMS (0 puts y in the span), and the matrix ``least_squares`` fits.

    A raw pool has its columns scaled by up to 10x either way and offset;
    the others are centered as ``standardize`` would leave them.
    """
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, m)))
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    X = (U * np.logspace(0.0, -log_cond, m)) @ V.T
    signal = X @ rng.standard_normal(m)
    y = signal + noise * np.sqrt(signal @ signal / n) * rng.standard_normal(n)
    names = tuple(f"x{j}" for j in range(m))
    if raw:
        X = X * 10.0 ** rng.uniform(-1.0, 1.0, m) + rng.uniform(-5.0, 5.0, m)
        ds = Dataset(y=y + rng.uniform(-5.0, 5.0), X=X, names=names)
        return ds, np.column_stack([np.ones(n), X])
    X = X - X.mean(axis=0)
    return Dataset(y=y - y.mean(), X=X, names=names, standardized=True), X


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10), extra=st.sampled_from([2, 3, 6, 20]),
       log_cond=st.floats(0.0, 5.0), log_noise=st.floats(-6.0, 0.0), raw=st.booleans())
def test_sigma2_matches_least_squares(seed, m, extra, log_cond, log_noise, raw):
    """Normal equations square the condition number, and a high-R^2 RSS
    is sensitive to the residual's own rounding in either solver: the
    slack is eps * cond * (cond + |y| / |r|), with cond that of the
    matrix the SVD fit sees (the intercept column included).
    """
    ds, A = _sigma2_pool(seed, m, m + extra, log_cond, 10.0 ** log_noise, raw)
    dof = ds.n - ds.m - 1
    _, rss = least_squares(ds, range(m))
    cond = np.linalg.cond(A)
    y_over_r = np.sqrt(ds.y @ ds.y / rss)
    assert estimate_sigma2(ds) == pytest.approx(
        rss / dof, rel=16.0 * EPS * cond * (cond + y_over_r), abs=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), extra=st.integers(2, 12),
       raw=st.booleans(), data=st.data())
def test_sigma2_rejects_duplicate_columns(seed, m, extra, raw, data):
    ds, _ = _sigma2_pool(seed, m, m + extra, 1.0, 0.1, raw)
    i, j = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    X = ds.X.copy()
    X[:, i] = X[:, j]
    dup = Dataset(y=ds.y, X=X, names=ds.names, standardized=ds.standardized)
    with pytest.raises(np.linalg.LinAlgError, match=f"rank deficient: 'x{max(i, j)}' lies in "
                       "the span of the intercept and the columns before it;"):
        estimate_sigma2(dup)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), extra=st.integers(2, 12),
       log_cond=st.floats(0.0, 3.0), raw=st.booleans())
def test_sigma2_warns_when_y_lies_in_the_span(seed, m, extra, log_cond, raw):
    ds, _ = _sigma2_pool(seed, m, m + extra, log_cond, 0.0, raw)
    # caplog is function-scoped, so each example captures its own records.
    with unittest.TestCase().assertLogs("stepfdr.regress", logging.WARNING) as logs:
        estimate_sigma2(ds)
    [record] = logs.records
    assert record.levelno == logging.WARNING
    assert re.search("numerically zero", record.getMessage())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10), extra=st.sampled_from([2, 3, 6, 20]),
       log_cond=st.floats(0.0, 3.0), log_scale=st.floats(0.0, 6.0), data=st.data())
def test_rank_floors_ignore_column_units(seed, m, extra, log_cond, log_scale, data):
    """A raw pool with its columns rescaled by up to
    10**log_scale either way fits sigma2 without the SVD fallback, to
    the unit pool's SVD value, and sweeps in the unit pool's order up
    to the first near tie; an exact duplicate column still raises.
    """
    unit, A = _sigma2_pool(seed, m, m + extra, log_cond, 0.1, raw=True)
    scales = 10.0 ** np.random.default_rng(seed).uniform(-log_scale, log_scale, m)
    raw = Dataset(y=unit.y, X=unit.X * scales, names=unit.names)

    with mock.patch.object(regress, "least_squares",
                           side_effect=AssertionError("took the SVD fallback")):
        s2 = estimate_sigma2(raw)
    _, rss = least_squares(unit, range(m))
    cond = np.linalg.cond(A)
    y_over_r = np.sqrt(unit.y @ unit.y / rss)
    assert s2 == pytest.approx(rss / (unit.n - m - 1),
                               rel=16.0 * EPS * cond * (cond + y_over_r), abs=0.0)

    order, _, _ = forward_sweep(cross_products(raw.X, True), raw.y, m)
    want, want_rss, _ = forward_sweep(cross_products(unit.X, True), unit.y, m)
    k = next((k for k, (a, b) in enumerate(zip(order, want)) if a != b), None)
    if k is None:
        assert order == want
    else:  # a near tie: both columns' refit drops agree to the sweep's slack
        slack = RANK_RTOL * want_rss[0] + 100.0 * cond**2 * EPS * want_rss[0]
        fits = [least_squares(unit, want[:k] + [j])[1] for j in (order[k], want[k])]
        assert abs(fits[0] - fits[1]) <= slack

    if m >= 2:
        i, j = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        X = raw.X.copy()
        X[:, max(i, j)] = X[:, min(i, j)]
        dup = Dataset(y=raw.y, X=X, names=raw.names)
        with pytest.raises(np.linalg.LinAlgError):
            estimate_sigma2(dup)
        assert max(i, j) not in forward_sweep(cross_products(X, True), raw.y, m)[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10), extra=st.sampled_from([2, 3, 6, 20]),
       log_scale=st.floats(0.0, 6.0))
def test_raw_dataset_selects_as_its_standardized_copy(seed, m, extra, log_scale):
    """Every model has an intercept: a raw dataset, its columns offset
    either way by up to 1e9 of their spreads (log-uniformly) and in units
    up to 10**log_scale apart, has the forward path, sigma2 and msfdr
    selection of its standardized copy. RSS_k is RSS_0 minus the drops,
    so its error is measured against RSS_0: at n = m + 2 the full model
    can leave 1e-8 of it.
    """
    rng = np.random.default_rng(seed)
    n = m + extra
    X = rng.standard_normal((n, m))
    y = X @ rng.standard_normal(m) + rng.standard_normal(n) + rng.uniform(-100.0, 100.0)
    offsets = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-2.0, 9.0, m)
    X = (X + offsets) * 10.0 ** rng.uniform(-log_scale, log_scale, m)
    raw = Dataset(y=y, X=X, names=tuple(f"x{j}" for j in range(m)))
    unit = standardize(raw)
    got, want = forward_path(raw), forward_path(unit)
    assert got.entered == want.entered
    np.testing.assert_allclose(got.rss, want.rss, rtol=0.0, atol=1e-9 * want.rss[0])
    assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-9, abs=0.0)
    spec = PenaltySpec("msfdr", q=0.05)
    assert select(raw, spec).selected == select(unit, spec).selected


def _standardize_check(X, y):
    """``standardize`` equals the one-pass formula to the bit, and the
    whole-matrix formula within the rounding of an n-term sum, and
    leaves its input alone."""
    X0, y0 = X.copy(), y.copy()
    ds = standardize(Dataset(y=y, X=X, names=tuple(f"x{j}" for j in range(X.shape[1]))))
    Xc = X - X.mean(0)
    assert ds.X.tobytes() == (Xc / np.sqrt(np.einsum("ij,ij->j", Xc, Xc))).tobytes()
    np.testing.assert_allclose(ds.X, Xc / np.sqrt((Xc * Xc).sum(0)),
                               rtol=2 * X.shape[0] * np.finfo(float).eps, atol=0.0)
    assert ds.y.tobytes() == (y - y.mean()).tobytes()
    assert X.tobytes() == X0.tobytes() and y.tobytes() == y0.tobytes()


def _raw_columns(rng, n, m, order):
    X = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3.0, 3.0, m) + rng.uniform(-1e3, 1e3, m)
    return np.asarray(X, order=order), 5.0 * rng.standard_normal(n) + 2.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 50), m=st.integers(1, 200),
       order=st.sampled_from("CF"), data=st.data())
def test_standardize_matches_whole_matrix_formula(seed, n, m, order, data):
    X, y = _raw_columns(np.random.default_rng(seed), n, m, order)
    _standardize_check(X, y)

    j = data.draw(st.integers(0, m - 1))
    X[:, j] = data.draw(st.sampled_from([0.0, 1.0, -2.5, 1e3]))
    with pytest.raises(DegenerateColumnError, match=f"column 'x{j}' is constant"):
        standardize(Dataset(y=y, X=X, names=tuple(f"x{k}" for k in range(m))))


# A constant column whose mean rounds centers to a few ulps, not to 0;
# values past 1e154 overflow the squared length, and past about
# 1.8e308 / n the mean itself.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.one_of(st.integers(2, 64), st.integers(2, 10**5)),
       value=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.1, -0.1, 1.0 / 3.0, 1e-310, 1e200, 1e308])),
       order=st.sampled_from("CF"), data=st.data())
def test_constant_columns_always_raise(seed, n, value, order, data):
    X, y = _raw_columns(np.random.default_rng(seed), n, 3, order)
    j = data.draw(st.integers(0, 2))
    X[:, j] = value
    with np.errstate(over="ignore"), pytest.raises(
            DegenerateColumnError, match=f"column 'x{j}' is constant"):
        standardize(Dataset(y=y, X=X, names=("x0", "x1", "x2")))


# Rows of +-1.5e308 cells are finite, but their sums overflow.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), m=st.integers(1, 20),
       order=st.sampled_from("CF"), data=st.data())
def test_first_nonfinite_is_the_first_bad_cell_in_row_major_order(seed, n, m, order, data):
    rng = np.random.default_rng(seed)
    X = np.array(rng.standard_normal((n, m)), order=order)
    huge = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    X[huge] = 1.5e308 * rng.choice([-1.0, 1.0], size=(len(huge), m))
    assert regress._first_nonfinite(X) is None
    for _ in range(data.draw(st.integers(1, 4))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
        X[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    first = next((i, j) for i in range(n) for j in range(m) if not np.isfinite(X[i, j]))
    assert regress._first_nonfinite(X) == first


# The three AS241 regions: central |p - 0.5| <= 0.425, intermediate down
# to p ~ 1.4e-11 (r <= 5), far tail beyond; each side of 0.5.
_REGIONS = [(0.075, 0.925), (1.4e-11, 0.075), (1e-300, 1.4e-11),
            (0.925, 1.0 - 1e-15)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_array_quantile_matches_elementwise(data):
    ps = []
    for lo, hi in _REGIONS:
        if lo < 1e-200:  # log-uniform so the far tail is actually reached
            ps += [10.0 ** e for e in data.draw(st.lists(
                st.floats(-300.0, np.log10(hi)), min_size=1, max_size=4))]
        else:
            ps += data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=4))
    ps = np.array(ps)
    got = inverse_normal_cdf(ps)
    assert got.shape == ps.shape
    assert got.tolist() == [inverse_normal_cdf(float(p)) for p in ps]
    assert inverse_normal_cdf(ps[:, None])[:, 0].tolist() == got.tolist()


def _family_spec(family, level):
    if family in ("bh", "msfdr"):
        return PenaltySpec(family, q=level)
    if family == "fixed-alpha":
        return PenaltySpec(family, p=level)
    if family == "bm":
        return PenaltySpec(family, c_bm=1.0 + 1000.0 * level)
    return PenaltySpec(family)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family=st.sampled_from([f for f in FAMILIES if f != "tsfdr"]),
       level=st.floats(0.001, 0.45), m=st.integers(1, 200))
def test_penalty_algebra(family, level, m):
    spec = _family_spec(family, level)
    costs = step_costs(spec, m, m)
    table = penalty_table(spec, m)
    klam = np.arange(1, m + 1) * table.lam
    assert np.diff(klam, prepend=0.0) == pytest.approx(costs, rel=1e-9, abs=1e-9)
    for k in {1, (m + 1) // 2, m}:
        assert step_costs(spec, m, k).tolist() == costs[:k].tolist()


# numpy sums a prefix pairwise, with an unrolled block of 8 and a
# recursion leaf of 128: prefixes of 9, 129 and 257 take one more split.
# penalty_table takes every prefix in one np.add.reduceat over the costs
# with a 0.0 in front; without that pad reduceat adds c_1 to a pairwise
# sum of c_2..c_k, and the bits differ from .mean()'s.
@settings(max_examples=80, deadline=None, derandomize=True)
@given(family=st.sampled_from([f for f in FAMILIES if f != "tsfdr"]),
       level=st.floats(0.001, 0.45),
       m=st.one_of(st.integers(1, 1100), st.sampled_from([8, 9, 128, 129, 256, 257])),
       data=st.data())
def test_penalty_table_lambda_is_each_prefix_mean(family, level, m, data):
    spec = _family_spec(family, level)
    k_max = data.draw(st.one_of(st.just(m), st.integers(1, m)))
    costs = step_costs(spec, m, k_max)
    lam = penalty_table(spec, m, k_max).lam
    assert lam.tolist() == [costs[:k].mean() for k in range(1, k_max + 1)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), m=st.integers(1, 8), nrows=st.integers(1, 12),
       rule=st.sampled_from(RULES),
       spec=st.sampled_from([PenaltySpec("msfdr", q=0.3), PenaltySpec("bh", q=0.4),
                             PenaltySpec("tsfdr", q=0.4), PenaltySpec("tsfdr", q=0.05),
                             PenaltySpec("aic"), PenaltySpec("gf")]))
def test_batched_size_matches_one_path_at_a_time(data, m, nrows, rule, spec):
    # Decreasing RSS paths of random depth whose drops (in units of
    # sigma2) straddle the step costs, padded with +inf past their depth.
    sigma2 = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    rows = np.full((nrows, m + 1), np.inf)
    depths = []
    for i in range(nrows):
        depth = data.draw(st.integers(0, m))
        drops = data.draw(st.lists(st.floats(0.0, 8.0), min_size=depth, max_size=depth))
        rows[i, : depth + 1] = 100.0 - sigma2 * np.concatenate([[0.0], np.cumsum(drops)])
        depths.append(depth)
    traces, ks, _ = choose_size(rows, sigma2, spec, m, rule)
    assert traces.shape == rows.shape and ks.shape == (nrows,)
    for i, depth in enumerate(depths):
        trace, k, _ = choose_size(rows[i, : depth + 1], sigma2, spec, m, rule)
        assert isinstance(k, int) and ks[i] == k <= depth
        assert traces[i, : depth + 1].tolist() == trace.tolist()
        assert np.all(traces[i, depth + 1:] == np.inf)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), extra=st.integers(2, 20),
       log_sigma2=st.floats(-3.0, 1.0),
       spec=st.sampled_from([PenaltySpec("bh", q=0.05), PenaltySpec("bh", q=0.4),
                             PenaltySpec("msfdr", q=0.05), PenaltySpec("msfdr", q=0.3),
                             PenaltySpec("fixed-alpha", p=0.05),
                             PenaltySpec("fixed-alpha", p=0.5)]))
def test_trace_rises_exactly_when_the_entry_test_fails(seed, m, extra, log_sigma2, spec):
    # Penalized <=> testing: trace(k) - trace(k-1) = sigma2 * (c_k - tsq_k)
    # and c_k = z(alpha_k / 2)^2, so the trace rises at step k exactly
    # when the entering term's two-sided p-value exceeds alpha_k.  Steps
    # within rounding of a tie on either side are skipped.
    X, y = _pool(seed, m, m + extra, log_cond=1.0)
    ds = standardize(Dataset(y=y, X=X, names=tuple(f"x{j}" for j in range(m))))
    path = forward_path(ds, sigma2=10.0**log_sigma2)
    trace, _, _ = choose_size(path.rss, path.sigma2, spec, m, default_rule(spec))
    scale = float(np.abs(trace).max())
    for k, tsq in enumerate(path.tsq.tolist(), 1):
        rise = trace[k] - trace[k - 1]
        p, alpha = two_sided_pvalue(max(tsq, 0.0)), step_alpha(spec, k, m)
        if abs(rise) <= 1e-12 * scale or abs(p - alpha) <= 1e-6 * alpha:
            continue
        assert (rise > 0) == (p > alpha), (k, tsq, p, alpha)


def _pvalue_fixed_point(tsq, q, m):
    """The iterative msfdr size and iteration count, written on p-values.

    Forward selection at p-to-enter alpha_i = i*q/(m + 1 - i*(1 - q)),
    its size fed back as the next index i (the intercept is position 1)
    until the index no longer rises.
    """
    pvals = [two_sided_pvalue(max(t, 0.0)) for t in tsq.tolist()]
    i, iterations = 1, 0
    while True:
        iterations += 1
        alpha = i * q / (m + 1 - i * (1.0 - q))
        run = 0
        while run < len(pvals) and pvals[run] <= alpha:
            run += 1
        if run + 1 <= i:
            return run, iterations
        i = run + 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), extra=st.sampled_from([2, 3, 6, 20]),
       log_cond=st.floats(0.0, 4.0), log_sigma2=st.floats(-4.0, 0.0),
       copies=st.integers(0, 2), q=st.floats(1e-4, 0.5, exclude_max=True), data=st.data())
def test_iterative_msfdr_is_the_step_down_rule(seed, m, extra, log_cond, log_sigma2, copies, q,
                                               data):
    # Collinear pools (condition number up to 1e4), n as low as m + 2,
    # and up to two exact duplicate columns.  The fixed point on step
    # costs takes the same size in the same number of iterations as on
    # p-values, and it selects what msfdr's default step-down rule does.
    X, y = _pool(seed, m, m + extra, log_cond)
    for _ in range(copies):
        X = np.insert(X, data.draw(st.integers(0, X.shape[1])),
                      X[:, data.draw(st.integers(0, m - 1))], axis=1)
    ds = standardize(Dataset(y=y, X=X, names=tuple(f"x{j}" for j in range(X.shape[1]))))
    path = forward_path(ds, sigma2=10.0**log_sigma2)
    res = msfdr_iterative(ds, q, path=path)
    assert (res.k_selected, res.iterations) == _pvalue_fixed_point(path.tsq, q, ds.m)
    assert res.selected == select(ds, PenaltySpec("msfdr", q=q), path=path).selected


def _step_up(pvals, alphas):
    """How many of the sorted p-values BH's step-up test rejects."""
    return max((k for k, (p, a) in enumerate(zip(pvals, alphas), 1) if p <= a), default=0)


def _step_down(pvals, alphas):
    """How many of the sorted p-values a step-down test rejects."""
    return next((k for k, (p, a) in enumerate(zip(pvals, alphas)) if p > a), len(pvals))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), extra=st.integers(2, 20),
       q=st.floats(1e-3, 0.5, exclude_max=True), near_line=st.booleans())
def test_orthonormal_selection_is_the_multiple_test(seed, m, extra, q, near_line):
    # With centered orthonormal columns and known sigma2 = 1, forward
    # selection enters the columns in order of |z_j|, z_j = x_j'y (an
    # independent N(beta_j, 1) when y = X beta + N(0, I)). So bh at its
    # default rule selects exactly the Benjamini-Hochberg step-up set,
    # and msfdr at its own the step-down set with alpha_i =
    # iq/(m+1-i(1-q)), both read here from the sorted two-sided p-values
    # without any penalty code. Half the draws set the z_j to p-values
    # around the BH line iq/m, where the step-up and step-down tests
    # often differ, and keep the noise out of the span of X.
    rng = np.random.default_rng(seed)
    n = m + extra
    Z = rng.standard_normal((n, m))
    X, _ = np.linalg.qr(Z - Z.mean(axis=0))
    k = np.arange(1.0, m + 1)
    noise = rng.standard_normal(n)
    if near_line:
        p = np.minimum(k * q / m * np.exp(rng.uniform(-1.0, 1.0, m)), 0.9)
        beta = inverse_normal_cdf(p / 2.0) * rng.choice([-1.0, 1.0], m)
        noise -= X @ (X.T @ noise)
    else:
        beta = rng.uniform(-6.0, 6.0, m) * (rng.random(m) < 0.5)
    y = X @ beta + noise
    ds = Dataset(y=y - y.mean(), X=X, names=tuple(f"x{j}" for j in range(m)), standardized=True)
    path = forward_path(ds, sigma2=1.0)
    pvalue = [two_sided_pvalue(float(zj) ** 2) for zj in X.T @ ds.y]
    by_p = sorted(range(m), key=pvalue.__getitem__)
    pvals = [pvalue[j] for j in by_p]
    for family, alphas, size in (("bh", k * q / m, _step_up),
                                 ("msfdr", k * q / (m + 1 - k * (1 - q)), _step_down)):
        spec = PenaltySpec(family, q=q)
        costs = step_costs(spec, m, m)
        assume(np.all(np.abs(path.tsq - costs) > 1e-9 * costs))
        want = size(pvals, alphas.tolist())
        assert sorted(select(ds, spec, path=path).selected) == sorted(by_p[:want])


# Levels whose :g form loses digits (0.05000001, 1234567) are included.
_Q_LEVELS = st.one_of(st.sampled_from([0.05, 0.05000001, 0.1, 1.0 / 3.0]), st.floats(1e-9, 0.49))
_BM_CONSTANTS = st.one_of(st.sampled_from([2000.0, 5.0, 1234567.0, 1234568.0]),
                          st.floats(1e-3, 1e12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(family=st.sampled_from(FAMILIES), level=_Q_LEVELS, c_bm=_BM_CONSTANTS,
       rule=st.sampled_from((None,) + RULES))
def test_method_tokens_round_trip(family, level, c_bm, rule):
    levels = {"bh": {"q": level}, "msfdr": {"q": level}, "tsfdr": {"q": level},
              "fixed-alpha": {"p": level}, "bm": {"c_bm": c_bm}}
    spec = PenaltySpec(family, **levels.get(family, {}))
    eff, label = method_label(spec, rule)
    back, back_rule = parse_method(label)
    assert back == spec
    assert method_label(back, back_rule) == (eff, label)


# Cell styles: what `float` and numpy both parse, and `1_000`, which
# only `float` does.
_CELL_STYLES = {
    "repr": st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    "int": st.integers(-10**6, 10**6).map(str),
    "exp": st.floats(-1e6, 1e6).map(lambda v: "%.6e" % v),
    "underscore": st.integers(-10**6, 10**6).map(lambda i: f"{i:_}"),
}
_BREAKS = (None, "oops", "", "nan", "inf", "1e400", "ragged", "#", "extra name")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), delim=st.sampled_from([",", "\t"]),
       newline=st.sampled_from(["\n", "\r\n", "\r"]),
       ncols=st.integers(1, 4), nrows=st.integers(0, 6), has_response=st.booleans(),
       style=st.sampled_from(sorted(_CELL_STYLES)), breakage=st.sampled_from(_BREAKS),
       blank=st.sampled_from([None, "", "   ", "\t"]), pad=st.booleans())
def test_ingest_matches_line_parser(data, delim, newline, ncols, nrows, has_response, style,
                                    breakage, blank, pad):
    names = [f"c{j}" for j in range(ncols)]
    names[data.draw(st.integers(0, ncols - 1))] = "Y" if has_response else "Z"
    cells = [[data.draw(_CELL_STYLES[style]) for _ in range(ncols)] for _ in range(nrows)]
    if pad:
        cells = [[f" {c}  " for c in row] for row in cells]
    lines = [delim.join(names)] + [delim.join(row) for row in cells]
    if breakage == "extra name":  # every row is one cell short
        lines[0] += delim + "extra"
    elif breakage is not None and nrows:
        i = data.draw(st.integers(1, nrows))
        if breakage == "ragged":
            lines[i] = delim.join(cells[i - 1][:-1])
        elif breakage == "#":
            lines[i] = "#" + lines[i]
        else:
            row = list(cells[i - 1])
            row[data.draw(st.integers(0, ncols - 1))] = breakage
            lines[i] = delim.join(row)
    if blank is not None:
        lines.insert(data.draw(st.integers(0, len(lines))), blank)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_bytes(newline.join(lines).encode() + newline.encode())
        fast = _ingest_outcome(lambda: ingest(path, "Y", standardize_data=False))
        slow = _ingest_outcome(lambda: _dataset_from_lines(path))
        assert fast == slow
        clean = (breakage is None and blank in (None, "") and style != "underscore"
                 and nrows >= 3 and has_response)
        if clean:  # the table took numpy's path
            with open(path, encoding="utf-8") as fh:
                next(ln for ln in fh if ln.strip())
                assert _load_numeric(fh, delim) is not None


def _ingest_outcome(read):
    """Names and the exact bytes of y and X, or the error message."""
    try:
        ds = read()
    except ValueError as exc:
        return str(exc)
    return ds.names, ds.X.shape, ds.y.tobytes(), ds.X.tobytes()


def _dataset_from_lines(path):
    """The line parser's Dataset, after the header checks ``ingest`` makes first."""
    with open(path, encoding="utf-8") as fh:
        line = next(ln for ln in fh if ln.strip())
        delim = _sniff_delimiter(line)
        header = _header_names(path, line, delim)
        if "Y" not in header:
            raise ValueError(f"{path}: response column 'Y' not found in header")
        table = _parse_lines(path, fh, header, delim)
    keep = [j for j, name in enumerate(header) if name != "Y"]
    return Dataset(y=table[:, header.index("Y")], X=table[:, keep],
                   names=tuple(header[j] for j in keep))


def _reference_minimax(outcomes, worst_k):
    """The per-label summary: each label's losses sorted as a list, then np.mean."""
    out = {}
    for label in [mo.label for mo in outcomes[0].methods]:
        losses = sorted((next(mo.relative_loss for mo in o.methods if mo.label == label)
                         for o in outcomes), reverse=True)
        out[label] = float(np.mean(losses if worst_k == "ALL" else losses[:worst_k]))
    return out


def _drawn_outcomes(data, cells, methods, ties):
    """Outcomes of ``cells`` cells, all holding the labels in one drawn order.

    Losses drawn from a handful of values (``ties``) tie often.
    """
    loss = (st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.1]) if ties
            else st.floats(1.0, 10.0, allow_nan=False))
    order = data.draw(st.permutations([f"method{i}" for i in range(methods)]))
    configs = [SimConfig(m=20, rho=0.0, beta_type=1, p_index=1, seed=j) for j in range(cells)]
    return [ConfigOutcome(config, 1.0, tuple(
        MethodOutcome(label, 1.0, data.draw(loss), 0.0) for label in order))
        for config in configs]


# k runs past the cell count and through numpy's 8-wide unrolled sums
# (8, 9, 16, 17).
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), cells=st.integers(1, 40), methods=st.integers(1, 6),
       ties=st.booleans())
def test_minimax_summary_matches_per_label_sort(data, cells, methods, ties):
    outcomes = _drawn_outcomes(data, cells, methods, ties)
    for worst_k in [*range(1, cells + 3), 8, 9, 16, 17, "ALL"]:
        got = minimax_summary(outcomes, worst_k)
        assert list(got) == [mo.label for mo in outcomes[0].methods]
        assert got == _reference_minimax(outcomes, worst_k)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), cells=st.integers(1, 40), methods=st.integers(1, 6),
       ties=st.booleans())
def test_column_copies_of_one_loss_matrix_match_minimax_summary(data, cells, methods, ties):
    # summarize reduces C-ordered copies (take) of a subset of one
    # matrix's columns; each must equal minimax_summary of those cells
    # alone, bit for bit.
    outcomes = _drawn_outcomes(data, cells, methods, ties)
    labels, losses = loss_matrix(outcomes)
    columns = sorted(data.draw(st.sets(st.integers(0, cells - 1), min_size=1)))
    subset = losses.take(columns, axis=1)
    assert subset.flags.c_contiguous
    for worst_k in [*range(1, len(columns) + 2), 8, 9, "ALL"]:
        got = dict(zip(labels, worst_k_means(subset, worst_k)))
        assert got == minimax_summary([outcomes[j] for j in columns], worst_k)
