"""Property tests for the numerical core.

The covariance-form forward sweep is checked against exact least-squares
refits on ill-conditioned pools, pools with n = m + 2, duplicate columns
and exact zero drops; the 2-d stopping rules against the 1-d rule row by
row (and both against a difference-based reference); the diabetes
full-depth entry orders against the orders the residual-matrix
(Gram-Schmidt) sweep produced; the array quantile function against
its scalar form; the penalty algebra of every family; the batched
trace-to-size function against one call per path; method tokens
read back as the spec and rule they were written from; ``ingest``
against the line-by-line parser it falls back to, on clean and broken
tables alike; and the normal-equation ``estimate_sigma2`` against the
SVD least-squares fit, on collinear, high-R^2 and raw pools.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepfdr.dataio import _load_numeric, _parse_lines, ingest
from stepfdr.penalties import FAMILIES, PenaltySpec, penalty_table, step_cost, step_costs
from stepfdr.quantiles import inverse_normal_cdf
from stepfdr.regress import Dataset, estimate_sigma2, forward_path, forward_sweep, least_squares
from stepfdr.selector import RULES, choose_size, method_label, parse_method, stop

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


def _sigma2_pool(seed, m, n, log_cond, noise, raw):
    """A `_pool`-style dataset whose noise is ``noise`` times the signal's
    RMS (0 puts y in the span), and the matrix ``least_squares`` fits.

    A raw pool has its columns scaled by up to 10x either way and offset,
    and forces an intercept; the others are centered as ``standardize``
    would leave them.
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
        ds = Dataset(y=y + rng.uniform(-5.0, 5.0), X=X, names=names, intercept_forced=True)
        return ds, np.column_stack([np.ones(n), X])
    X = X - X.mean(axis=0)
    return Dataset(y=y - y.mean(), X=X, names=names, standardized=True), X


# At noise 1e-6 the RSS can fall under the numerically-zero threshold,
# which warns; the value is still compared.
@pytest.mark.filterwarnings("ignore:full-model residual is numerically zero")
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
    dup = Dataset(y=ds.y, X=X, names=ds.names, intercept_forced=ds.intercept_forced,
                  standardized=ds.standardized)
    with pytest.raises(np.linalg.LinAlgError):
        estimate_sigma2(dup)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), extra=st.integers(2, 12),
       log_cond=st.floats(0.0, 3.0), raw=st.booleans())
def test_sigma2_warns_when_y_lies_in_the_span(seed, m, extra, log_cond, raw):
    ds, _ = _sigma2_pool(seed, m, m + extra, log_cond, 0.0, raw)
    with pytest.warns(RuntimeWarning, match="numerically zero"):
        estimate_sigma2(ds)


# PPND16 regions: central |p - 0.5| <= 0.425, intermediate down to
# p ~ 1.4e-11 (r <= 5), far tail beyond; each side of 0.5.
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
        assert step_cost(spec, k, m) == costs[k - 1]
        assert step_costs(spec, m, k).tolist() == costs[:k].tolist()


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
    traces, ks = choose_size(rows, sigma2, spec, m, rule)
    assert traces.shape == rows.shape and ks.shape == (nrows,)
    for i, depth in enumerate(depths):
        trace, k = choose_size(rows[i, : depth + 1], sigma2, spec, m, rule)
        assert isinstance(k, int) and ks[i] == k <= depth
        assert traces[i, : depth + 1].tolist() == trace.tolist()
        assert np.all(traces[i, depth + 1:] == np.inf)


# Levels whose :g form loses digits (0.05000001, 1234567) are included.
_Q_LEVELS = st.one_of(st.sampled_from([0.05, 0.05000001, 0.1, 1.0 / 3.0]), st.floats(1e-9, 0.49))
_BM_CONSTANTS = st.one_of(st.sampled_from([2000.0, 5.0, 1234567.0, 1234568.0]),
                          st.floats(1e-3, 1e12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(family=st.sampled_from(FAMILIES), level=_Q_LEVELS, c_bm=_BM_CONSTANTS,
       rule=st.sampled_from((None,) + RULES))
def test_method_tokens_round_trip(family, level, c_bm, rule):
    # Specs with a cap are left out: tokens cannot express it.
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
@given(data=st.data(), delim=st.sampled_from([",", "\t"]), newline=st.sampled_from(["\n", "\r\n"]),
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
    header, table = _parse_lines(path, "Y")
    keep = [j for j, name in enumerate(header) if name != "Y"]
    return Dataset(y=table[:, header.index("Y")], X=table[:, keep],
                   names=tuple(header[j] for j in keep))
