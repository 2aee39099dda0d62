"""Least-squares machinery versus direct numpy reference computations."""

import logging
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from stepfdr import regress
from stepfdr.dataio import ExpansionSpec, expand
from stepfdr.penalties import PenaltySpec
from stepfdr.regress import (
    Dataset,
    DegenerateColumnError,
    ForwardPath,
    cross_products,
    estimate_sigma2,
    forward_path,
    forward_sweep,
    least_squares,
    standardize,
)
from stepfdr.selector import select
from stepfdr.selfcheck import brute_force_forward


def _random_dataset(rng, n=30, m=6):
    X = rng.standard_normal((n, m))
    beta = rng.standard_normal(m)
    y = X @ beta + rng.standard_normal(n)
    names = tuple(f"x{j}" for j in range(m))
    return Dataset(y=y, X=X, names=names)


def _assert_one_regress_warning(records, words):
    [record] = records
    assert (record.name, record.levelno) == ("stepfdr.regress", logging.WARNING)
    assert re.search(words, record.getMessage())


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(y=np.zeros(3), X=np.zeros((4, 2)), names=("a", "b"))
        with pytest.raises(ValueError):
            Dataset(y=np.zeros(4), X=np.zeros((4, 2)), names=("a",))
        with pytest.raises(ValueError):
            Dataset(y=np.zeros(4), X=np.zeros(4), names=("a",))

    @pytest.mark.parametrize("build", [Dataset, Dataset._derived], ids=["checked", "derived"])
    def test_a_repeated_name_is_rejected_with_both_columns(self, build):
        # Two coefficients of one name could not be told apart in a report.
        X = np.arange(12.0).reshape(4, 3)
        with pytest.raises(ValueError, match=re.escape("column name 'a' names columns 1 and 3")):
            build(np.arange(4.0), X, ("a", "b", "a"))

    @pytest.mark.parametrize("fit", [standardize, forward_path])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_cell_is_named_by_row_and_column(self, capfd, value, fit):
        # Unchecked, standardize called a nan column too large, and the
        # raw path's SVD wrote LAPACK lines to stderr before it failed.
        rng = np.random.default_rng(3)
        X, y = rng.standard_normal((30, 4)), rng.standard_normal(30)
        X[6, 2] = value
        message = f"non-finite X cell at row 7, column 'x2': {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit(Dataset(y=y, X=X, names=("x0", "x1", "x2", "x3")))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_y_cell_is_named_by_row(self, capfd, value):
        # Unchecked, a nan response gave a path with nan RSS and no error.
        rng = np.random.default_rng(4)
        X, y = rng.standard_normal((30, 4)), rng.standard_normal(30)
        y[11] = value
        with pytest.raises(ValueError, match=re.escape(f"non-finite y cell at row 12: {value}")):
            forward_path(Dataset(y=y, X=X, names=("x0", "x1", "x2", "x3")))
        assert capfd.readouterr() == ("", "")


class TestStandardize:
    def test_centered_unit_columns(self):
        rng = np.random.default_rng(1)
        ds = standardize(_random_dataset(rng))
        assert np.allclose(ds.X.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose((ds.X**2).sum(axis=0), 1.0, atol=1e-12)
        assert abs(ds.y.mean()) < 1e-12

    def test_constant_column_rejected(self):
        X = np.ones((10, 2))
        X[:, 0] = np.arange(10)
        ds = Dataset(y=np.arange(10.0), X=X, names=("a", "const"))
        with pytest.raises(DegenerateColumnError, match="const"):
            standardize(ds)

    @pytest.mark.parametrize("column", [
        np.tile([1e200, -1e200], 25),  # mean 0: was scaled to zeros
        1e200 * np.random.default_rng(2).standard_normal(50),  # was called constant
        np.tile([1.7e308, -1.7e308], 25),  # the mean overflows too
    ], ids=["alternating", "normal", "past-the-mean"])
    def test_overflowing_column_rejected_by_name(self, column):
        X = np.column_stack([np.arange(50.0), column])
        ds = Dataset(y=np.arange(50.0), X=X, names=("a", "big"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="column 'big' is too large to standardize") \
                    as info:
                standardize(ds)
        assert not isinstance(info.value, DegenerateColumnError)

    def test_a_response_too_large_is_rejected(self):
        # Every cell is finite; only the squared length overflows.
        y = np.tile([1e200, -2e200, 3e200], 4)
        ds = Dataset(y=y, X=np.arange(24.0).reshape(12, 2) ** 2, names=("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the response is too large to standardize: "
                                                 "its squared length overflows$"):
                standardize(ds)

    def test_a_constant_response_is_rejected(self):
        # Seven 0.1s center to +-1.4e-17, not to zero.
        ds = Dataset(y=np.full(7, 0.1), X=np.arange(14.0).reshape(7, 2) ** 2, names=("a", "b"))
        with pytest.raises(ValueError, match="^the response is constant and cannot be "
                                             "standardized$") as info:
            standardize(ds)
        assert not isinstance(info.value, DegenerateColumnError)


class TestLeastSquares:
    def test_matches_numpy_lstsq(self):
        rng = np.random.default_rng(2)
        ds = standardize(_random_dataset(rng))
        for subset in ([], [0], [3, 1], [0, 1, 2, 3, 4, 5]):
            coef, rss = least_squares(ds, subset)
            if subset:
                A = ds.X[:, subset]
                ref = np.linalg.lstsq(A, ds.y, rcond=None)[0]
                assert np.allclose(coef, ref, atol=1e-10)
                assert rss == pytest.approx(float(np.sum((ds.y - A @ ref) ** 2)))
            else:
                assert rss == pytest.approx(float(ds.y @ ds.y))

    def test_forced_intercept(self):
        rng = np.random.default_rng(3)
        raw = _random_dataset(rng)
        ds = Dataset(y=raw.y + 5.0, X=raw.X, names=raw.names)
        coef, rss = least_squares(ds, [0, 2])
        A = np.column_stack([np.ones(ds.n), ds.X[:, [0, 2]]])
        ref = np.linalg.lstsq(A, ds.y, rcond=None)[0]
        assert np.allclose(coef, ref[1:], atol=1e-10)
        assert rss == pytest.approx(float(np.sum((ds.y - A @ ref) ** 2)))

    def test_duplicate_indices_rejected(self):
        rng = np.random.default_rng(4)
        ds = _random_dataset(rng)
        with pytest.raises(ValueError):
            least_squares(ds, [1, 1])

    def test_subset_too_large_rejected(self):
        # With its intercept, a fit of n - 1 columns has no residual degree
        # of freedom left, whether the dataset is raw or standardized.
        raw = _random_dataset(np.random.default_rng(5), n=6, m=5)
        for ds in (raw, standardize(raw)):
            with pytest.raises(ValueError,
                               match="subset too large for the number of observations"):
                least_squares(ds, range(5))

    def test_rank_deficient_rejected(self):
        X = np.ones((8, 2))
        X[:, 0] = np.arange(8)
        X[:, 1] = 2 * np.arange(8)
        ds = Dataset(y=np.arange(8.0), X=X, names=("a", "b"))
        with pytest.raises(np.linalg.LinAlgError):
            least_squares(ds, [0, 1])


class TestForwardSweep:
    def test_matches_exhaustive_refits(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ds = standardize(_random_dataset(rng, n=25, m=5))
            order, rss, _ = forward_sweep(cross_products(ds.X, False), ds.y, 5)
            chosen = []
            for step, j_star in enumerate(order):
                best = min(
                    (j for j in range(5) if j not in chosen),
                    key=lambda j: least_squares(ds, chosen + [j])[1],
                )
                assert j_star == best
                chosen.append(j_star)
                assert rss[step + 1] == pytest.approx(
                    least_squares(ds, chosen)[1], rel=1e-8
                )

    def test_brute_force_stops_where_the_path_does(self):
        # Both leave the intercept its degree of freedom: n - 2 entries at most.
        ds = standardize(_random_dataset(np.random.default_rng(5), n=6, m=5))
        order, rss = brute_force_forward(ds)
        path = forward_path(ds, sigma2=1.0)
        assert order == list(path.entered) and len(order) == 4
        np.testing.assert_allclose(rss, path.rss, rtol=1e-8)

    @staticmethod
    def _offset_pool():
        ds = _random_dataset(np.random.default_rng(3), m=5)
        return Dataset(y=ds.y + 50.0, X=ds.X + 50.0, names=ds.names)

    def test_brute_force_fits_the_intercept_of_a_raw_pool(self):
        # Wrapped as standardized, the raw pool was fitted without an
        # intercept and entered (0, 2, 3, 1, 4).
        ds = self._offset_pool()
        order, rss = brute_force_forward(ds)
        path = forward_path(ds, sigma2=1.0)
        assert order == list(path.entered) == [3, 4, 0, 1, 2]
        np.testing.assert_allclose(rss, path.rss, rtol=1e-8)

    def test_brute_force_skips_a_rank_deficient_subset_and_stops(self, caplog, monkeypatch):
        # Column 3 copies column 1: once column 1 is in, its fit is rank
        # deficient, and with nothing else left the search stops.
        from stepfdr import selfcheck

        ds = self._offset_pool()
        X = np.column_stack([ds.X[:, :3], ds.X[:, 1]])
        ds = Dataset(y=ds.y, X=X, names=("a", "b", "c", "d"))
        rejected = []

        def fit(dataset, subset):
            try:
                return least_squares(dataset, subset)
            except np.linalg.LinAlgError:
                rejected.append(subset)
                raise

        monkeypatch.setattr(selfcheck, "least_squares", fit)
        order, rss = brute_force_forward(ds)
        assert rejected == [[0, 2, 1, 3]]
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"):
            path = forward_path(ds, sigma2=1.0)
        _assert_one_regress_warning(caplog.records, "stopped at depth 3 of 4")
        assert order == list(path.entered) == [0, 2, 1]
        np.testing.assert_allclose(rss, path.rss, rtol=1e-8)

    def test_tie_breaks_to_lowest_index(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        X = np.column_stack([x, x.copy()])
        y = x.copy()
        order, _, _ = forward_sweep(cross_products(X, False), y, 2)
        assert order[0] == 0

    def test_centering_option(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((20, 3)) + 7.0
        y = X[:, 0] * 2.0 + rng.standard_normal(20) + 11.0
        _, rss, _ = forward_sweep(cross_products(X, True), y, 3)
        yc = y - y.mean()
        assert rss[0] == pytest.approx(float(yc @ yc))

    def test_bias_tracks_projected_signal(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 4))
        beta = np.array([3.0, 0.0, -2.0, 0.0])
        signal = X @ beta
        y = signal + rng.standard_normal(20)
        order, _, bias = forward_sweep(cross_products(X, True, signal), y, 4)
        # Reference: squared norm of the signal projected off each prefix span.
        sc = signal - signal.mean()
        for k in range(len(order) + 1):
            cols = np.column_stack([np.ones(20)] + [X[:, j] for j in order[:k]])
            P = cols @ np.linalg.pinv(cols)
            r = sc - P @ sc
            assert bias[k] == pytest.approx(float(r @ r), abs=1e-8)

    def test_stops_when_no_reduction(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        X = np.column_stack([y, np.array([1.0, 1.0, -1.0, -1.0])])
        order, rss, _ = forward_sweep(cross_products(X, False), y, 2)
        # Second column is orthogonal to the residual (exactly zero drop).
        assert order == [0]
        assert rss[-1] == pytest.approx(0.0, abs=1e-12)


class TestForwardPathAndSigma2:
    def test_known_sigma2(self):
        rng = np.random.default_rng(9)
        ds = standardize(_random_dataset(rng))
        path = forward_path(ds, sigma2=2.5)
        assert path.sigma2 == 2.5
        assert path.sigma2_source == "known"
        assert np.allclose(path.tsq, -np.diff(path.rss) / 2.5)

    def test_estimated_sigma2(self):
        rng = np.random.default_rng(10)
        ds = standardize(_random_dataset(rng, n=40, m=5))
        path = forward_path(ds)
        expected = least_squares(ds, range(5))[1] / (40 - 5 - 1)
        assert path.sigma2 == pytest.approx(expected)
        assert path.sigma2_source == "estimated-from-full-model"
        assert estimate_sigma2(ds) == pytest.approx(expected)

    @pytest.mark.parametrize("standardized", [False, True])
    def test_sigma2_and_the_sweep_share_one_pool(self, standardized):
        rng = np.random.default_rng(12)
        ds = _random_dataset(rng, n=40, m=5)
        ds = standardize(ds) if standardized else Dataset(y=ds.y, X=ds.X + 3.0, names=ds.names)
        with mock.patch.object(regress, "cross_products", wraps=cross_products) as pool:
            path = forward_path(ds)
        assert pool.call_count == 1
        assert path.sigma2 == estimate_sigma2(ds)
        assert path.rss.tolist() == forward_sweep(cross_products(ds.X, not standardized),
                                                  ds.y, 5)[1].tolist()

    def test_two_observations_leave_no_entry(self):
        ds = Dataset(y=np.array([1.0, -1.0]), X=np.array([[1.0], [-1.0]]), names=("a",),
                     standardized=True)
        with pytest.raises(ValueError, match="^n=2 leaves no room for one entry$"):
            forward_path(ds, sigma2=1.0)

    def test_response_in_the_span_is_a_degenerate_fit(self, caplog):
        # Coordinate columns, taken as already centered, and y on one of
        # them: the full model's residual is exactly zero.
        X = np.eye(6)[:, :3]
        ds = Dataset(y=2.0 * X[:, 1], X=X, names=("a", "b", "c"), standardized=True)
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"), \
                pytest.raises(ValueError, match="^degenerate fit: full-model RSS is zero, "
                                                "sigma2 unavailable$"):
            forward_path(ds)
        _assert_one_regress_warning(caplog.records, "numerically zero")

    def test_sigma2_needs_degrees_of_freedom(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 5))
        ds = standardize(Dataset(y=rng.standard_normal(6), X=X,
                                 names=tuple("abcde")))
        with pytest.raises(ValueError, match="degrees of freedom"):
            estimate_sigma2(ds)

    def test_degenerate_fit_warns(self, caplog):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((10, 2))
        y = X @ np.array([1.0, -2.0])  # exactly in the span
        ds = Dataset(y=y, X=X, names=("a", "b"))
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"):
            estimate_sigma2(ds)
        _assert_one_regress_warning(caplog.records, "degenerate")

    def test_near_singular_pool_falls_back_and_logs_the_pivot_ratio(self, caplog, capsys):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((40, 4))
        X[:, 3] = X[:, 0] + 1e-7 * rng.standard_normal(40)  # cond about 1e7
        y = X @ np.array([1.0, 2.0, 0.0, 0.0]) + rng.standard_normal(40)
        ds = standardize(Dataset(y=y, X=X, names=tuple("abcd")))
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            s2 = estimate_sigma2(ds)
        assert s2 == least_squares(ds, range(4))[1] / (40 - 4 - 1)
        [record] = caplog.records
        assert record.name == "stepfdr.regress"
        assert record.levelno == logging.WARNING
        ratio = re.search(r"pivot / its column's squared norm = (\S+) <=", record.getMessage())
        assert 0.0 < float(ratio.group(1)) <= regress.RANK_RTOL
        assert capsys.readouterr() == ("", "")

    def test_constant_raw_column_is_degenerate(self, caplog):
        # Seven copies of 0.1 center to +-1.4e-17, not to zero: the
        # column is judged against its own squared norm before centering.
        rng = np.random.default_rng(17)
        X = rng.standard_normal((7, 3))
        X[:, 1] = 0.1
        assert (X[:, 1] - X[:, 1].mean()).any()
        y = rng.standard_normal(7)
        ds = Dataset(y=y, X=X, names=tuple("abc"))
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"), \
                pytest.raises(np.linalg.LinAlgError):
            estimate_sigma2(ds)
        assert 1 not in forward_sweep(cross_products(X, True), y, 3)[0]

    def test_a_column_offset_by_1e8_of_its_spread_selects_as_standardized(self):
        # Judged against its squared norm before centering, b looks
        # constant, and beside a ones column it looks collinear to lstsq.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 4))
        X[:, 1] = 1e7 + 0.1 * rng.standard_normal(100)
        y = 5 * (X[:, 1] - 1e7) + X[:, 0] + rng.standard_normal(100)
        raw = Dataset(y=y, X=X, names=tuple("abcd"))
        assert not cross_products(raw.X, True).dead.any()
        spec = PenaltySpec("msfdr", q=0.05)
        got, want = select(raw, spec), select(standardize(raw), spec)
        assert [raw.names[j] for j in got.selected] == [raw.names[j] for j in want.selected]
        assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-12, abs=0.0)

    def test_a_response_offset_leaves_the_residual_nonzero(self, caplog):
        # The zero-residual floor is RSS_0 around the intercept; against
        # y'y, an offset of 1e9 made this fit's residual look zero.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 4))
        y = X[:, 0] + rng.standard_normal(100) + 1e9
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_sigma2(Dataset(y=y, X=X, names=tuple("abcd")))
        assert caplog.records == []

    @staticmethod
    def _small_response_dataset(span):
        # Standardized columns and a centered response of size 1e-8: noise
        # around the first column, or an exact combination of two columns.
        rng = np.random.default_rng(0)
        X = standardize(Dataset(y=rng.standard_normal(100), X=rng.standard_normal((100, 4)),
                                names=tuple("abcd"))).X
        y = 1e-8 * (2 * X[:, 0] - X[:, 1] if span else X[:, 0] + rng.standard_normal(100))
        return Dataset(y=y - y.mean(), X=X, names=tuple("abcd"), standardized=True)

    def test_a_small_response_keeps_an_honest_residual(self, caplog):
        # The zero-residual test is relative to RSS_0 alone. With a floor of
        # 1e-12 * max(RSS_0, 1), this sigma2 of about 1e-16 was called zero.
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"):
            s2 = estimate_sigma2(self._small_response_dataset(span=False))
        assert caplog.records == []
        assert 1e-17 < s2 < 1e-15

    def test_a_small_response_in_the_span_still_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"):
            estimate_sigma2(self._small_response_dataset(span=True))
        _assert_one_regress_warning(caplog.records, "numerically zero")

    def test_benchmark_pools_skip_the_svd_fit(self, monkeypatch, caplog,
                                              diabetes_main, diabetes_quad):
        # The normal-equation fit is what makes sigma2 cheap on the
        # benchmark's pools; an edit that sends them back to the SVD
        # fit fails here rather than only in a timing.
        pools = (diabetes_main, diabetes_quad, _wide_benchmark_dataset())
        expected = [least_squares(ds, range(ds.m))[1] / (ds.n - ds.m - 1) for ds in pools]

        def svd_fit(*args):
            raise AssertionError("estimate_sigma2 took the SVD least-squares fit")

        monkeypatch.setattr(regress, "least_squares", svd_fit)
        assert [estimate_sigma2(ds) for ds in pools] == pytest.approx(expected, rel=1e-14)
        assert caplog.records == []

    def test_rank_deficiency_names_the_columns_at_fault(self, diabetes_main):
        # SEX takes two values, so without its exclusion the quadratic
        # pool's SEX^2 is a linear function of SEX and the intercept.
        quad = expand(diabetes_main, ExpansionSpec())
        with pytest.raises(np.linalg.LinAlgError) as err:
            estimate_sigma2(quad)
        assert str(err.value) == (
            "full model is rank deficient: 'SEX^2' lies in the span of the intercept and "
            "the columns before it; a known sigma2 skips the full-model fit")
        # A raw pool: a constant column, and a copy named after its original.
        rng = np.random.default_rng(18)
        X = rng.standard_normal((12, 5))
        X[:, 1] = 0.1
        X[:, 2] = X[:, 4]
        ds = Dataset(y=rng.standard_normal(12), X=X, names=tuple("abcde"))
        with pytest.raises(np.linalg.LinAlgError, match="^full model is rank deficient: 'b' is "
                           "constant, 'e' lies in the span of the intercept and the columns "
                           "before it; a known sigma2 skips the full-model fit$"):
            estimate_sigma2(ds)

    def test_invalid_sigma2_rejected(self):
        rng = np.random.default_rng(13)
        ds = standardize(_random_dataset(rng))
        with pytest.raises(ValueError):
            forward_path(ds, sigma2=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"positive finite number, got {bad}"):
                forward_path(ds, sigma2=bad)

    def test_path_invariants(self):
        rng = np.random.default_rng(14)
        ds = standardize(_random_dataset(rng, n=50, m=8))
        path = forward_path(ds, sigma2=1.0)
        assert len(path.rss) == path.depth + 1
        assert np.all(np.diff(path.rss) <= 1e-12)  # RSS never increases
        assert len(set(path.entered)) == path.depth

    def test_forwardpath_validation(self):
        with pytest.raises(ValueError):
            ForwardPath(entered=(0,), rss=np.array([1.0]), sigma2=1.0,
                        sigma2_source="known")
        with pytest.raises(ValueError):
            ForwardPath(entered=(), rss=np.array([1.0]), sigma2=-1.0,
                        sigma2_source="known")


def _wide_benchmark_dataset(seed=0, n=2000, m=500, effects=20):
    """The benchmark's seeded wide select pool, drawn in process as its setup draws it."""
    rng = np.random.default_rng([seed, 7])
    X = rng.standard_normal((n, m))
    support = np.sort(rng.choice(m, effects, replace=False))
    beta = np.zeros(m)
    beta[support] = rng.choice([-1.0, 1.0], effects) * rng.uniform(0.25, 0.5, effects)
    y = 1.0 + X @ beta + rng.standard_normal(n)
    return standardize(Dataset(y=y, X=X, names=tuple(f"X{j}" for j in range(m))))


class TestPathLog:
    def test_a_short_path_names_the_columns_never_entered(self, diabetes_main, caplog):
        quad = expand(diabetes_main, ExpansionSpec())
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"):
            path = forward_path(quad, sigma2=2900.0)
        assert (path.depth, quad.m) == (64, 65)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (
            "forward path stopped at depth 64 of 65: no column left reduces the RSS by more "
            "than 1e-12 of RSS_0; never entered: 'SEX^2'")

    def test_full_depth_paths_log_nothing(self, caplog, diabetes_main, diabetes_quad):
        # tests/test_golden.py checks the north-star pool's select the same way.
        pools = (diabetes_main, diabetes_quad, _wide_benchmark_dataset())
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"):
            depths = [forward_path(ds).depth for ds in pools]
        assert depths == [min(ds.m, ds.n - 2) for ds in pools]
        assert caplog.records == []
