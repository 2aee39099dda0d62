"""Least-squares machinery versus direct numpy reference computations."""

import logging
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from stepfdr import regress
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


def _random_dataset(rng, n=30, m=6):
    X = rng.standard_normal((n, m))
    beta = rng.standard_normal(m)
    y = X @ beta + rng.standard_normal(n)
    names = tuple(f"x{j}" for j in range(m))
    return Dataset(y=y, X=X, names=names)


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(y=np.zeros(3), X=np.zeros((4, 2)), names=("a", "b"))
        with pytest.raises(ValueError):
            Dataset(y=np.zeros(4), X=np.zeros((4, 2)), names=("a",))
        with pytest.raises(ValueError):
            Dataset(y=np.zeros(4), X=np.zeros(4), names=("a",))

    def test_intercept_flag(self):
        rng = np.random.default_rng(0)
        ds = _random_dataset(rng)
        assert not ds.has_intercept
        assert standardize(ds).has_intercept
        forced = Dataset(y=ds.y, X=ds.X, names=ds.names, intercept_forced=True)
        assert forced.has_intercept


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
        ds = Dataset(y=raw.y + 5.0, X=raw.X, names=raw.names, intercept_forced=True)
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
    def test_requires_intercept_handling(self):
        rng = np.random.default_rng(8)
        ds = _random_dataset(rng)
        with pytest.raises(ValueError):
            forward_path(ds)

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

    @pytest.mark.parametrize("intercept_forced", [False, True])
    def test_sigma2_and_the_sweep_share_one_pool(self, intercept_forced):
        rng = np.random.default_rng(12)
        ds = _random_dataset(rng, n=40, m=5)
        ds = Dataset(y=ds.y, X=ds.X + 3.0, names=ds.names, intercept_forced=True) \
            if intercept_forced else standardize(ds)
        with mock.patch.object(regress, "cross_products", wraps=cross_products) as pool:
            path = forward_path(ds)
        assert pool.call_count == 1
        assert path.sigma2 == estimate_sigma2(ds)
        assert path.rss.tolist() == forward_sweep(cross_products(ds.X, intercept_forced),
                                                  ds.y, 5)[1].tolist()

    def test_sigma2_needs_degrees_of_freedom(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 5))
        ds = standardize(Dataset(y=rng.standard_normal(6), X=X,
                                 names=tuple("abcde")))
        with pytest.raises(ValueError, match="degrees of freedom"):
            estimate_sigma2(ds)

    def test_degenerate_fit_warns(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((10, 2))
        y = X @ np.array([1.0, -2.0])  # exactly in the span
        ds = Dataset(y=y, X=X, names=("a", "b"))
        with pytest.warns(RuntimeWarning, match="degenerate"):
            estimate_sigma2(ds)

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
        ds = Dataset(y=y, X=X, names=tuple("abc"), intercept_forced=True)
        with caplog.at_level(logging.WARNING, logger="stepfdr.regress"), \
                pytest.raises(np.linalg.LinAlgError):
            estimate_sigma2(ds)
        assert 1 not in forward_sweep(cross_products(X, True), y, 3)[0]

    def test_benchmark_pools_skip_the_svd_fit(self, monkeypatch, caplog,
                                              diabetes_main, diabetes_quad):
        # The normal-equation fit is what makes sigma2 cheap on the
        # benchmark's pools; an edit that sends them back to the SVD
        # fit fails here rather than only in a timing.
        rng = np.random.default_rng(16)
        X = rng.standard_normal((2000, 500))
        y = X[:, :20] @ rng.standard_normal(20) + rng.standard_normal(2000)
        wide = standardize(Dataset(y=y, X=X, names=tuple(f"x{j}" for j in range(500))))
        pools = (diabetes_main, diabetes_quad, wide)
        expected = [least_squares(ds, range(ds.m))[1] / (ds.n - ds.m - 1) for ds in pools]

        def svd_fit(*args):
            raise AssertionError("estimate_sigma2 took the SVD least-squares fit")

        monkeypatch.setattr(regress, "least_squares", svd_fit)
        assert [estimate_sigma2(ds) for ds in pools] == pytest.approx(expected, rel=1e-14)
        assert caplog.records == []

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
