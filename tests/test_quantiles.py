"""Normal quantile and p-value primitives checked against scipy and each other."""

import math

import numpy as np
import pytest
import scipy.stats as st

from stepfdr.quantiles import RandomSource, inverse_normal_cdf, two_sided_pvalue


class TestInverseNormalCdf:
    def test_matches_scipy_on_dense_grid(self):
        ps = np.linspace(1e-12, 1.0 - 1e-12, 10_001)
        ours = np.array([inverse_normal_cdf(p) for p in ps])
        ref = st.norm.ppf(ps)
        assert np.max(np.abs(ours - ref)) <= 1e-9

    def test_extreme_tails(self):
        for p in (1e-300, 1e-100, 1e-20, 1.0 - 1e-15):
            z = inverse_normal_cdf(p)
            assert math.isfinite(z)
            # Round trip through the CDF where it is representable.
            if p >= 1e-15:
                assert 0.5 * math.erfc(-z / math.sqrt(2.0)) == pytest.approx(p, rel=1e-9)

    def test_symmetry(self):
        for p in (0.001, 0.023, 0.2, 0.49):
            assert inverse_normal_cdf(p) == pytest.approx(
                -inverse_normal_cdf(1.0 - p), abs=1e-12
            )

    def test_median_is_zero(self):
        assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_domain_errors(self, p):
        message = f"probability must lie in the open interval (0, 1), got {p!r}"
        for arg in (p, np.array([0.5, p]), np.array([[0.2], [p]])):
            with pytest.raises(ValueError) as info:
                inverse_normal_cdf(arg)
            assert str(info.value) == message


class TestCdfAndPvalues:
    def test_two_sided_pvalue_matches_scipy(self):
        for tsq in (0.0, 0.5, 1.0, 3.84, 10.0, 40.0):
            ref = 2.0 * st.norm.sf(math.sqrt(tsq))
            assert two_sided_pvalue(tsq) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_two_sided_pvalue_rejects_negative(self):
        with pytest.raises(ValueError):
            two_sided_pvalue(-1e-9)

    def test_pvalue_inverts_quantile(self):
        # tsq = z(alpha/2)^2 must map back to p-value alpha.
        for alpha in (0.001, 0.0078, 0.05, 0.3):
            z = inverse_normal_cdf(1.0 - alpha / 2.0)
            assert two_sided_pvalue(z * z) == pytest.approx(alpha, rel=1e-10)


class TestRandomSource:
    def test_reproducible(self):
        a = RandomSource(123, 4).generator().standard_normal(32)
        b = RandomSource(123, 4).generator().standard_normal(32)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomSource(123, 0).generator().standard_normal(32)
        b = RandomSource(123, 1).generator().standard_normal(32)
        assert not np.array_equal(a, b)

    def test_substream_deterministic(self):
        s1 = RandomSource(7).substream(1, 2, 3)
        s2 = RandomSource(7).substream(1, 2, 3)
        assert s1 == s2
        s3 = RandomSource(7).substream(1, 2, 4)
        assert s1 != s3
