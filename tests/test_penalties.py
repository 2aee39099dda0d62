"""Penalty-family algebra checked against independent formulas."""

import math
import os
import re

import numpy as np
import pytest
import scipy.stats as st

from stepfdr.penalties import (
    DEFAULT_BM_CONSTANT,
    FAMILIES,
    PenaltySpec,
    UnsupportedFamilyError,
    penalty_factor,
    penalty_table,
    step_alpha,
    step_costs,
)
from stepfdr.selector import parse_method

STANDALONE = tuple(f for f in FAMILIES if f != "tsfdr")


def _spec(family):
    if family in ("bh", "msfdr", "tsfdr"):
        return PenaltySpec(family, q=0.05)
    if family == "fixed-alpha":
        return PenaltySpec(family, p=0.05)
    return PenaltySpec(family)


def step_cost(spec, k, m):
    """The k-th marginal cost c_k of a pool of m candidates."""
    return float(step_costs(spec, m, k)[k - 1])


class TestPenaltySpec:
    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            PenaltySpec("ridge")

    @pytest.mark.parametrize("family", ["bh", "msfdr", "tsfdr"])
    def test_q_required(self, family):
        with pytest.raises(ValueError):
            PenaltySpec(family)
        with pytest.raises(ValueError):
            PenaltySpec(family, q=1.0)

    def test_fixed_alpha_p_required(self):
        with pytest.raises(ValueError):
            PenaltySpec("fixed-alpha")

    def test_large_q_warns(self):
        with pytest.warns(UserWarning, match="q >= 0.5"):
            PenaltySpec("msfdr", q=0.6)

    def test_large_q_warning_names_the_line_that_built_the_spec(self):
        # Not the __init__ the dataclass generates, which reads as "<string>".
        with pytest.warns(UserWarning, match="q >= 0.5") as record:
            PenaltySpec("msfdr", q=0.6)
        assert [w.filename for w in record] == [__file__]
        with pytest.warns(UserWarning, match="q >= 0.5") as record:
            parse_method("msfdr:0.6")
        assert [os.path.basename(w.filename) for w in record] == ["selector.py"]

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec("bm", c_bm=0.0)

    def test_labels(self):
        assert PenaltySpec("msfdr", q=0.05).label() == "msfdr:0.05"
        assert PenaltySpec("fixed-alpha", p=0.1).label() == "fixed-alpha:0.1"
        assert PenaltySpec("tk").label() == "tk"
        assert PenaltySpec("bm").label() == "bm"
        assert PenaltySpec("bm", c_bm=5.0).label() == "bm:5"
        # Levels the :g form would round keep every digit.
        assert PenaltySpec("msfdr", q=0.05000001).label() == "msfdr:0.05000001"
        assert PenaltySpec("bm", c_bm=1234567.0).label() == "bm:1234567.0"


class TestStepAlpha:
    def test_bh_linear(self):
        spec = PenaltySpec("bh", q=0.05)
        for m in (10, 64):
            for i in range(1, m + 1):
                assert step_alpha(spec, i, m) == pytest.approx(i * 0.05 / m)

    def test_msfdr_formula(self):
        spec = PenaltySpec("msfdr", q=0.05)
        for m in (10, 64):
            for i in range(1, m + 1):
                ref = i * 0.05 / (m + 1 - i * (1 - 0.05))
                assert step_alpha(spec, i, m) == pytest.approx(ref)

    def test_msfdr_vs_bh(self):
        # The denominators m + 1 - i(1-q) and m coincide near i = 1, so
        # the multiple-stage constant starts a hair below the linear one
        # and overtakes it from the second step on.
        bh = PenaltySpec("bh", q=0.05)
        ms = PenaltySpec("msfdr", q=0.05)
        assert step_alpha(ms, 1, 64) < step_alpha(bh, 1, 64)
        for i in range(2, 65):
            assert step_alpha(ms, i, 64) > step_alpha(bh, i, 64)

    def test_fixed_alpha_constant(self):
        spec = PenaltySpec("fixed-alpha", p=0.05)
        assert {step_alpha(spec, i, 20) for i in range(1, 21)} == {0.05}

    def test_no_constants_for_other_families(self):
        with pytest.raises(UnsupportedFamilyError):
            step_alpha(PenaltySpec("aic"), 1, 10)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            step_alpha(PenaltySpec("bh", q=0.05), 0, 10)
        with pytest.raises(ValueError):
            step_alpha(PenaltySpec("bh", q=0.05), 11, 10)


class TestStepCostFactorConsistency:
    @pytest.mark.parametrize("family", STANDALONE)
    @pytest.mark.parametrize("m", [10, 40, 160])
    def test_cost_is_difference_of_k_lambda(self, family, m):
        # c_k = k*lambda_k - (k-1)*lambda_{k-1} ties the two views together.
        spec = _spec(family)
        prev = 0.0
        for k in range(1, m + 1):
            klam = k * penalty_factor(spec, k, m)
            assert step_cost(spec, k, m) == pytest.approx(klam - prev, abs=1e-9)
            prev = klam

    def test_fdr_cost_is_squared_quantile(self):
        # Independent reference through scipy's quantile function.
        for family, level in (("bh", 0.05), ("msfdr", 0.05), ("fixed-alpha", 0.1)):
            spec = PenaltySpec(family, q=level) if family != "fixed-alpha" else PenaltySpec(family, p=level)
            for k in (1, 7, 20):
                a = step_alpha(spec, k, 20)
                assert step_cost(spec, k, 20) == pytest.approx(
                    st.norm.ppf(1 - a / 2) ** 2, rel=1e-10
                )

    def test_simple_formulas(self):
        m = 30
        assert step_cost(PenaltySpec("aic"), 5, m) == 2.0
        assert step_cost(PenaltySpec("dj"), 5, m) == pytest.approx(2 * math.log(m))
        assert step_cost(PenaltySpec("fs"), 5, m) == pytest.approx(2 * math.log(m / 5))
        assert step_cost(PenaltySpec("tk"), 5, m) == pytest.approx(4 * math.log(m / 5))
        assert step_cost(PenaltySpec("gf"), 5, m) == pytest.approx(
            2 * math.log((m + 1 - 5) / 5)
        )

    def test_bm_constant_default_and_override(self):
        m, k = 30, 4
        for c in (DEFAULT_BM_CONSTANT, 7.0):
            spec = PenaltySpec("bm", c_bm=c)
            ref = k * 2 * math.log(c * m / k) - (k - 1) * 2 * math.log(c * m / (k - 1))
            assert step_cost(spec, k, m) == pytest.approx(ref)

    def test_gf_negative_beyond_half(self):
        m = 21
        costs = step_costs(PenaltySpec("gf"), m, m)
        half = (m + 1) // 2
        assert np.all(costs[: half - 1] > 0)
        assert costs[half - 1] == pytest.approx(0.0, abs=1e-12)  # k = (m+1)/2
        assert np.all(costs[half:] < 0)

    def test_tsfdr_has_no_standalone_cost(self):
        with pytest.raises(UnsupportedFamilyError):
            step_cost(PenaltySpec("tsfdr", q=0.05), 1, 10)

    @pytest.mark.parametrize("family, k_max", [("msfdr", 0), ("msfdr", 11), ("bh", 0)])
    def test_k_max_out_of_range_rejected(self, family, k_max):
        with pytest.raises(ValueError, match=re.escape(f"k_max must lie in [1, 10], got {k_max}")):
            step_costs(_spec(family), 10, k_max)

    @pytest.mark.parametrize("k", [0, 11])
    def test_model_size_out_of_range_rejected(self, k):
        with pytest.raises(ValueError, match=re.escape(f"model size must lie in [1, 10], got {k}")):
            penalty_factor(_spec("tk"), k, 10)


class TestPenaltyTable:
    def test_table_round_trip(self):
        spec = PenaltySpec("msfdr", q=0.05)
        table = penalty_table(spec, 40)
        assert table.k_max == 40
        assert table.lam.tolist() == [penalty_factor(spec, k, 40) for k in range(1, 41)]
        assert np.allclose(table.cost, step_costs(spec, 40, 40), atol=1e-10)
        assert np.allclose(table.alpha, [step_alpha(spec, i, 40) for i in range(1, 41)])

    # The benchmark's wide tables and the north-star record print lambda
    # at m = 500 and m = 1000; each must be the prefix's .mean() exactly.
    @pytest.mark.parametrize("m", [500, 1000])
    @pytest.mark.parametrize("family", STANDALONE)
    def test_lambda_is_each_prefix_mean_at_the_recorded_sizes(self, family, m):
        spec = _spec(family)
        costs = step_costs(spec, m, m)
        lam = penalty_table(spec, m).lam
        assert lam.tolist() == [costs[:k].mean() for k in range(1, m + 1)]

    def test_alpha_nan_for_non_fdr(self):
        table = penalty_table(PenaltySpec("aic"), 10)
        assert np.all(np.isnan(table.alpha))

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            penalty_table(PenaltySpec("aic"), 10, k_max=11)
