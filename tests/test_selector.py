"""Stopping rules and selection plumbing on constructed paths."""

import inspect
import re
from unittest import mock

import numpy as np
import pytest

from helpers import orthogonal_dataset as _orthogonal_dataset
from stepfdr import selector
from stepfdr.penalties import PenaltySpec, step_alpha, step_costs
from stepfdr.quantiles import two_sided_pvalue
from stepfdr.regress import Dataset, forward_path, least_squares, standardize
from stepfdr.selector import (
    RULES,
    choose_size,
    default_rule,
    msfdr_iterative,
    select,
    stop,
)


class TestStop:
    def test_first_local_min(self):
        assert stop(np.array([5.0, 4.0, 3.0, 3.5, 2.0]), "first-local-min") == 2
        assert stop(np.array([5.0, 6.0]), "first-local-min") == 0
        assert stop(np.array([5.0, 4.0, 3.0]), "first-local-min") == 2

    def test_ties_continue(self):
        # A flat stretch counts as continued descent under every rule.
        trace = np.array([5.0, 4.0, 4.0, 4.5])
        assert stop(trace, "first-local-min") == 2
        assert stop(trace, "last-crossing") == 2

    def test_global_min(self):
        assert stop(np.array([5.0, 4.0, 6.0, 1.0, 2.0]), "global-min") == 3
        assert stop(np.array([1.0, 2.0, 3.0]), "global-min") == 0

    def test_last_crossing(self):
        assert stop(np.array([5.0, 6.0, 4.0, 7.0, 8.0]), "last-crossing") == 2
        assert stop(np.array([5.0, 6.0, 7.0]), "last-crossing") == 0
        assert stop(np.array([5.0, 4.0, 3.0]), "last-crossing") == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            stop(np.array([]), "global-min")
        with pytest.raises(ValueError):
            stop(np.array([1.0, 2.0]), "steepest")


class TestDefaults:
    def test_default_rules(self):
        assert default_rule(PenaltySpec("msfdr", q=0.05)) == "first-local-min"
        assert default_rule(PenaltySpec("tsfdr", q=0.05)) == "first-local-min"
        assert default_rule(PenaltySpec("bh", q=0.05)) == "last-crossing"
        for fam in ("aic", "dj", "fs", "tk", "bm", "gf"):
            assert default_rule(PenaltySpec(fam)) == "global-min"
        assert set(RULES) == {"first-local-min", "global-min", "last-crossing"}


class TestPenalizedTrace:
    def test_matches_direct_formula(self):
        ds = _orthogonal_dataset([0.001, 0.01, 0.2, 0.6])
        path = forward_path(ds, sigma2=1.0)
        spec = PenaltySpec("msfdr", q=0.05)
        trace, _, _ = choose_size(path.rss, path.sigma2, spec, ds.m, default_rule(spec))
        costs = step_costs(spec, ds.m, path.depth)
        ref = path.rss.copy()
        ref[1:] += np.cumsum(costs)  # sigma2 = 1
        assert np.allclose(trace, ref, atol=1e-12)


class TestSelect:
    def test_refit_matches_reference(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((40, 6))
        y = X[:, 0] * 4 + X[:, 3] * 3 + rng.standard_normal(40)
        ds = standardize(Dataset(y=y, X=X, names=tuple("abcdef")))
        res = select(ds, PenaltySpec("msfdr", q=0.05))
        coef, _ = least_squares(ds, list(res.selected))
        assert np.allclose(res.coefficients, coef)
        assert res.k_selected == len(res.selected)
        assert res.k_with_intercept == res.k_selected + 1  # standardized data
        assert res.sigma2_source == "estimated-from-full-model"

    def test_rule_override(self):
        # BH constants at q = 0.3, m = 5 are 0.06, 0.12, 0.18, 0.24, 0.30;
        # p2 sits above its constant but p3 below, so step-down and
        # step-up behaviour differ on the same trace.
        pvals = [0.01, 0.15, 0.17, 0.5, 0.6]
        ds = _orthogonal_dataset(pvals)
        spec = PenaltySpec("bh", q=0.3)
        k_flm = select(ds, spec, rule="first-local-min", sigma2=1.0).k_selected
        k_lc = select(ds, spec, rule="last-crossing", sigma2=1.0).k_selected
        assert k_flm == 1
        assert k_lc == 3

    def test_known_sigma2_recorded(self):
        ds = _orthogonal_dataset([0.001, 0.2])
        res = select(ds, PenaltySpec("aic"), sigma2=1.0)
        assert res.sigma2 == 1.0
        assert res.sigma2_source == "known"


class TestSigma2OrPath:
    """A path carries its own sigma2, so sigma2= and path= together are rejected."""

    @pytest.mark.parametrize("call", [
        lambda ds, **kw: select(ds, PenaltySpec("msfdr", q=0.05), **kw),
        lambda ds, **kw: msfdr_iterative(ds, 0.05, **kw),
    ], ids=["select", "msfdr_iterative"])
    def test_both_rejected_each_alone_accepted(self, diabetes_main, call):
        path = forward_path(diabetes_main)
        with pytest.raises(ValueError, match="sigma2 or path, not both"):
            call(diabetes_main, sigma2=1e9, path=path)
        assert call(diabetes_main, path=path).sigma2 == path.sigma2
        assert call(diabetes_main, sigma2=1e9).sigma2 == 1e9


class TestMsfdrIterative:
    def test_fixed_point_on_constructed_pvalues(self):
        # p-values sit so that the size-1 constants admit three variables
        # and the size-4 constants admit a fourth; the fixed point is 4.
        m, q = 12, 0.05
        spec = PenaltySpec("msfdr", q=q)
        a1 = step_alpha(spec, 1, m)
        a4 = step_alpha(spec, 4, m)
        assert a1 < a4
        pvals = [a1 * 0.5, a1 * 0.6, a1 * 0.7, (a1 + a4) / 2] + [0.8] * (m - 4)
        ds = _orthogonal_dataset(pvals)
        res = msfdr_iterative(ds, q, sigma2=1.0)
        # Sizes count the intercept of the centered fit: 1 -> 4 -> 5 -> ...
        assert res.k_selected == 4
        assert res.iterations >= 2
        assert res.rule == "iterative-p-to-enter"

    def test_agrees_with_trace_selection_when_monotone(self):
        # Clearly separated p-values: both computations stop identically.
        pvals = [1e-9, 1e-8, 0.4, 0.5, 0.6, 0.7]
        ds = _orthogonal_dataset(pvals)
        res_iter = msfdr_iterative(ds, 0.05, sigma2=1.0)
        res_path = select(ds, PenaltySpec("msfdr", q=0.05), sigma2=1.0)
        assert res_iter.k_selected == res_path.k_selected == 2

    def test_one_step_costs_call_per_selection(self, diabetes_main):
        # The fixed point reads the costs choose_size built for the trace.
        path = forward_path(diabetes_main)
        with mock.patch.object(selector, "step_costs", wraps=step_costs) as costs:
            res = msfdr_iterative(diabetes_main, 0.05, path=path)
        assert costs.call_count == 1
        assert res.k_selected == select(diabetes_main, PenaltySpec("msfdr", q=0.05),
                                        path=path).k_selected

    def test_large_q_warns_once_from_the_callers_line(self, diabetes_main):
        path = forward_path(diabetes_main)
        with pytest.warns(UserWarning, match="q >= 0.5") as record:
            line = inspect.currentframe().f_lineno + 1
            msfdr_iterative(diabetes_main, 0.6, path=path)
        assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]

    def test_a_path_that_stops_before_the_pool_ends(self):
        # Three copies of one column: the path enters it once and stops at
        # depth 2 of m = 4, and an index past the depth admits both entries.
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 50))
        y = 5.0 * a + 4.0 * b + rng.standard_normal(50)
        X = np.column_stack([a, b, a, a])
        ds = standardize(Dataset(y=y, X=X, names=("a", "b", "a2", "a3")))
        path = forward_path(ds, sigma2=1.0)
        assert path.depth == 2 < ds.m
        res = msfdr_iterative(ds, 0.05, path=path)
        assert (res.k_selected, res.iterations) == (2, 2)
        assert res.selected == select(ds, PenaltySpec("msfdr", q=0.05), path=path).selected


class TestChooseSizeCosts:
    def test_one_path_gets_the_costs_of_its_depth(self, diabetes_main):
        path = forward_path(diabetes_main)
        spec = PenaltySpec("msfdr", q=0.05)
        _, _, costs = choose_size(path.rss, path.sigma2, spec, diabetes_main.m, "global-min")
        assert costs.tolist() == step_costs(spec, diabetes_main.m, path.depth).tolist()

    def test_a_rescanned_tsfdr_row_holds_its_stage_two_costs(self):
        # The paths of test_batched_rescan_keeps_stage_one_sizes: r1 = 1 and 2.
        rss = np.array([[100.0, 96.0, 94.0, 93.0, 92.9],
                        [100.0, 96.0, 93.0, 92.0, 91.9]])
        _, _, costs = choose_size(rss, 1.0, PenaltySpec("tsfdr", q=0.4), 4, "first-local-min")
        stage = PenaltySpec("bh", q=0.4 / 1.4)
        assert costs.tolist() == [step_costs(stage, 3, 4).tolist(), step_costs(stage, 2, 4).tolist()]

    def test_an_empty_path_has_no_costs(self):
        trace, k, costs = choose_size(np.array([7.0]), 1.0, PenaltySpec("msfdr", q=0.05), 3,
                                      "first-local-min")
        assert (trace.tolist(), k, costs.shape) == ([7.0], 0, (0,))


class TestALevelTooSmallForTheQuantile:
    """Below alpha_k of about 1.1e-16, 1 - alpha_k/2 rounds to 1: the error
    names the method asked for, its level, m and the step."""

    @pytest.mark.parametrize("call, message", [
        (lambda ds: select(ds, PenaltySpec("msfdr", q=1e-15)),
         "msfdr:1e-15 at m=10: step k=1 has alpha_k = 1e-16"),
        (lambda ds: msfdr_iterative(ds, 1e-15),
         "msfdr:1e-15 at m=10: step k=1 has alpha_k = 1e-16"),
        (lambda ds: select(ds, PenaltySpec("tsfdr", q=1e-15)),
         "tsfdr:1e-15, stage bh:9.999999999999989e-16 at m=10: step k=1 has alpha_k = 1e-16"),
        (lambda ds: select(ds, PenaltySpec("fixed-alpha", p=1e-17)),
         "fixed-alpha:1e-17 at m=10: step k=1 has alpha_k = 1e-17"),
    ], ids=["select-msfdr", "msfdr_iterative", "select-tsfdr", "select-fixed-alpha"])
    def test_each_entry_point_names_the_method(self, diabetes_main, call, message):
        # Without the check: "probability must lie in the open interval (0, 1), got 1.0".
        tail = ", so 1 - alpha_k/2 rounds to 1 and its normal quantile is infinite; " \
               "use a larger level"
        with pytest.raises(ValueError, match=f"^{re.escape(message + tail)}$"):
            call(diabetes_main)


class TestTsfdr:
    def test_stage_two_uses_reduced_pool(self):
        # Stage 1 at q' = q/(1+q) admits r1 variables; stage 2 rescans with
        # constants i*q'/(m - r1), which are larger, and can admit more.
        m, q = 10, 0.05
        q1 = q / (1.0 + q)
        a1_stage1 = 1 * q1 / m
        # Third p-value passes only the stage-2 constant at i=3.
        a3_stage2 = 3 * q1 / (m - 2)
        a3_stage1 = 3 * q1 / m
        assert a3_stage1 < a3_stage2
        pvals = [a1_stage1 * 0.3, a1_stage1 * 0.5, (a3_stage1 + a3_stage2) / 2] + [
            0.9
        ] * (m - 3)
        ds = _orthogonal_dataset(pvals)
        res = select(ds, PenaltySpec("tsfdr", q=q), sigma2=1.0)
        assert res.k_selected == 3
        assert res.method.family == "tsfdr"

    def test_select_dispatches_tsfdr(self):
        ds = _orthogonal_dataset([1e-6, 0.5, 0.6])
        spec = PenaltySpec("tsfdr", q=0.05)
        a = select(ds, spec, sigma2=1.0)
        path = forward_path(ds, sigma2=1.0)
        _, b, _ = choose_size(path.rss, path.sigma2, spec, ds.m, "first-local-min")
        assert a.k_selected == b

    def test_batched_rescan_keeps_stage_one_sizes(self):
        # m = 4, q' = 0.4/1.4, sigma2 = 1.  Path A stops at r1 = 1 in
        # stage 1 and at 2 with the stage-2 constants of pool m - 1; path
        # B stops at r1 = 2.  Rescanning A again with B's pool m - 2
        # would move it to 3.
        rss = np.array([[100.0, 96.0, 94.0, 93.0, 92.9],
                        [100.0, 96.0, 93.0, 92.0, 91.9]])
        _, k, _ = choose_size(rss, 1.0, PenaltySpec("tsfdr", q=0.4), 4, "first-local-min")
        assert k.tolist() == [2, 3]

    def test_stage_one_empty_is_final(self):
        ds = _orthogonal_dataset([0.4, 0.5, 0.6, 0.7])
        res = select(ds, PenaltySpec("tsfdr", q=0.05), sigma2=1.0)
        assert res.k_selected == 0


class TestOrthogonalPvalueMachinery:
    def test_constructed_tsq_round_trip(self):
        pvals = [0.001, 0.04, 0.2, 0.6]
        ds = _orthogonal_dataset(pvals)
        path = forward_path(ds, sigma2=1.0)
        recovered = sorted(two_sided_pvalue(t) for t in path.tsq)
        assert np.allclose(recovered, sorted(pvals), rtol=1e-8)
