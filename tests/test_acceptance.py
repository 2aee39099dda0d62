"""Acceptance suite: end-to-end behavioral contract of the package.

Covers the penalty walkthrough values, the diabetes selections (main
effects and quadratic pool), the desk-scale Monte Carlo bands, the
oracle-dominance property, orthogonal-case equivalence with the
step-down/step-up testing procedures, brute-force oracles, penalty
algebra, and the full-model degeneracy of the per-coefficient
2*ln((m+1-k)/k) penalty.
"""

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st

from helpers import orthogonal_dataset
from stepfdr.penalties import PenaltySpec, penalty_factor, step_alpha, step_costs
from stepfdr.quantiles import inverse_normal_cdf, two_sided_pvalue
from stepfdr.regress import Dataset, forward_path, standardize
from stepfdr.selector import msfdr_iterative, select
from stepfdr.simlab import SimConfig, minimax_summary, run_config
from stepfdr import selfcheck

# ---------------------------------------------------------------------------
# 1. Step-constant walkthrough
# ---------------------------------------------------------------------------


class TestCriterion1StepConstants:
    def test_msfdr_constants_m64(self):
        spec = PenaltySpec("msfdr", q=0.05)
        assert round(step_alpha(spec, 1, 64), 5) == 0.00078
        assert round(step_alpha(spec, 5, 64), 4) == 0.0041
        assert round(step_alpha(spec, 8, 64), 4) == 0.0070


# ---------------------------------------------------------------------------
# 2. Diabetes main effects
# ---------------------------------------------------------------------------

MAIN_ORDER = ("BMI", "S5", "BP", "S1", "SEX", "S2", "S4", "S6", "S3", "AGE")


@pytest.fixture(scope="module")
def main_path(diabetes_main, quad_sigma2):
    return forward_path(diabetes_main, sigma2=quad_sigma2)


@pytest.fixture(scope="module")
def quad_path(diabetes_quad, quad_sigma2):
    return forward_path(diabetes_quad, sigma2=quad_sigma2)


class TestCriterion2DiabetesMain:
    def test_entry_order(self, diabetes_main, main_path):
        assert tuple(diabetes_main.names[j] for j in main_path.entered) == MAIN_ORDER

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (PenaltySpec("msfdr", q=0.05), 6),
            (PenaltySpec("msfdr", q=0.10), 6),
            (PenaltySpec("bh", q=0.05), 6),
            (PenaltySpec("bh", q=0.10), 6),
            (PenaltySpec("aic"), 6),
            (PenaltySpec("dj"), 6),
            (PenaltySpec("fixed-alpha", p=0.05), 6),
            (PenaltySpec("tk"), 8),
            (PenaltySpec("bm"), 3),
            (PenaltySpec("fs"), 10),
        ],
        ids=lambda v: v.label() if isinstance(v, PenaltySpec) else str(v),
    )
    def test_selection_counts(self, diabetes_main, main_path, spec, expected):
        res = select(diabetes_main, spec, path=main_path)
        assert res.k_selected == expected

    def test_first_six_variables(self, diabetes_main, main_path):
        res = select(diabetes_main, PenaltySpec("msfdr", q=0.05), path=main_path)
        assert tuple(diabetes_main.names[j] for j in res.selected) == MAIN_ORDER[:6]


# ---------------------------------------------------------------------------
# 3. Diabetes quadratic pool
# ---------------------------------------------------------------------------


class TestCriterion3DiabetesQuadratic:
    def test_pool_size(self, diabetes_quad):
        assert diabetes_quad.m == 64

    def test_msfdr_iterative(self, diabetes_quad, quad_path):
        res = msfdr_iterative(diabetes_quad, 0.05, path=quad_path)
        assert res.k_selected == 7
        assert res.k_with_intercept == 8
        assert res.iterations == 3
        names = [diabetes_quad.names[j] for j in res.selected]
        assert sum("*" in nm for nm in names) == 2  # two interactions
        assert sum("*" not in nm and "^" not in nm for nm in names) == 5  # five mains

    def test_msfdr_iterative_passes_through_sizes(self, diabetes_quad, quad_path):
        # Independent re-derivation of the size sequence from the path
        # p-values: sizes (counting the intercept) must be 5 -> 8 -> 8.
        q, m = 0.05, diabetes_quad.m
        pvals = [two_sided_pvalue(max(t, 0.0)) for t in quad_path.tsq]
        sizes = []
        i = 1
        while True:
            alpha = i * q / (m + 1 - i * (1.0 - q))
            run = 0
            while run < len(pvals) and pvals[run] <= alpha:
                run += 1
            i_next = run + 1  # the intercept occupies position 1
            sizes.append(i_next)
            if i_next <= i:
                break
            i = i_next
        assert sizes == [5, 8, 8]

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (PenaltySpec("dj"), 7),
            (PenaltySpec("tk"), 7),
            (PenaltySpec("fixed-alpha", p=0.05), 13),
            (PenaltySpec("fs"), 13),
            (PenaltySpec("bm"), 2),
        ],
        ids=lambda v: v.label() if isinstance(v, PenaltySpec) else str(v),
    )
    def test_selection_counts(self, diabetes_quad, quad_path, spec, expected):
        res = select(diabetes_quad, spec, path=quad_path)
        assert res.k_selected == expected

    def test_aic_sixteen_counting_intercept(self, diabetes_quad, quad_path):
        res = select(diabetes_quad, PenaltySpec("aic"), path=quad_path)
        assert res.k_with_intercept == 16


# ---------------------------------------------------------------------------
# 4-6. Desk-scale Monte Carlo campaign
# ---------------------------------------------------------------------------

CAMPAIGN_METHODS = [
    (PenaltySpec("msfdr", q=0.05), None),
    (PenaltySpec("tk"), None),
    (PenaltySpec("fixed-alpha", p=0.05), None),  # classical forward at 5%
    (PenaltySpec("dj"), None),
    (PenaltySpec("fs"), None),
    (PenaltySpec("bm"), None),
    (PenaltySpec("aic"), None),  # Cp with known sigma2 = 1
]

RHOS = (-0.5, 0.0, 0.5)
BETA_TYPES = (1, 2, 3)
P_INDICES = (1, 2, 3, 4, 5, 6)


def _run_cell(config):
    return run_config(config, CAMPAIGN_METHODS)


def _campaign(m):
    grid = [
        SimConfig(m=m, rho=rho, beta_type=bt, p_index=pi,
                  replications=1000, seed=0)
        for rho in RHOS
        for bt in BETA_TYPES
        for pi in P_INDICES
    ]
    workers = os.cpu_count() or 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, grid))
    return [_run_cell(cfg) for cfg in grid]


# NOTE on the worst-case band targets below. All five band tests fail,
# deliberately rather than being loosened. The values are worst-1
# relative losses at seed 0 (then the range over seeds 0-4):
#
# * Cp worst case > 3.5 (m=20): 1.51 (1.48-1.55). With sigma^2 = 1 known,
#   the noise-step RSS drops along a greedy forward path telescope to
#   roughly chi^2_{m-p} in total (their sum is about m - p), so a
#   global-minimum search with constant cost 2 can overshoot the oracle
#   size by only a handful of parameters and its relative loss stays
#   near 1.5 at this scale.
# * MSFDR in [1.32, 1.62] (m=20) and [1.57, 1.87] (m=40): 3.10 (2.76-3.43)
#   and 2.77 (2.77-3.24) under its default first-local-min rule, always
#   in a rho = -0.5, beta type 3 cell. Most of the gap is the stopping
#   rule: global-min gives 2.21 (2.09-2.35) and 1.94 (1.94-2.07),
#   last-crossing 1.85 (1.85-2.05) and 1.85 (1.73-1.88), inside the m=40
#   band at four of the five seeds. With equal true coefficients on
#   adjacent AR(+/-0.5) columns and the signal size pinned by R^2 = 0.75,
#   the conditional drops of late true variables straddle the step
#   constants, and the first local minimum can stop before them.
# * TK in [1.51, 1.81] (m=20): 2.47 (2.22-2.53). Its worst cell is sparse
#   (p-index 1: p = 4 of m = 20) at every seed, with beta type 1 at four
#   of them. The smallest true effect is t = effect_target = 3, while
#   TK's first cost, 4*log(m/k), asks for |t| >= sqrt(4*log(20)) = 3.46.
# * Ordering (m=20): the first assert, msfdr <= tk, fails: 3.10 > 2.47,
#   and msfdr is above tk at every seed. The two later asserts would fail
#   too at every seed: tk (2.22-2.53) is above fixed-alpha (1.80-2.02),
#   and dj (2.43-2.67) is above aic (1.48-1.55).
#
# The dominance property (criterion 6) and the diabetes selections are
# unaffected and pass exactly.


@pytest.fixture(scope="module")
def campaign_m20():
    return _campaign(20)


@pytest.fixture(scope="module")
def campaign_m40():
    return _campaign(40)


class TestCriterion4SimulationM20:
    def test_msfdr_worst_case_band(self, campaign_m20):
        worst = minimax_summary(campaign_m20, 1)["msfdr:0.05"]
        assert 1.32 <= worst <= 1.62

    def test_tk_worst_case_band(self, campaign_m20):
        worst = minimax_summary(campaign_m20, 1)["tk"]
        assert 1.51 <= worst <= 1.81

    def test_cp_worst_case_large(self, campaign_m20):
        assert minimax_summary(campaign_m20, 1)["aic"] > 3.5

    def test_worst_case_ordering(self, campaign_m20):
        w = minimax_summary(campaign_m20, 1)
        fdr = (w["msfdr:0.05"], w["tk"])
        middle = (w["fixed-alpha:0.05"], w["dj"])
        top = (w["fs"], w["bm"], w["aic"])
        assert fdr[0] <= fdr[1]
        assert fdr[1] < min(middle)
        assert max(middle) < min(top)


class TestCriterion5SimulationM40:
    def test_msfdr_worst_case_band(self, campaign_m40):
        worst = minimax_summary(campaign_m40, 1)["msfdr:0.05"]
        assert 1.57 <= worst <= 1.87


class TestCriterion6OracleDominance:
    def test_zero_violations(self, campaign_m20, campaign_m40):
        total = sum(o.dominance_violations for o in campaign_m20)
        total += sum(o.dominance_violations for o in campaign_m40)
        assert total == 0

    def test_all_relative_losses_at_least_one(self, campaign_m20, campaign_m40):
        for outcome in itertools.chain(campaign_m20, campaign_m40):
            for mo in outcome.methods:
                assert mo.relative_loss >= 1.0


ACCEPTANCE_LOSSES = Path(__file__).parent / "golden" / "acceptance-losses.tsv"


def test_campaign_losses_match_the_record(campaign_m20, campaign_m40):
    # tests/golden/record.py wrote the record from _campaign(20) and
    # _campaign(40): the band values above cannot move unnoticed.
    want = [line.split("\t") for line in ACCEPTANCE_LOSSES.read_text().splitlines()]
    got = [(o.config.key(), mo.label, mo.relative_loss)
           for o in campaign_m20 + campaign_m40 for mo in o.methods]
    assert [cells[:2] for cells in want] == [[key, label] for key, label, _ in got]
    for (key, label, loss), (_, _, recorded) in zip(got, want):
        assert abs(loss - float(recorded)) <= 1e-12 * abs(float(recorded)), (key, label)


# ---------------------------------------------------------------------------
# 7. Orthogonal equivalence with step-down / step-up testing
# ---------------------------------------------------------------------------

P_GRID = (0.001, 0.01, 0.04, 0.2, 0.6)
# Levels chosen so that no step constant alpha_i(q, m) coincides exactly
# with a grid p-value for any m <= 6: a p-value exactly equal to its
# constant is a knife-edge tie that no floating-point trace comparison
# can resolve consistently (e.g. q = 0.05 puts the BH constants at
# i/100 for m = 5, colliding with grid points 0.01 and 0.04).
Q_LEVELS = (0.07, 0.23)


def _step_down_msfdr(sorted_p, q, m):
    """Reject while p_(i) <= i*q/(m+1-i*(1-q)); stop at the first failure."""
    k = 0
    for i, p in enumerate(sorted_p, start=1):
        if p <= i * q / (m + 1 - i * (1.0 - q)):
            k = i
        else:
            break
    return k


def _step_up_bh(sorted_p, q, m):
    """Largest i with p_(i) <= i*q/m."""
    k = 0
    for i, p in enumerate(sorted_p, start=1):
        if p <= i * q / m:
            k = i
    return k


class TestCriterion7OrthogonalEquivalence:
    def test_exhaustive_grid(self):
        mismatches = 0
        patterns_checked = 0
        for q in Q_LEVELS:
            # Selection depends only on the multiset of p-values, so run
            # the package machinery once per sorted pattern and replay it
            # across the full exhaustive grid.
            cache = {}
            for m in range(1, 7):
                for pattern in itertools.product(P_GRID, repeat=m):
                    patterns_checked += 1
                    key = tuple(sorted(pattern))
                    if key not in cache:
                        ds = orthogonal_dataset(key)
                        path = forward_path(ds, sigma2=1.0)
                        k_ms = select(
                            ds, PenaltySpec("msfdr", q=q),
                            rule="first-local-min", path=path,
                        ).k_selected
                        k_bh = select(
                            ds, PenaltySpec("bh", q=q),
                            rule="last-crossing", path=path,
                        ).k_selected
                        cache[key] = (k_ms, k_bh)
                    k_ms, k_bh = cache[key]
                    sorted_p = sorted(pattern)
                    if k_ms != _step_down_msfdr(sorted_p, q, m):
                        mismatches += 1
                    if k_bh != _step_up_bh(sorted_p, q, m):
                        mismatches += 1
        assert patterns_checked == 2 * sum(5**m for m in range(1, 7))
        assert mismatches == 0


# ---------------------------------------------------------------------------
# 8. Brute-force oracles
# ---------------------------------------------------------------------------


class TestCriterion8BruteForceOracles:
    def test_500_random_instances(self):
        checks = selfcheck.run(instances=500, seed=20090194)
        assert len(checks) == 3
        assert [label for label, ok in checks if not ok] == []


# ---------------------------------------------------------------------------
# 9. Penalty algebra
# ---------------------------------------------------------------------------


class TestCriterion9PenaltyAlgebra:
    def test_tk_is_twice_fs(self):
        tk, fs = PenaltySpec("tk"), PenaltySpec("fs")
        for m in (10, 40, 160):
            for k in range(1, m + 1):
                assert abs(
                    penalty_factor(tk, k, m) - 2.0 * penalty_factor(fs, k, m)
                ) <= 1e-12

    @pytest.mark.parametrize("m", [20, 80, 160])
    def test_bh_msfdr_costs_cross_once(self, m):
        bh = step_costs(PenaltySpec("bh", q=0.05), m, m)
        ms = step_costs(PenaltySpec("msfdr", q=0.05), m, m)
        signs = np.sign(bh - ms)
        signs = signs[signs != 0]
        crossings = int(np.sum(np.diff(signs) != 0))
        assert crossings == 1

    def test_msfdr_tk_per_coefficient_crossing_location(self):
        # Penalty paid for the k-th entering coefficient: the multiple-stage
        # cost starts below the 4*ln(m/k) cost and overtakes it once.
        m = 160
        ms = step_costs(PenaltySpec("msfdr", q=0.05), m, m)
        tk = step_costs(PenaltySpec("tk"), m, m)
        diff = ms - tk
        assert diff[0] < 0
        signs = np.sign(diff[diff != 0])
        changes = np.flatnonzero(np.diff(signs) != 0)
        assert len(changes) == 1
        crossing_k = int(changes[0]) + 1  # last k before the sign flips
        assert 20 <= crossing_k <= 36

    def test_quantile_accuracy(self):
        ps = np.linspace(1e-12, 1.0 - 1e-12, 10_000)
        ours = np.array([inverse_normal_cdf(p) for p in ps])
        assert np.max(np.abs(ours - st.norm.ppf(ps))) <= 1e-9


# ---------------------------------------------------------------------------
# 10. Full-model degeneracy of the 2*ln((m+1-k)/k) penalty
# ---------------------------------------------------------------------------


class TestCriterion10GfDegeneracy:
    def test_full_model_once_past_half(self):
        rng = np.random.default_rng(42)
        m, n = 12, 60
        X = rng.standard_normal((n, m))
        beta = np.zeros(m)
        beta[:8] = 5.0  # eight strong signals: well past m/2 entries
        y = X @ beta + rng.standard_normal(n)
        ds = standardize(Dataset(y=y, X=X, names=tuple(f"x{j}" for j in range(m))))
        res = select(ds, PenaltySpec("gf"), sigma2=1.0)
        assert res.k_selected > m // 2  # the degeneracy precondition holds
        assert res.k_selected == m  # ... and then everything enters
