"""Monte Carlo laboratory pieces against direct reference computations."""

import math

import numpy as np
import pytest

from stepfdr.penalties import PenaltySpec
from stepfdr.quantiles import RandomSource
from stepfdr.regress import cross_products, forward_sweep
from stepfdr.selector import choose_size, default_rule, parse_method
from stepfdr.selfcheck import explicit_projection_mspe
from stepfdr.simlab import (
    ConfigOutcome,
    MethodOutcome,
    SimConfig,
    gen_beta,
    gen_design,
    loss_matrix,
    minimax_summary,
    p_from_index,
    path_prefix_mspe,
    random_oracle,
    run_config,
    solve_c_for_r2,
)

METHODS = [
    (PenaltySpec("msfdr", q=0.05), None),
    (PenaltySpec("aic"), None),
    (PenaltySpec("tk"), None),
]


class TestGrid:
    def test_p_from_index(self):
        assert p_from_index(1, 20) == 4  # round(sqrt(20))
        assert p_from_index(2, 20) == 5
        assert p_from_index(3, 20) == 7
        assert p_from_index(4, 20) == 10
        assert p_from_index(5, 20) == 15
        assert p_from_index(6, 20) == 20
        with pytest.raises(ValueError):
            p_from_index(7, 20)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(m=1, rho=0.0, beta_type=1, p_index=1)
        with pytest.raises(ValueError):
            SimConfig(m=20, rho=1.0, beta_type=1, p_index=1)
        with pytest.raises(ValueError):
            SimConfig(m=20, rho=0.0, beta_type=4, p_index=1)
        with pytest.raises(ValueError):
            SimConfig(m=20, rho=0.0, beta_type=1, p_index=1, c_scale=-1.0)
        with pytest.raises(ValueError, match="replications must be positive"):
            SimConfig(m=20, rho=0.0, beta_type=1, p_index=1, replications=0)

    def test_config_key_and_n(self):
        cfg = SimConfig(m=20, rho=-0.5, beta_type=3, p_index=6)
        assert cfg.key() == "m20_rho-0.50_b3_p6"
        assert cfg.n == 40
        assert cfg.p == 20


class TestGenDesign:
    def test_reproducible(self):
        src = RandomSource(5).substream(1)
        a = gen_design(10, 20, 0.5, src)
        b = gen_design(10, 20, 0.5, src)
        assert np.array_equal(a, b)

    def test_ar1_recursion_exact(self):
        src = RandomSource(5).substream(2)
        m, n, rho = 6, 12, -0.5
        X = gen_design(m, n, rho, src)
        eps = src.generator().standard_normal((n, m))
        assert np.allclose(X[:, 0], eps[:, 0])
        for j in range(1, m):
            assert np.allclose(
                X[:, j], rho * X[:, j - 1] + math.sqrt(1 - rho**2) * eps[:, j]
            )

    def test_empirical_correlation(self):
        X = gen_design(5, 200_000, 0.5, RandomSource(3).substream(7))
        corr = np.corrcoef(X, rowvar=False)
        for i in range(5):
            for j in range(5):
                assert corr[i, j] == pytest.approx(0.5 ** abs(i - j), abs=0.02)

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            gen_design(4, 8, 1.0, RandomSource(0))


class TestGenBeta:
    def test_support_and_shapes(self):
        for bt in (1, 2, 3):
            cfg = SimConfig(m=20, rho=0.0, beta_type=bt, p_index=2, seed=4)
            src = RandomSource(4).substream(9, bt)
            X = gen_design(cfg.m, cfg.n, cfg.rho, RandomSource(4).substream(8))
            beta = gen_beta(cfg, X, src)
            p = cfg.p
            assert beta.shape == (20,)
            assert np.all(beta[:p] != 0.0)
            assert np.all(beta[p:] == 0.0)  # zeros beyond the support

    def test_type2_uniform_shape_when_p_is_sqrt_m(self):
        cfg = SimConfig(m=20, rho=0.0, beta_type=2, p_index=1, seed=5)
        X = gen_design(cfg.m, cfg.n, cfg.rho, RandomSource(5).substream(1))
        beta = gen_beta(cfg, X, RandomSource(5).substream(2))
        again = gen_beta(cfg, X, RandomSource(5).substream(2))
        assert beta.tobytes() == again.tobytes()
        p = cfg.p
        assert np.all(beta[p:] == 0.0)
        # The shape is uniform on [1/m, 1): no entry below 1/m of the largest.
        support = np.abs(beta[:p])
        assert support.min() > 0.0
        assert support.min() / support.max() >= 1.0 / cfg.m

    def test_type1_inverse_sqrt_decay(self):
        cfg = SimConfig(m=16, rho=0.0, beta_type=1, p_index=4, seed=1)
        X = gen_design(cfg.m, cfg.n, cfg.rho, RandomSource(1).substream(1))
        beta = gen_beta(cfg, X, RandomSource(1).substream(2))
        p = cfg.p
        ref = beta[0] / np.sqrt(np.arange(1, p + 1))
        assert np.allclose(beta[:p], ref)

    def test_type3_constant_with_r2(self):
        cfg = SimConfig(m=20, rho=0.5, beta_type=3, p_index=4, seed=2)
        X = gen_design(cfg.m, cfg.n, cfg.rho, RandomSource(2).substream(1))
        beta = gen_beta(cfg, X, RandomSource(2).substream(2))
        p = cfg.p
        assert np.allclose(beta[:p], beta[0])
        # c solves the theoretical R^2 = 0.75 identity with sigma = 1.
        signal = X @ beta
        r2 = float(signal @ signal) / (float(signal @ signal) + cfg.n)
        assert r2 == pytest.approx(0.75, abs=1e-12)

    def test_explicit_scale(self):
        cfg = SimConfig(m=16, rho=0.0, beta_type=1, p_index=4, c_scale=2.0, seed=1)
        X = gen_design(cfg.m, cfg.n, cfg.rho, RandomSource(1).substream(1))
        beta = gen_beta(cfg, X, RandomSource(1).substream(2))
        assert beta[0] == pytest.approx(2.0)

    def test_solve_c_for_r2_identity(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 8))
        unit = np.zeros(8)
        unit[:3] = 1.0
        c = solve_c_for_r2(X, unit, 0.6, 60)
        s = X @ (c * unit)
        q = float(s @ s)
        assert q / (q + 60) == pytest.approx(0.6, abs=1e-12)
        with pytest.raises(ValueError):
            solve_c_for_r2(X, np.zeros(8), 0.6, 60)


class TestMspeAndOracle:
    @staticmethod
    def _path_mspe(X, beta, sigma2, rng):
        signal = X @ beta
        y = signal + rng.standard_normal(X.shape[0])
        order, _, bias = forward_sweep(cross_products(X, True, signal), y, X.shape[1])
        return order, path_prefix_mspe(bias, sigma2)

    def test_matches_explicit_projection(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 6))
        beta = np.array([2.0, -1.0, 0.0, 0.5, 0.0, 0.0])
        order, prefix = self._path_mspe(X, beta, 1.3, rng)
        assert len(prefix) == 7
        for k, fast in enumerate(prefix):
            slow = explicit_projection_mspe(X, beta, order[:k], 1.3)
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_full_model_is_pure_variance(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 4))
        beta = rng.standard_normal(4)
        _, prefix = self._path_mspe(X, beta, 1.0, rng)
        assert len(prefix) == 5
        assert prefix[-1] == pytest.approx(5.0)  # sigma2 * (m + 1)

    def test_random_oracle_picks_prefix_min(self):
        prefix = np.array([9.0, 4.0, 5.0, 3.0, 6.0])
        k, v = random_oracle(prefix)
        assert (k, v) == (3, 3.0)

    def test_path_prefix_mspe(self):
        bias = np.array([10.0, 4.0, 1.0])
        assert np.allclose(path_prefix_mspe(bias, 2.0), [12.0, 8.0, 7.0])


class TestRunConfig:
    def test_reproducible_and_consistent(self):
        cfg = SimConfig(m=10, rho=0.0, beta_type=1, p_index=4,
                        replications=50, seed=9)
        a = run_config(cfg, METHODS)
        b = run_config(cfg, METHODS)
        assert a.oracle_mspe == b.oracle_mspe
        for ma, mb in zip(a.methods, b.methods):
            assert ma == mb
        labels = [mo.label for mo in a.methods]
        assert labels == ["msfdr:0.05", "aic", "tk"]
        for mo in a.methods:
            assert mo.relative_loss >= 1.0  # oracle dominance in ratio form
            assert mo.se_relative_loss >= 0.0
        assert a.dominance_violations == 0

    def test_rule_override_labelled(self):
        cfg = SimConfig(m=8, rho=0.0, beta_type=1, p_index=4,
                        replications=20, seed=9)
        out = run_config(cfg, [(PenaltySpec("msfdr", q=0.05), "global-min")])
        assert out.methods[0].label == "msfdr:0.05@global-min"

    def test_matches_per_replication_loop(self):
        # Reference: each replication's path scored method by method with
        # the 1-d stopping rule, the way the lab did before it scored all
        # replications of a cell at once.
        from stepfdr.penalties import step_costs
        from stepfdr.quantiles import inverse_normal_cdf
        from stepfdr.regress import forward_sweep
        from stepfdr.selector import default_rule, stop
        from stepfdr.simlab import _rho_code

        cfg = SimConfig(m=10, rho=0.5, beta_type=2, p_index=4, replications=60, seed=4)
        methods = METHODS + [(PenaltySpec("bh", q=0.2), None),
                             (PenaltySpec("tsfdr", q=0.2), None),
                             (PenaltySpec("tsfdr", q=0.2), "global-min")]
        root = RandomSource(cfg.seed)
        key = (cfg.m, _rho_code(cfg.rho))
        X = gen_design(cfg.m, cfg.n, cfg.rho, root.substream(1, *key))
        beta = gen_beta(cfg, X, root.substream(2, *key, cfg.beta_type, cfg.p_index))
        signal = X @ beta
        m = cfg.m
        oracle, picked = [], {i: [] for i in range(len(methods))}
        for r in range(cfg.replications):
            eps = root.substream(3, *key, cfg.beta_type, cfg.p_index, r).generator()
            y = signal + eps.standard_normal(cfg.n)
            _, rss, bias = forward_sweep(cross_products(X, True, signal), y, m)
            prefix = path_prefix_mspe(bias, 1.0)
            oracle.append(prefix.min())
            tsq = np.maximum(-np.diff(rss), 0.0)
            K = len(tsq)
            for i, (spec, rule) in enumerate(methods):
                rule = rule or default_rule(spec)
                q1 = spec.q / (1.0 + spec.q) if spec.family == "tsfdr" else None
                first = PenaltySpec("bh", q=q1) if q1 else spec
                trace = np.concatenate([[0.0], np.cumsum(step_costs(first, m, m)[:K] - tsq)])
                k = stop(trace, rule)
                if q1 and 0 < k < m:
                    c2 = [inverse_normal_cdf(1.0 - min(j * q1 / (m - k), 1.0 - 1e-15) / 2.0) ** 2
                          for j in range(1, K + 1)]
                    k = stop(np.concatenate([[0.0], np.cumsum(c2 - tsq)]), rule)
                picked[i].append(prefix[k])
        out = run_config(cfg, methods)
        assert out.oracle_mspe == pytest.approx(np.mean(oracle), rel=1e-12)
        for i, mo in enumerate(out.methods):
            assert mo.mean_mspe == pytest.approx(np.mean(picked[i]), rel=1e-12)
            assert mo.relative_loss == pytest.approx(np.mean(picked[i]) / np.mean(oracle),
                                                     rel=1e-12)

    def test_loss_lookup(self):
        cfg = SimConfig(m=8, rho=0.0, beta_type=1, p_index=4,
                        replications=20, seed=9)
        out = run_config(cfg, METHODS)
        # The loss filed under a label is that method's MSPE over the oracle's.
        for label in ("msfdr:0.05", "aic", "tk"):
            mo = next(mo for mo in out.methods if mo.label == label)
            assert mo.relative_loss == mo.mean_mspe / out.oracle_mspe


class TestSummaries:
    def _fake_outcomes(self):
        from stepfdr.simlab import ConfigOutcome

        cfgs = [
            SimConfig(m=8, rho=0.0, beta_type=1, p_index=i, replications=2, seed=0)
            for i in (1, 2, 3)
        ]
        losses = {"a": [1.5, 1.1, 1.3], "b": [2.0, 1.0, 1.2]}
        return [
            ConfigOutcome(
                config=cfg,
                oracle_mspe=1.0,
                methods=tuple(
                    MethodOutcome(lbl, 1.0, losses[lbl][i], 0.01) for lbl in ("a", "b")
                ),
            )
            for i, cfg in enumerate(cfgs)
        ]

    def test_minimax_summary(self):
        outs = self._fake_outcomes()
        assert minimax_summary(outs, 1) == {"a": 1.5, "b": 2.0}
        assert minimax_summary(outs, 2) == {"a": pytest.approx(1.4), "b": pytest.approx(1.6)}
        assert minimax_summary(outs, "ALL") == {
            "a": pytest.approx(1.3),
            "b": pytest.approx(1.4),
        }

    def test_minimax_validation(self):
        with pytest.raises(ValueError):
            minimax_summary([], 1)
        with pytest.raises(ValueError):
            minimax_summary(self._fake_outcomes(), 0)

    def test_outcome_lacking_a_label_is_named(self):
        outs = self._fake_outcomes()
        outs[2] = ConfigOutcome(outs[2].config, 1.0, outs[2].methods[:1])
        message = ("outcome m8_rho\\+0.00_b1_p3 holds methods a; "
                   "outcome m8_rho\\+0.00_b1_p1 holds a, b")
        with pytest.raises(ValueError, match=message):
            minimax_summary(outs, 1)

    @pytest.mark.parametrize("summarize", [loss_matrix, lambda outs: minimax_summary(outs, 1)],
                             ids=["loss_matrix", "minimax_summary"])
    def test_outcome_listing_the_labels_in_another_order_is_named(self, summarize):
        # Every outcome lists the first outcome's labels in order, as a
        # campaign writes them; a reordered list is another method list.
        outs = self._fake_outcomes()
        outs[1] = ConfigOutcome(outs[1].config, 1.0, outs[1].methods[::-1])
        message = ("outcome m8_rho\\+0.00_b1_p2 holds methods b, a; "
                   "outcome m8_rho\\+0.00_b1_p1 holds a, b")
        with pytest.raises(ValueError, match=message):
            summarize(outs)

    def test_label_only_a_later_outcome_holds_is_named(self):
        outs = [
            ConfigOutcome(config=SimConfig(m=8, rho=0.0, beta_type=1, p_index=i),
                          oracle_mspe=1.0,
                          methods=tuple(MethodOutcome(lbl, 1.0, loss, 0.01)
                                        for lbl, loss in zip(labels, (1.3, 9.0))))
            for i, labels in ((1, ("bh:0.05",)), (2, ("bh:0.05", "bh:0.1")))
        ]
        message = ("outcome m8_rho\\+0.00_b1_p2 holds methods bh:0.05, bh:0.1; "
                   "outcome m8_rho\\+0.00_b1_p1 holds bh:0.05")
        with pytest.raises(ValueError, match=message):
            minimax_summary(outs, 1)

    def test_best_q_tables_parse_each_label_once(self, monkeypatch):
        from stepfdr import simlab
        from stepfdr.simlab import ConfigOutcome

        labels = ("bh:0.05", "bh:0.1", "msfdr:0.05", "msfdr:0.2@global-min", "aic", "tsfdr:0.1")
        outs = [
            ConfigOutcome(config=SimConfig(m=8, rho=0.0, beta_type=1, p_index=i),
                          oracle_mspe=1.0,
                          methods=tuple(MethodOutcome(lbl, 1.0, i + 0.1 * j, 0.01)
                                        for j, lbl in enumerate(labels)))
            for i in (1, 2)
        ]
        parsed = []
        monkeypatch.setattr(simlab, "parse_method",
                            lambda label: parsed.append(label) or parse_method(label))
        tables = simlab.q_tables(simlab.minimax_summary(outs, 1))
        assert sorted(parsed) == sorted(labels)
        assert tables == {"bh": {0.05: 2.0, 0.1: 2.1}, "tsfdr": {0.1: 2.5},
                          "msfdr": {0.05: 2.2}}
        assert list(tables) == ["bh", "tsfdr", "msfdr"]

    def _two_levels_per_family(self):
        labels = ("bh:0.05", "bh:0.1", "tsfdr:0.05", "tsfdr:0.1", "msfdr:0.05", "msfdr:0.1",
                  "msfdr:0.05@global-min", "aic")
        rng = np.random.default_rng(7)
        return [
            ConfigOutcome(config=SimConfig(m=8, rho=rho, beta_type=1, p_index=i),
                          oracle_mspe=1.0,
                          methods=tuple(MethodOutcome(lbl, 1.0, 1.0 + rng.random(), 0.01)
                                        for lbl in labels))
            for rho in (0.0, 0.5) for i in (1, 4)
        ]

    def test_best_q_tables_read_the_worst_one_summary(self):
        from stepfdr.simlab import q_tables

        outs = self._two_levels_per_family()
        worst = minimax_summary(outs, 1)
        tables = q_tables(worst)
        assert {family: list(table) for family, table in tables.items()} == {
            "bh": [0.05, 0.1], "tsfdr": [0.05, 0.1], "msfdr": [0.05, 0.1]}
        for family, table in tables.items():
            for q, value in table.items():
                assert value == worst[f"{family}:{q:g}"]
        # msfdr:0.05 is the default-rule label, not msfdr:0.05@global-min.
        assert worst["msfdr:0.05"] != worst["msfdr:0.05@global-min"]


class TestFdrControl:
    """On a design orthonormal after centering, with sigma2 = 1 known, the
    t's are independent and forward selection enters columns by |t|; the
    FDR penalties are then the multiple tests, whose false discovery rate
    is known (Benjamini & Hochberg 1995; Gavrilov, Benjamini & Sarkar 2009;
    Benjamini, Krieger & Yekutieli 2006)."""

    M, N, Q = 20, 30, 0.1
    FAMILIES = ("bh", "msfdr", "tsfdr")

    def _false_discoveries(self, m1, reps, seed):
        """Each family's false discovery proportion and selected k per
        replication, at true effects of t = 3 on the first m1 columns."""
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((self.N, self.M))
        X = np.linalg.qr(Z - Z.mean(axis=0))[0]
        beta = np.zeros(self.M)
        beta[:m1] = 3.0 * rng.choice([-1.0, 1.0], m1)
        pool = cross_products(X, True)
        Y = X @ beta + rng.standard_normal((reps, self.N))
        rss = np.full((reps, self.M + 1), np.inf)
        orders = np.full((reps, self.M), -1)
        for r, y in enumerate(Y):
            order, rss_r, _ = forward_sweep(pool, y, self.M)
            rss[r, :len(rss_r)] = rss_r
            orders[r, :len(order)] = order
        found = {}
        for family in self.FAMILIES:
            spec = PenaltySpec(family, q=self.Q)
            _, k, _ = choose_size(rss, 1.0, spec, self.M, default_rule(spec))
            false = ((orders >= m1) & (np.arange(self.M) < k[:, None])).sum(axis=1)
            found[family] = false / np.maximum(k, 1), k
        return found

    @staticmethod
    def _mean_se(values):
        return values.mean(), values.std(ddof=1) / math.sqrt(len(values))

    def test_mean_fdp_is_the_multiple_tests_rate(self):
        m1 = 4
        found = self._false_discoveries(m1, reps=2000, seed=11)
        mean, se = self._mean_se(found["bh"][0])
        # BH step-up: FDR = q * m0 / m exactly, for independent statistics.
        assert abs(mean - self.Q * (self.M - m1) / self.M) <= 4 * se, (mean, se)
        for family in ("msfdr", "tsfdr"):
            mean, se = self._mean_se(found[family][0])
            assert mean <= self.Q + 4 * se, (family, mean, se)

    def test_under_the_null_a_selection_is_made_at_the_level(self):
        # With no true effect every selection is false, so the rate of
        # selecting anything is the FDR: q for BH, at most q for the others.
        found = self._false_discoveries(0, reps=1000, seed=12)
        for family, (_, k) in found.items():
            rate, se = self._mean_se((k > 0).astype(float))
            assert rate <= self.Q + 4 * se, (family, rate, se)
            if family == "bh":
                assert rate >= self.Q - 4 * se, (rate, se)
