"""Text ingestion, quadratic expansion, and the command-line surface."""

import numpy as np
import pytest

from stepfdr.cli import build_parser, main, parse_method, read_outcome, write_outcome
from stepfdr.dataio import ExpansionSpec, diabetes_path, expand, ingest, load_diabetes
from stepfdr.penalties import PenaltySpec
from stepfdr.simlab import ConfigOutcome, MethodOutcome, SimConfig, run_config


def _write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return f


class TestIngest:
    def test_comma_and_tab(self, tmp_path):
        body = [("a", "b", "Y")] + [(i, 2 * i, 3 * i + 1) for i in range(1, 5)]
        for delim, name in ((",", "c.csv"), ("\t", "t.tsv")):
            text = "\n".join(delim.join(str(c) for c in row) for row in body)
            ds = ingest(_write(tmp_path, name, text), response="Y",
                        standardize_data=False)
            assert ds.names == ("a", "b")
            assert ds.n == 4
            assert np.allclose(ds.y, [4, 7, 10, 13])

    def test_missing_response(self, tmp_path):
        f = _write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(ValueError, match="response column"):
            ingest(f, response="Y")

    def test_bad_cell_names_row_and_column(self, tmp_path):
        f = _write(tmp_path, "d.csv", "a,Y\n1,2\n3,oops\n5,6\n")
        with pytest.raises(ValueError, match=r"row 2, column 'Y'"):
            ingest(f, response="Y")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        f = _write(tmp_path, "d.csv", f"a,b,Y\n1,2,3\n4,{cell},6\n7,8,9\n1,5,2\n")
        with pytest.raises(ValueError, match=rf"non-finite cell at row 2, column 'b': '{cell}'"):
            ingest(f, response="Y")

    def test_ragged_row(self, tmp_path):
        f = _write(tmp_path, "d.csv", "a,Y\n1,2\n3\n5,6\n")
        with pytest.raises(ValueError, match="row 2 has 1 cells"):
            ingest(f, response="Y")

    def test_too_few_rows(self, tmp_path):
        f = _write(tmp_path, "d.csv", "a,Y\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="at least 3 data rows"):
            ingest(f, response="Y")

    @pytest.mark.parametrize("header, message", [
        ("a,Y,Y", "header name 'Y' appears twice, in columns 2 and 3"),
        ("a,Y,b,a", "header name 'a' appears twice, in columns 1 and 4"),
    ], ids=["response", "candidate"])
    def test_duplicate_header_name(self, tmp_path, header, message):
        rows = "\n".join(",".join(str(i + j) for j in range(header.count(",") + 1))
                         for i in range(4))
        f = _write(tmp_path, "d.csv", f"{header}\n{rows}\n")
        with pytest.raises(ValueError, match=f"{message}$"):
            ingest(f, response="Y")

    def test_underscore_cells_parse_as_float_does(self, tmp_path):
        f = _write(tmp_path, "d.csv", "a,Y\n1_000,2\n3,4\n5,6_5\n")
        ds = ingest(f, response="Y", standardize_data=False)
        assert ds.X[:, 0].tolist() == [1000.0, 3.0, 5.0]
        assert ds.y.tolist() == [2.0, 4.0, 65.0]

    def test_standardized_by_default(self, tmp_path):
        f = _write(tmp_path, "d.csv", "a,Y\n1,2\n3,5\n5,6\n9,7\n")
        ds = ingest(f, response="Y")
        assert ds.standardized
        assert np.allclose((ds.X**2).sum(axis=0), 1.0)


class TestExpand:
    def test_column_counts(self, diabetes_main, diabetes_quad):
        # 10 mains + C(10,2) interactions + 9 squares (SEX excluded) = 64.
        assert diabetes_main.m == 10
        assert diabetes_quad.m == 64
        assert "SEX^2" not in diabetes_quad.names
        assert "AGE*SEX" in diabetes_quad.names and "BMI^2" in diabetes_quad.names

    def test_no_interactions_with_exclusion(self, tmp_path):
        rows = np.random.default_rng(0).standard_normal((6, 4))
        text = "a,b,c,Y\n" + "\n".join(",".join(f"{v:.6f}" for v in r) for r in rows)
        ds = ingest(_write(tmp_path, "d.csv", text), response="Y")
        out = expand(ds, ExpansionSpec(square_excluded=("a",),
                                       include_interactions=False))
        # 3 mains + 2 squares = 5 columns.
        assert out.names == ("a", "b", "c", "b^2", "c^2")

    def test_unknown_exclusion_rejected(self, diabetes_main):
        with pytest.raises(ValueError, match="unknown column"):
            expand(diabetes_main, ExpansionSpec(square_excluded=("NOPE",)))

    def test_result_standardized(self, diabetes_quad):
        assert diabetes_quad.standardized
        assert np.allclose((diabetes_quad.X**2).sum(axis=0), 1.0)


class TestDiabetesFixture:
    def test_shape(self, diabetes_main):
        assert diabetes_main.n == 442
        assert diabetes_main.names == (
            "AGE", "SEX", "BMI", "BP", "S1", "S2", "S3", "S4", "S5", "S6",
        )

    def test_path_exists(self):
        import os

        assert os.path.exists(diabetes_path())

    def test_unstandardized_load(self):
        raw = load_diabetes(standardize_data=False)
        assert not raw.standardized
        assert raw.y.mean() == pytest.approx(152.133, abs=1e-3)


class TestParseMethod:
    def test_families_and_levels(self):
        spec, rule = parse_method("msfdr:0.05")
        assert spec == PenaltySpec("msfdr", q=0.05) and rule is None
        spec, rule = parse_method("fixed-alpha:0.1@global-min")
        assert spec.p == 0.1 and rule == "global-min"
        spec, _ = parse_method("bm:500")
        assert spec.c_bm == 500.0
        spec, rule = parse_method("tk@last-crossing")
        assert spec.family == "tk" and rule == "last-crossing"

    def test_bad_rule(self):
        with pytest.raises(ValueError, match="stopping rule"):
            parse_method("aic@sideways")

    @pytest.mark.parametrize("family", ["aic", "dj", "fs", "tk", "gf"])
    def test_level_on_a_family_without_one_is_rejected(self, family):
        with pytest.raises(ValueError, match=f"{family} takes no level"):
            parse_method(f"{family}:3@global-min")


class TestOutcomeRoundTrip:
    def test_write_read(self, tmp_path):
        cfg = SimConfig(m=8, rho=0.5, beta_type=2, p_index=3,
                        replications=25, seed=3)
        out = run_config(cfg, [(PenaltySpec("msfdr", q=0.05), None),
                               (PenaltySpec("aic"), None)])
        path = write_outcome(out, tmp_path)
        back = read_outcome(path)
        assert back.config == cfg
        assert back.oracle_mspe == out.oracle_mspe
        assert back.methods == out.methods
        assert back.dominance_violations == out.dominance_violations

    def test_every_config_field_round_trips(self, tmp_path):
        cfg = SimConfig(m=6, rho=-0.3, beta_type=1, p_index=2, replications=5,
                        seed=11, sigma=0.7, beta0=-2.5, c_scale=1.25, effect_target=4.5)
        out = run_config(cfg, [(PenaltySpec("aic"), None)])
        assert read_outcome(write_outcome(out, tmp_path)).config == cfg

    def test_header_is_pinned(self, tmp_path):
        methods = (MethodOutcome("aic", 1.5, 2.0, 0.25),)
        default = SimConfig(m=6, rho=0.0, beta_type=1, p_index=2)
        every = SimConfig(m=6, rho=-0.3, beta_type=3, p_index=4, replications=5, seed=2**40,
                          sigma=0.7, beta0=-2.5, c_scale=1.25, effect_target=4.5)
        (tmp_path / "b").mkdir()
        texts = [write_outcome(ConfigOutcome(default, 0.1, methods, 2), tmp_path).read_text(),
                 write_outcome(ConfigOutcome(every, 0.1, methods, 2), tmp_path / "b").read_text()]
        body = ("# oracle_mspe\t0.10000000000000001\n"
                "# dominance_violations\t2\n"
                "method\tmean_mspe\toracle_mspe\trelative_loss\tse_relative_loss\n"
                "aic\t1.5\t0.10000000000000001\t2\t0.25\n")
        assert texts[0] == (
            "# m\t6\n# rho\t0\n# beta_type\t1\n# p_index\t2\n# replications\t1000\n"
            "# seed\t0\n# sigma\t1\n# beta0\t10\n# c_scale\tauto\n# effect_target\t3\n"
        ) + body
        assert texts[1] == (
            "# m\t6\n# rho\t-0.29999999999999999\n# beta_type\t3\n# p_index\t4\n"
            "# replications\t5\n# seed\t1099511627776\n# sigma\t0.69999999999999996\n"
            "# beta0\t-2.5\n# c_scale\t1.25\n# effect_target\t4.5\n"
        ) + body

    def test_file_lacking_a_field_is_rejected(self, tmp_path):
        cfg = SimConfig(m=6, rho=0.0, beta_type=1, p_index=2, replications=5)
        path = write_outcome(run_config(cfg, [(PenaltySpec("aic"), None)]), tmp_path)
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("# effect_target")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="lacks effect_target"):
            read_outcome(path)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        cfg = SimConfig(m=6, rho=0.0, beta_type=1, p_index=2, replications=5)
        first = run_config(cfg, [(PenaltySpec("aic"), None)])
        path = write_outcome(first, tmp_path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("stepfdr.cli.os.replace", crash)
        second = run_config(SimConfig(m=6, rho=0.0, beta_type=1, p_index=2,
                                      replications=7), [(PenaltySpec("aic"), None)])
        with pytest.raises(OSError, match="disk full"):
            write_outcome(second, tmp_path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestCli:
    def test_select_diabetes_main(self, capsys):
        rc = main([
            "select", "--data", diabetes_path(), "--response", "Y",
            "--method", "msfdr", "--q", "0.05",
        ])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "# k_selected\t6" in captured
        for name in ("BMI", "S5", "BP", "S1", "SEX", "S2"):
            assert f"\n{name}\t" in captured or captured.startswith(f"{name}\t")

    def test_one_process_serves_requests_without_leaking_state(self, capsys):
        # One parser serves every call in a process; no option set by one
        # request may carry into the next. A --q left over from the first
        # call would turn the level-less tk into tk:0.1, which is an error.
        data = ["--data", str(diabetes_path()), "--response", "Y"]
        plain = ["select", *data, "--method", "tk"]
        argvs = [
            ["select", *data, "--method", "msfdr", "--q", "0.1"],
            plain,
            ["penalty-table", "--method", "bh:0.05", "--m", "10"],
            ["select", *data, "--method", "aic", "--expand", "--square-exclude", "SEX"],
            plain,
        ]
        build_parser.cache_clear()
        outs = []
        for argv in argvs:
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert build_parser.cache_info().misses == 1
        assert "# method\tmsfdr:0.1\n" in outs[0]
        assert "# n\t442\tm\t64\n" in outs[3]
        assert outs[4] == outs[1]
        for argv, out in zip(argvs, outs):
            build_parser.cache_clear()
            assert main(argv) == 0
            assert capsys.readouterr().out == out

    def test_select_report_deterministic(self, tmp_path):
        args = [
            "select", "--data", diabetes_path(), "--response", "Y",
            "--method", "bh:0.05",
        ]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_penalty_table(self, capsys, tmp_path):
        out = tmp_path / "tab.tsv"
        rc = main(["penalty-table", "--method", "bh:0.05", "--m", "10",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family\tm\tk\talpha_k\tlambda_k\tstep_cost_k"
        assert len(lines) == 11

    def test_simulate_and_summarize(self, capsys, tmp_path):
        cfgfile = _write(
            tmp_path,
            "campaign.txt",
            "# toy campaign\nseed = 3\nreplications = 20\nm = 8\n"
            "rho = 0\nbeta_type = 1\np_index = 2,4\n"
            "methods = msfdr:0.05,aic\n",
        )
        out_dir = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(out_dir),
                   "--workers", "1"])
        assert rc == 0
        files = sorted(out_dir.glob("*.tsv"))
        assert len(files) == 2
        capsys.readouterr()

        # Resumable: nothing re-run the second time.
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(out_dir),
                   "--workers", "1"])
        assert rc == 0
        assert "0 configuration(s) run, 2 skipped" in capsys.readouterr().out

        rc = main(["summarize", "--in", str(out_dir), "--worst-k", "1"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "msfdr:0.05" in text and "aic" in text

    def test_simulate_reruns_a_cell_from_another_campaign(self, capsys, tmp_path):
        one_cell = "m = 8\nrho = 0\nbeta_type = 1\np_index = 1\n"
        first = _write(tmp_path, "a.txt",
                       one_cell + "seed = 0\nreplications = 20\nmethods = msfdr:0.05\n")
        second = _write(tmp_path, "b.txt",
                        one_cell + "seed = 7\nreplications = 50\nmethods = aic\n")
        out_dir = tmp_path / "out"
        args = ["--out", str(out_dir), "--workers", "1"]
        assert main(["simulate", "--config", str(first)] + args) == 0
        capsys.readouterr()

        assert main(["simulate", "--config", str(second)] + args) == 0
        text = capsys.readouterr().out
        assert "rerun m8_rho+0.00_b1_p1: result file holds a different configuration" in text
        assert "1 configuration(s) run, 0 skipped" in text
        (path,) = out_dir.glob("*.tsv")
        back = read_outcome(path)
        assert (back.config.seed, back.config.replications) == (7, 50)
        assert [mo.label for mo in back.methods] == ["aic"]

    def test_simulate_reruns_a_cell_with_other_methods(self, capsys, tmp_path):
        cells = "seed = 3\nreplications = 20\nm = 8\nrho = 0\nbeta_type = 1\np_index = 1\n"
        first = _write(tmp_path, "a.txt", cells + "methods = msfdr:0.05\n")
        second = _write(tmp_path, "b.txt", cells + "methods = msfdr:0.05@global-min\n")
        args = ["--out", str(tmp_path / "out"), "--workers", "1"]
        assert main(["simulate", "--config", str(first)] + args) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(second)] + args) == 0
        assert "result file holds a different method list" in capsys.readouterr().out

    def test_simulate_reruns_a_cell_with_another_bm_constant(self, capsys, tmp_path):
        cells = "seed = 3\nreplications = 20\nm = 8\nrho = 0\nbeta_type = 1\np_index = 1\n"
        first = _write(tmp_path, "a.txt", cells + "methods = bm\n")
        second = _write(tmp_path, "b.txt", cells + "methods = bm:5\n")
        args = ["--out", str(tmp_path / "out"), "--workers", "1"]
        assert main(["simulate", "--config", str(first)] + args) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(second)] + args) == 0
        text = capsys.readouterr().out
        assert "result file holds a different method list" in text
        assert "1 configuration(s) run, 0 skipped" in text
        (path,) = (tmp_path / "out").glob("*.tsv")
        got = read_outcome(path).methods[0]
        cfg = SimConfig(m=8, rho=0.0, beta_type=1, p_index=1, replications=20, seed=3)
        want = run_config(cfg, [(PenaltySpec("bm", c_bm=5.0), None)]).methods[0]
        assert got.label == "bm:5"
        assert got.relative_loss == want.relative_loss

    def test_simulate_reruns_a_cell_at_a_level_past_six_digits(self, capsys, tmp_path):
        cells = "seed = 3\nreplications = 20\nm = 8\nrho = 0\nbeta_type = 1\np_index = 1\n"
        first = _write(tmp_path, "a.txt", cells + "methods = msfdr:0.05\n")
        second = _write(tmp_path, "b.txt", cells + "methods = msfdr:0.05000001\n")
        args = ["--out", str(tmp_path / "out"), "--workers", "1"]
        assert main(["simulate", "--config", str(first)] + args) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", str(second)] + args) == 0
        assert "1 configuration(s) run, 0 skipped" in capsys.readouterr().out
        (path,) = (tmp_path / "out").glob("*.tsv")
        assert [mo.label for mo in read_outcome(path).methods] == ["msfdr:0.05000001"]

    def test_summarize_leaves_rule_labels_out_of_best_q(self, capsys, tmp_path):
        cfgfile = _write(tmp_path, "c.txt",
                         "seed = 3\nreplications = 20\nm = 8\nrho = 0\nbeta_type = 1\n"
                         "p_index = 1,4\nmethods = msfdr:0.05,msfdr:0.1,msfdr:0.2@global-min\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out_dir),
                     "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["summarize", "--in", str(out_dir)]) == 0
        (best,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("# best q for msfdr")]
        assert "q=0.05:" in best and "q=0.1:" in best and "q=0.2" not in best

    def test_simulate_rejects_an_unknown_campaign_key(self, capsys, tmp_path):
        cfgfile = _write(tmp_path, "c.txt", "m = 8\nrho = 0\nreplication = 5\nsigma = 2\n")
        out_dir = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(out_dir)])
        assert rc == 1
        assert "unknown campaign key(s): replication, sigma" in capsys.readouterr().err
        assert not list(out_dir.glob("*.tsv"))

    def test_simulate_rejects_cells_sharing_a_result_file(self, capsys, tmp_path):
        cfgfile = _write(tmp_path, "c.txt", "replications = 5\nm = 8\nrho = 0.501,0.502\n"
                                            "beta_type = 1\np_index = 1\n")
        out_dir = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(out_dir)])
        assert rc == 1
        assert ("cells (m=8, rho=0.501, beta_type=1, p_index=1) and "
                "(m=8, rho=0.502, beta_type=1, p_index=1) both map to result file "
                "m8_rho+0.50_b1_p1.tsv") in capsys.readouterr().err
        assert not list(out_dir.glob("*.tsv"))

    def test_summarize_rejects_mixed_method_sets(self, capsys, tmp_path):
        cells = "seed = 3\nreplications = 20\nm = 8\nrho = 0\nbeta_type = 1\n"
        first = _write(tmp_path, "a.txt", cells + "p_index = 1\nmethods = msfdr:0.05,bm\n")
        second = _write(tmp_path, "b.txt", cells + "p_index = 2\nmethods = aic\n")
        out_dir = tmp_path / "out"
        args = ["--out", str(out_dir), "--workers", "1"]
        assert main(["simulate", "--config", str(first)] + args) == 0
        assert main(["simulate", "--config", str(second)] + args) == 0
        capsys.readouterr()
        rc = main(["summarize", "--in", str(out_dir)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "m8_rho+0.00_b1_p2.tsv holds methods aic;" in err
        assert "m8_rho+0.00_b1_p1.tsv holds msfdr:0.05, bm" in err

    def test_select_rejects_non_finite_data(self, tmp_path, capsys):
        f = _write(tmp_path, "d.csv", "a,b,Y\n1,2,3\n4,5,6\n7,inf,9\n1,5,2\n3,3,1\n")
        rc = main(["select", "--data", str(f), "--response", "Y", "--method", "aic",
                   "--sigma2", "known:1"])
        assert rc == 1
        assert "non-finite cell at row 3, column 'b'" in capsys.readouterr().err

    def test_summarize_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["summarize", "--in", str(empty)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_select_bad_file_fails(self, capsys):
        rc = main(["select", "--data", "/nonexistent.csv", "--response", "Y",
                   "--method", "aic"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_selftest_quick(self, capsys):
        rc = main(["selftest", "--instances", "5"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "PASS  forward path matches exhaustive refits (5 instances)\n"
            "PASS  per-prefix path MSPE matches explicit projection\n"
            "PASS  random oracle matches exhaustive prefix minimization\n"
        )

    def test_selfcheck_writes_nothing(self, capsys):
        from stepfdr import selfcheck

        checks = selfcheck.run(instances=5)
        assert [ok for _, ok in checks] == [True, True, True]
        assert capsys.readouterr() == ("", "")
