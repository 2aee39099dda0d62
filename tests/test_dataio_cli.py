"""Text ingestion, quadratic expansion, and the command-line surface."""

import contextlib
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from stepfdr import campaign, cli, dataio, regress
from stepfdr.campaign import read_outcome, write_outcome
from stepfdr.cli import build_parser, main, parse_method
from stepfdr.dataio import ExpansionSpec, diabetes_path, expand, ingest, load_diabetes
from stepfdr.penalties import PenaltySpec, penalty_table
from stepfdr.regress import Dataset
from stepfdr.selector import select
from stepfdr.simlab import ConfigOutcome, MethodOutcome, SimConfig, run_config


def _write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return f


def _cli_in_own_process(*argv):
    """``stepfdr`` run as its own process, where no logging handler is set up."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "stepfdr.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@contextlib.contextmanager
def _counted_scans():
    """A mock that counts the non-finite scans, wherever they are called from."""
    scan = mock.Mock(wraps=regress._first_nonfinite)
    with mock.patch.object(regress, "_first_nonfinite", scan), \
            mock.patch.object(dataio, "_first_nonfinite", scan):
        yield scan


def _ingest_outcome(path):
    """Names and the exact bytes of y and X, or the error message."""
    try:
        ds = ingest(path, response="Y", standardize_data=False)
    except ValueError as exc:
        return str(exc)
    return ds.names, ds.y.tobytes(), ds.X.tobytes()


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

    @pytest.mark.parametrize("text, message", [
        ("\n  \n", "empty file"),
        ("a,b\n1,2\n3,4\n5,6\n", "response column 'Y' not found in header"),
        ("Y,a,b,\n1,2,3,\n4,5,6,\n7,8,9,\n", "header column 4 has no name"),
        ("Y,a, ,b\n1,2,3,4\n5,6,7,8\n9,1,2,3\n", "header column 3 has no name"),
    ], ids=["empty", "no-response", "trailing-delimiter", "blank-name"])
    def test_header_errors_come_before_any_parse(self, tmp_path, text, message):
        f = _write(tmp_path, "d.csv", text)
        parsers = ("_body_parts", "_load_numeric", "_load_parts", "_parse_lines")
        with contextlib.ExitStack() as stack:
            mocks = [stack.enter_context(mock.patch.object(dataio, name)) for name in parsers]
            with pytest.raises(ValueError) as exc:
                ingest(f, response="Y")
        assert str(exc.value) == f"{f}: {message}"
        assert not any(m.called for m in mocks)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("cell", ["6", "1_000", "oops"], ids=["numpy", "float", "bad"])
    def test_a_pipe_is_read_as_its_file(self, tmp_path, cell):
        # A pipe cannot seek back to the body: it is copied to a temporary
        # file first, so both parsers read it and messages name the pipe.
        text = f"a,Y\n1,2\n3,{cell}\n5,7\n8,4\n"
        want = _ingest_outcome(_write(tmp_path, "d.csv", text))
        r, w = os.pipe()
        try:
            os.write(w, text.encode())
            os.close(w)
            got = _ingest_outcome(f"/dev/fd/{r}")
        finally:
            os.close(r)
        if cell == "oops":
            want = want.replace(str(tmp_path / "d.csv"), f"/dev/fd/{r}")
        assert got == want
        assert cell != "oops" or got.endswith("row 2, column 'Y': 'oops'")

    def test_a_row_sum_that_overflows_is_no_parse_failure(self, tmp_path):
        # Every cell is finite; only the row sum overflows. numpy's table
        # stands, and standardize names the column.
        f = _write(tmp_path, "d.csv", "a,b,Y\n1e308,1e308,1\n1,2,3\n4,5,6\n7,8,10\n")
        with warnings.catch_warnings(), \
                mock.patch.object(dataio, "_parse_lines", wraps=dataio._parse_lines) as lines:
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                ingest(f, response="Y")
        assert str(exc.value) == "column 'a' is too large to standardize: its squared length overflows"
        assert not lines.called


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

    @pytest.mark.parametrize("interactions, term", [(True, "a*b"), (False, "a^2")])
    def test_a_product_that_overflows_is_named(self, interactions, term):
        # A dataset marked standardized may hold any finite cells, and their
        # products may overflow where the columns' squared lengths do not:
        # 'a*b' to infinities of both signs, 'a^2' to a column of +inf,
        # which centering would turn into nans.
        a = 1e160 + 1e147 * np.arange(8.0)
        b = 1e150 * np.arange(1.0, 9.0) * np.tile([1.0, -1.0], 4)
        ds = Dataset(y=np.arange(8.0) - 3.5, X=np.column_stack([a, b]), names=("a", "b"),
                     standardized=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                expand(ds, ExpansionSpec(include_interactions=interactions))
        assert str(exc.value) == (f"column {term!r} is too large to standardize: "
                                  "its squared length overflows")


class TestDiabetesFixture:
    def test_shape(self, diabetes_main):
        assert diabetes_main.n == 442
        assert diabetes_main.names == (
            "AGE", "SEX", "BMI", "BP", "S1", "S2", "S3", "S4", "S5", "S6",
        )

    def test_path_exists(self):
        import os

        assert os.path.exists(diabetes_path())

    def test_unstandardized_load(self, diabetes_main):
        raw = load_diabetes(standardize_data=False)
        assert not raw.standardized
        assert raw.y.mean() == pytest.approx(152.133, abs=1e-3)
        # It selects with the intercept of the standardized pool.
        got, want = (select(ds, PenaltySpec("msfdr", q=0.05)) for ds in (raw, diabetes_main))
        assert got.selected == want.selected
        assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-12)


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

    def test_one_replication_has_no_standard_error(self, tmp_path):
        cfg = SimConfig(m=8, rho=0.0, beta_type=1, p_index=2, replications=1, seed=3)
        out = run_config(cfg, [(PenaltySpec("msfdr", q=0.05), None),
                               (PenaltySpec("aic"), None)])
        assert all(np.isnan(mo.se_relative_loss) for mo in out.methods)
        back = read_outcome(write_outcome(out, tmp_path))
        assert back.config == cfg and back.oracle_mspe == out.oracle_mspe
        assert [(mo.label, mo.mean_mspe, mo.relative_loss) for mo in back.methods] == \
            [(mo.label, mo.mean_mspe, mo.relative_loss) for mo in out.methods]
        assert all(np.isnan(mo.se_relative_loss) for mo in back.methods)

    def test_blank_line_in_the_method_table_is_skipped(self, tmp_path):
        cfg = SimConfig(m=6, rho=0.0, beta_type=1, p_index=2, replications=5)
        methods = (MethodOutcome("aic", 1.5, 2.0, 0.25), MethodOutcome("bic", 1.25, 1.5, 0.125))
        path = write_outcome(ConfigOutcome(cfg, 0.1, methods), tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + ["", lines[-1]]) + "\n")
        assert read_outcome(path).methods == methods

    def test_every_config_field_round_trips(self, tmp_path):
        cfg = SimConfig(m=6, rho=-0.3, beta_type=1, p_index=2, replications=5,
                        seed=11, c_scale=1.25, effect_target=4.5)
        out = run_config(cfg, [(PenaltySpec("aic"), None)])
        assert read_outcome(write_outcome(out, tmp_path)).config == cfg

    def test_header_is_pinned(self, tmp_path):
        methods = (MethodOutcome("aic", 1.5, 2.0, 0.25),)
        default = SimConfig(m=6, rho=0.0, beta_type=1, p_index=2)
        every = SimConfig(m=6, rho=-0.3, beta_type=3, p_index=4, replications=5, seed=2**40,
                          c_scale=1.25, effect_target=4.5)
        (tmp_path / "b").mkdir()
        texts = [write_outcome(ConfigOutcome(default, 0.1, methods, 2), tmp_path).read_text(),
                 write_outcome(ConfigOutcome(every, 0.1, methods, 2), tmp_path / "b").read_text()]
        body = ("# oracle_mspe\t0.10000000000000001\n"
                "# dominance_violations\t2\n"
                "method\tmean_mspe\toracle_mspe\trelative_loss\tse_relative_loss\n"
                "aic\t1.5\t0.10000000000000001\t2\t0.25\n")
        assert texts[0] == (
            "# m\t6\n# rho\t0\n# beta_type\t1\n# p_index\t2\n# replications\t1000\n"
            "# seed\t0\n# c_scale\tauto\n# effect_target\t3\n"
        ) + body
        assert texts[1] == (
            "# m\t6\n# rho\t-0.29999999999999999\n# beta_type\t3\n# p_index\t4\n"
            "# replications\t5\n# seed\t1099511627776\n"
            "# c_scale\t1.25\n# effect_target\t4.5\n"
        ) + body

    def test_file_lacking_a_field_is_rejected(self, tmp_path):
        cfg = SimConfig(m=6, rho=0.0, beta_type=1, p_index=2, replications=5)
        path = write_outcome(run_config(cfg, [(PenaltySpec("aic"), None)]), tmp_path)
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("# effect_target")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="lacks effect_target"):
            read_outcome(path)

    @pytest.mark.parametrize("row, message", [
        ("aic\t1.5\t0.10000000000000001\tx14.16\t0.25",
         "non-numeric cell at line {row}, column 'relative_loss': 'x14.16'"),
        ("aic\t1.5\t0.10000000000000001\t2\t0.25\t7", "line {row} has 6 cells, expected 5"),
        ("aic\t1.5\t0.1\t2\t0.25", "line {row}, column 'oracle_mspe' holds '0.1', "
                                    "not the cell's '0.10000000000000001'"),
        (None, "result file holds no method rows"),
    ], ids=["non-numeric", "extra-cell", "other-oracle", "no-rows"])
    def test_malformed_file_is_rejected_by_path_and_line(self, tmp_path, row, message):
        cfg = SimConfig(m=6, rho=0.0, beta_type=1, p_index=2, replications=5)
        path = write_outcome(ConfigOutcome(cfg, 0.1, (MethodOutcome("aic", 1.5, 2.0, 0.25),)),
                             tmp_path)
        lines = path.read_text().splitlines()
        header = next(i for i, ln in enumerate(lines) if ln.startswith("method\t"))
        assert len(lines) == header + 2
        lines[header + 1:] = [row] if row else []
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_outcome(path)
        assert str(info.value) == f"{path}: {message.format(row=header + 2)}"

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [ln for ln in lines if not ln.startswith("method\t")],
         "result file lacks the method table header"),
        (lambda lines: lines[:2] + ["seed 0"] + lines[2:],
         "line 3 is not a '# name<TAB>value' line"),
    ], ids=["no-header", "bare-line"])
    def test_malformed_head_is_rejected(self, tmp_path, edit, message):
        cfg = SimConfig(m=6, rho=0.0, beta_type=1, p_index=2, replications=5)
        path = write_outcome(ConfigOutcome(cfg, 0.1, (MethodOutcome("aic", 1.5, 2.0, 0.25),)),
                             tmp_path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError) as info:
            read_outcome(path)
        assert str(info.value) == f"{path}: {message}"

    def test_malformed_config_value_is_rejected_by_field(self, tmp_path):
        cfg = SimConfig(m=6, rho=0.0, beta_type=1, p_index=2, replications=5)
        path = write_outcome(ConfigOutcome(cfg, 0.1, (MethodOutcome("aic", 1.5, 2.0, 0.25),)),
                             tmp_path)
        path.write_text(path.read_text().replace("# replications\t5", "# replications\t5.0"))
        with pytest.raises(ValueError) as info:
            read_outcome(path)
        assert str(info.value) == f"{path}: replications: '5.0' is not an integer"

    def test_a_bool_field_round_trips_and_rejects_other_text(self):
        # SimConfig has no bool field yet; the codec is checked on a patched one.
        with mock.patch.dict(campaign._CONFIG_TYPES, {"redraw": bool}):
            for value in (True, False):
                text = campaign._config_text("redraw", value)
                assert text == str(value)
                assert campaign._config_value("redraw", text) is value
            for text in ("0", "1", "0.0", "true", "auto", ""):
                with pytest.raises(ValueError) as info:
                    campaign._config_value("redraw", text)
                assert str(info.value) == f"redraw: {text!r} is not a boolean"

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        cfg = SimConfig(m=6, rho=0.0, beta_type=1, p_index=2, replications=5)
        first = run_config(cfg, [(PenaltySpec("aic"), None)])
        path = write_outcome(first, tmp_path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("stepfdr.campaign.os.replace", crash)
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
            "--method", "msfdr:0.05",
        ])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "# k_selected\t6" in captured
        for name in ("BMI", "S5", "BP", "S1", "SEX", "S2"):
            assert f"\n{name}\t" in captured or captured.startswith(f"{name}\t")

    def test_select_names_the_column_that_makes_the_pool_rank_deficient(self, capsys):
        # Without --square-exclude SEX the pool holds SEX^2, a linear
        # function of the two-valued SEX and the intercept.
        argv = ["select", "--data", diabetes_path(), "--response", "Y",
                "--method", "msfdr:0.05", "--expand"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "error: full model is rank deficient: 'SEX^2' lies in the span of the intercept "
            "and the columns before it; a known sigma2 skips the full-model fit")

    def test_a_rank_deficient_select_writes_only_its_error(self):
        # In its own process, where no handler is set up: a warning logged
        # before the failing full-model fit would reach stderr too.
        done = _cli_in_own_process("select", "--data", diabetes_path(), "--response", "Y",
                                   "--method", "msfdr:0.05", "--expand")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.splitlines() == [
            "error: full model is rank deficient: 'SEX^2' lies in the span of the intercept "
            "and the columns before it; a known sigma2 skips the full-model fit"]

    @pytest.mark.parametrize("ys", [
        ("1.7e308", "1.7e308", "-1.7e308", "0", "1"),  # the mean overflows
        ("1e200", "-2e200", "3e200", "-1e200", "2e200", "-3e200"),  # only the squared length
    ], ids=["mean", "squared-length"])
    def test_a_response_too_large_to_standardize_writes_only_its_error(self, tmp_path, ys):
        # Every cell is finite. Unchecked, numpy warned of the overflow and
        # the select failed later: on a y cell it called non-finite, or on
        # an infinite sigma2 after a false zero-residual warning.
        rows = ["a\tb\tY"] + [f"{i}\t{i * i % 7}\t{y}" for i, y in enumerate(ys)]
        f = _write(tmp_path, "d.tsv", "\n".join(rows) + "\n")
        done = _cli_in_own_process("select", "--data", str(f), "--response", "Y",
                                   "--method", "aic")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.splitlines() == [
            "error: the response is too large to standardize: its squared length overflows"]

    @pytest.mark.parametrize("y, n", [("5", 8), ("0.1", 7)], ids=["fives", "tenths"])
    def test_a_constant_response_writes_only_its_error(self, tmp_path, y, n):
        # Seven 0.1s center to +-1.4e-17, not to zero. Unchecked, the select
        # warned of a zero residual and then failed, or selected nothing.
        rows = ["a\tb\tY"] + [f"{i}\t{i * i % 7}\t{y}" for i in range(n)]
        f = _write(tmp_path, "d.tsv", "\n".join(rows) + "\n")
        done = _cli_in_own_process("select", "--data", str(f), "--response", "Y",
                                   "--method", "aic")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.splitlines() == [
            "error: the response is constant and cannot be standardized"]

    def test_a_response_in_the_span_writes_two_plain_log_lines(self, tmp_path):
        # In its own process: the zero-residual warning goes through the
        # logger like the path warning, with no file path or source line.
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 3))
        table = np.column_stack([X, 2 * X[:, 0] - X[:, 1]])
        path = tmp_path / "d.tsv"
        with open(path, "w") as fh:
            fh.write("a\tb\tc\tY\n")
            np.savetxt(fh, table, fmt="%.17g", delimiter="\t")
        done = _cli_in_own_process("select", "--data", str(path), "--response", "Y",
                                   "--method", "aic")
        assert done.returncode == 0
        assert done.stderr.splitlines() == [
            "full-model residual is numerically zero; the variance estimate is degenerate "
            "(response lies in the span of the candidates)",
            "forward path stopped at depth 2 of 3: no column left reduces the RSS by more "
            "than 1e-12 of RSS_0; never entered: 'c'"]

    @pytest.mark.parametrize("expand_flags", [[], ["--expand", "--square-exclude", "SEX"]],
                             ids=["main", "quad"])
    def test_a_select_scans_its_data_once(self, capsys, expand_flags):
        # ingest scans the parsed table; the datasets derived from it are
        # not scanned again (a scan per Dataset made 3, and 5 with --expand).
        with _counted_scans() as scan:
            assert main(["select", "--data", diabetes_path(), "--response", "Y",
                         "--method", "msfdr:0.05", *expand_flags]) == 0
        assert scan.call_count == 1
        assert scan.call_args.args[0].shape == (442, 11)

    def test_a_forked_ingest_scans_its_table_once(self, tmp_path):
        table = np.random.default_rng(5).standard_normal((400, 6))
        path = tmp_path / "d.tsv"
        with open(path, "w") as fh:
            fh.write("a\tb\tY\tc\td\te\n")
            np.savetxt(fh, table, fmt="%.17g", delimiter="\t")
        with mock.patch.object(dataio, "SPLIT_BYTES", 1), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork, \
                _counted_scans() as scan:
            ds = ingest(path, "Y")
        assert fork.call_count == 1 and scan.call_count == 1
        assert ds.X.shape == (400, 5) and np.isfinite(ds.X).all() and np.isfinite(ds.y).all()

    def test_cli_binds_the_traced_outcome_functions(self):
        # bench/tracer.py traces the result-file I/O by rebinding these
        # names on stepfdr.cli, and every namespace that holds the same object.
        assert cli.write_outcome is campaign.write_outcome
        assert cli.read_outcome is campaign.read_outcome

    def test_a_closed_stdout_pipe_ends_quietly(self, capsys):
        # As when the output is piped into `head`, which exits early: the
        # write raises BrokenPipeError, and the request still succeeds.
        closed = mock.Mock()
        closed.write.side_effect = BrokenPipeError(32, "Broken pipe")
        with mock.patch.object(sys, "stdout", closed):
            rc = main(["penalty-table", "--method", "bh:0.05", "--m", "10"])
        assert rc == 0
        assert closed.write.called
        assert capsys.readouterr() == ("", "")

    def test_one_process_serves_requests_without_leaking_state(self, capsys):
        # One parser serves every call in a process; no option set by one
        # request may carry into the next. An --iterative left over from the
        # first call would make tk an error: it applies to msfdr only.
        data = ["--data", str(diabetes_path()), "--response", "Y"]
        plain = ["select", *data, "--method", "tk"]
        argvs = [
            ["select", *data, "--method", "msfdr:0.1", "--iterative"],
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

    @pytest.mark.parametrize("token", ["bh:0.05", "msfdr:0.05", "fixed-alpha:0.05", "aic",
                                       "dj", "fs", "tk", "bm", "gf"])
    def test_penalty_table_matches_per_cell_rendering(self, capsys, token):
        spec, _ = parse_method(token)
        for m, kmax in ((1, None), (9, None), (129, None), (300, 257), (1000, 7)):
            table = penalty_table(spec, m, kmax)
            want = ["family\tm\tk\talpha_k\tlambda_k\tstep_cost_k"]
            for i in range(table.k_max):
                a = "" if np.isnan(table.alpha[i]) else "%.17g" % table.alpha[i]
                want.append(f"{spec.label()}\t{m}\t{i + 1}\t{a}\t{'%.17g' % table.lam[i]}"
                            f"\t{'%.17g' % table.cost[i]}")
            argv = ["penalty-table", "--method", token, "--m", str(m)]
            assert main(argv + (["--kmax", str(kmax)] if kmax else [])) == 0
            assert capsys.readouterr().out == "\n".join(want) + "\n"

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

    def test_summarize_of_a_large_q_campaign_writes_nothing_to_stderr(self, capsys, tmp_path):
        # simulate warns once when it parses msfdr:0.6; summarize only reads
        # the labels back, so it does not warn again.
        cfgfile = _write(tmp_path, "campaign.txt",
                         "seed = 0\nreplications = 5\nm = 8\nrho = 0\nbeta_type = 1\n"
                         "p_index = 2,4\nmethods = msfdr:0.05,msfdr:0.6,aic\n")
        out_dir = tmp_path / "out"
        with pytest.warns(UserWarning, match="q >= 0.5"):
            assert main(["simulate", "--config", str(cfgfile), "--out", str(out_dir),
                         "--workers", "1"]) == 0
        capsys.readouterr()
        done = _cli_in_own_process("summarize", "--in", str(out_dir))
        assert (done.returncode, done.stderr) == (0, "")
        assert "# best q for msfdr: " in done.stdout and " q=0.6:" in done.stdout

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

    def test_summarize_output_is_pinned(self, capsys, tmp_path):
        # Two q levels per FDR family and an @rule label, over 8 cells.
        cfgfile = _write(tmp_path, "c.txt",
                         "seed = 3\nreplications = 20\nm = 6,8\nrho = 0,0.5\nbeta_type = 1\n"
                         "p_index = 1,4\nmethods = bh:0.05,bh:0.1,tsfdr:0.05,tsfdr:0.1,"
                         "msfdr:0.05,msfdr:0.1,msfdr:0.05@global-min,aic\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out_dir),
                     "--workers", "1"]) == 0
        capsys.readouterr()
        for worst_k, want in (("2", SUMMARY_WORST_2), ("ALL", SUMMARY_WORST_ALL)):
            assert main(["summarize", "--in", str(out_dir), "--worst-k", worst_k]) == 0
            assert capsys.readouterr().out == want

    def test_summarize_names_a_malformed_file(self, capsys, tmp_path):
        cells = "seed = 3\nreplications = 20\nm = 8\nrho = 0\nbeta_type = 1\np_index = 1,2\n"
        cfgfile = _write(tmp_path, "c.txt", cells + "methods = aic\n")
        out_dir = tmp_path / "out"
        args = ["simulate", "--config", str(cfgfile), "--out", str(out_dir), "--workers", "1"]
        assert main(args) == 0
        path = out_dir / "m8_rho+0.00_b1_p2.tsv"
        lines = path.read_text().splitlines()
        header = lines.index("method\tmean_mspe\toracle_mspe\trelative_loss\tse_relative_loss")
        path.write_text(path.read_text().replace("\naic\t", "\naic\tx"))
        capsys.readouterr()
        assert main(["summarize", "--in", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: non-numeric cell at line {header + 2}, column 'mean_mspe': 'x" in err

        # A file whose method rows are lost is rejected, and rerun.
        path.write_text("\n".join(lines[:header + 1]) + "\n")
        assert main(["summarize", "--in", str(out_dir)]) == 1
        assert f"{path}: result file holds no method rows" in capsys.readouterr().err
        assert main(args) == 0
        text = capsys.readouterr().out
        assert "rerun m8_rho+0.00_b1_p2: result file holds an unreadable file" in text
        assert "1 configuration(s) run, 1 skipped" in text
        assert [mo.label for mo in read_outcome(path).methods] == ["aic"]

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
        assert ("outcome m8_rho+0.00_b1_p2 holds methods aic; "
                "outcome m8_rho+0.00_b1_p1 holds msfdr:0.05, bm") in err

    @pytest.mark.parametrize("cpus, pools", [(1, []), (2, [2])])
    def test_simulate_workers_default_to_usable_cpus(self, capsys, tmp_path, cpus, pools):
        # os.cpu_count() counts CPUs this process may not run on; the
        # affinity set is what a pool can use. No real pool is started.
        import concurrent.futures

        built = []

        class Pool(contextlib.nullcontext):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(self)

            map = staticmethod(map)

        cfgfile = _write(tmp_path, "c.txt", "replications = 5\nm = 8\nrho = 0\nbeta_type = 1\n"
                                            "p_index = 1,2\nmethods = aic\n")
        with mock.patch("os.sched_getaffinity", lambda pid: set(range(cpus)), create=True), \
             mock.patch("os.cpu_count", lambda: 4), \
             mock.patch.object(concurrent.futures, "ProcessPoolExecutor", Pool):
            assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert built == pools
        assert "2 configuration(s) run, 0 skipped" in capsys.readouterr().out

    def test_select_rejects_non_finite_data(self, tmp_path, capsys):
        f = _write(tmp_path, "d.csv", "a,b,Y\n1,2,3\n4,5,6\n7,inf,9\n1,5,2\n3,3,1\n")
        rc = main(["select", "--data", str(f), "--response", "Y", "--method", "aic",
                   "--sigma2", "known:1"])
        assert rc == 1
        assert "non-finite cell at row 3, column 'b'" in capsys.readouterr().err

    def test_select_rejects_a_column_constant_up_to_rounding(self, tmp_path, capsys):
        # Seven 0.1s average to a neighbour of 0.1, so centering leaves
        # a column of rounding errors rather than of zeros.
        rows = ["a\tb\tc\tY"] + [f"{a}\t{b}\t0.1\t{y}" for a, b, y in
                                  ((1, 2, 3), (4, 5, 6), (7, 1, 9), (1, 5, 2), (3, 3, 1),
                                   (2, 8, 4), (6, 2, 7))]
        f = _write(tmp_path, "d.tsv", "\n".join(rows) + "\n")
        rc = main(["select", "--data", str(f), "--response", "Y", "--method", "aic"])
        assert rc == 1
        assert "column 'c' is constant" in capsys.readouterr().err

    def test_select_rejects_a_column_too_large_to_standardize(self, tmp_path, capsys):
        rows = ["a\tbig\tY"] + [f"{i}\t{(-1) ** i * 1e200:.17g}\t{i % 7}" for i in range(50)]
        f = _write(tmp_path, "d.tsv", "\n".join(rows) + "\n")
        rc = main(["select", "--data", str(f), "--response", "Y", "--method", "aic"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == ("error: column 'big' is too large to standardize: "
                                "its squared length overflows\n")

    def _select(self, *flags):
        return main(["select", "--data", diabetes_path(), "--response", "Y", *flags])

    def test_select_rejects_iterative_for_another_family(self, capsys):
        # Without the check, bh would run plain and the flag be ignored.
        assert self._select("--method", "bh:0.05", "--iterative") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --iterative applies to msfdr only, not bh\n"

    @pytest.mark.parametrize("flags", [["--method", "msfdr:0.05@global-min"]])
    def test_select_rejects_iterative_with_a_rule(self, capsys, flags):
        assert self._select(*flags, "--iterative") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --iterative takes no stopping rule, "
                                "got 'msfdr:0.05@global-min'\n")

    def test_select_iterative_warns_once_of_a_large_q(self):
        # msfdr_iterative builds the parsed spec again, without a second warning.
        done = _cli_in_own_process("select", "--data", diabetes_path(), "--response", "Y",
                                   "--method", "msfdr:0.6", "--iterative")
        assert done.returncode == 0
        # One warning: its "file:line: message" line and its source line,
        # the spec parse_method builds.
        where, source = done.stderr.splitlines()
        assert where.endswith(": UserWarning: msfdr with q >= 0.5 loses its asymptotic "
                              "optimality guarantees")
        assert source.strip() == "spec = PenaltySpec(fam, **levels)"

    @pytest.mark.parametrize("argv", [
        ["select", "--data", diabetes_path(), "--response", "Y", "--method", "msfdr", "--q", "0.05"],
        ["select", "--data", diabetes_path(), "--response", "Y", "--method", "msfdr:0.05",
         "--rule", "global-min"],
        ["penalty-table", "--method", "msfdr", "--m", "20", "--q", "0.05"],
    ], ids=["select-q", "select-rule", "penalty-table-q"])
    def test_level_and_rule_are_written_only_in_the_method_token(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: " in captured.err

    @pytest.mark.parametrize("flags", [["--square-exclude", "SEX"], ["--square-exclude"],
                                       ["--no-interactions"]])
    def test_select_rejects_expansion_flags_without_expand(self, capsys, flags):
        assert self._select("--method", "aic", *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --square-exclude and --no-interactions need --expand\n"

    @pytest.mark.parametrize("flags, message", [
        (["--method", "msfdr:abc"], "method 'msfdr:abc': level 'abc' is not a number"),
        (["--method", "bm:1e3x@global-min"], "method 'bm:1e3x@global-min': level '1e3x' is not"),
        (["--method", "msfdr:0.05", "--sigma2", "known:x"],
         "--sigma2 'known:x': the known value is not a number"),
    ])
    def test_select_names_the_source_of_a_malformed_number(self, capsys, flags, message):
        assert self._select(*flags) == 1
        assert message in capsys.readouterr().err

    def test_simulate_names_a_malformed_method_level(self, capsys, tmp_path):
        cfgfile = _write(tmp_path, "c.txt", "m = 8\nrho = 0\nmethods = aic,msfdr:0.o5\n")
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "method 'msfdr:0.o5': level '0.o5' is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("rho = abc", "rho: 'abc' is not a number"),
        ("m = 8,x", "m: 'x' is not an integer"),
        ("replications = x", "replications: 'x' is not an integer"),
        ("effect_target = 3y", "effect_target: '3y' is not a number"),
        ("c_scale = big", "c_scale: 'big' is not a number"),
        ("c_scale = inf", "c_scale must be positive and finite or 'auto', got inf"),
        ("effect_target = nan", "effect_target must be a finite number, got nan"),
        ("beta_type = 4", "beta_type must be 1, 2 or 3"),
        ("p_index = 7", "p_index must lie in 1..6, got 7"),
        ("seed = -1", "seed must be non-negative, got -1"),
    ], ids=["grid-float", "grid-int", "scalar-int", "scalar-float", "scalar-auto",
            "infinite-scale", "nan-target", "beta-type", "p-index", "negative-seed"])
    def test_simulate_names_the_key_of_a_malformed_value(self, capsys, tmp_path, line, message):
        # The malformed line takes the place of its key's valid one.
        key = line.split(" = ")[0]
        valid = [f"{k} = {v}" for k, v in (("m", 8), ("rho", 0), ("replications", 5)) if k != key]
        cfgfile = _write(tmp_path, "c.txt", "\n".join(valid + [line]) + "\n")
        out_dir = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_penalty_table_rejects_a_rule(self, capsys):
        # Without the check, the table would print as for msfdr:0.05.
        assert main(["penalty-table", "--method", "msfdr:0.05@global-min", "--m", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: penalty-table takes no stopping rule, "
                                "got 'msfdr:0.05@global-min'\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_select_rejects_a_known_sigma2_that_is_not_positive_and_finite(self, capsys, value):
        # Without the check, nan would select every term and inf none.
        assert self._select("--method", "msfdr:0.05", "--sigma2", f"known:{value}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        want = {"0": "0.0", "-inf": "-inf"}.get(value, value)
        assert captured.err == f"error: sigma2 must be a positive finite number, got {want}\n"

    @pytest.mark.parametrize("sigma2, k", [("known:1e-310", 10), ("known:1e307", 0)])
    def test_select_at_an_extreme_known_sigma2_warns_nothing(self, capsys, sigma2, k):
        # A subnormal sigma2 makes every tsq inf and a huge one every
        # penalized trace past k = 0; numpy's overflow warnings would
        # reach the terminal (here, raised as errors, exit 1).
        for method in ("msfdr:0.05", "bh:0.05", "tsfdr:0.05", "fixed-alpha:0.05", "aic", "dj",
                       "fs", "tk", "bm", "gf", "msfdr:0.05 --iterative"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert self._select("--method", *method.split(), "--sigma2", sigma2) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert f"# k_selected\t{k}\n" in captured.out, method

    @pytest.mark.parametrize("source", ["select-empty", "select-level-only", "campaign"])
    def test_an_empty_family_names_the_known_ones(self, capsys, tmp_path, source):
        if source == "campaign":
            cfgfile = _write(tmp_path, "c.txt", "m = 8\nrho = 0\nmethods = aic,,bh:0.05\n")
            rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        else:
            rc = self._select("--method", "" if source == "select-empty" else ":0.05")
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: unknown penalty family ''; known families: bh, msfdr, tsfdr, "
            "fixed-alpha, aic, dj, fs, tk, bm, gf\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_select_rejects_a_bm_constant_that_is_not_finite(self, capsys, value):
        # Without the check, nan selected BMI with a nan trace and inf
        # printed numpy's warning and selected 2 terms.
        assert self._select("--method", f"bm:{value}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: c_bm must be positive and finite\n"

    def test_select_rejects_a_sigma2_of_another_form(self, capsys):
        for value in ("2900", ""):
            assert self._select("--method", "aic", "--sigma2", value) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --sigma2 expects 'full-model' or 'known:<value>'\n"

    def test_simulate_rejects_a_line_without_a_value(self, capsys, tmp_path):
        cfgfile = _write(tmp_path, "c.txt", "m = 8\nrho 0\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == (f"error: {cfgfile}: malformed line 'rho 0' "
                                           "(expected key = value)\n")
        assert not out_dir.exists()

    def test_simulate_rejects_a_key_given_twice(self, capsys, tmp_path):
        cfgfile = _write(tmp_path, "c.txt", "m = 8\nrho = 0\n# a comment\nm = 10\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {cfgfile}: key 'm' is set on lines 1 and 4\n"
        assert not list(out_dir.glob("*.tsv"))

    def test_simulate_rejects_two_tokens_with_one_label(self, capsys, tmp_path):
        cfgfile = _write(tmp_path, "c.txt",
                         "m = 8\nrho = 0\nmethods = msfdr:0.05,msfdr:0.050,aic\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == "error: methods: two tokens name method 'msfdr:0.05'\n"
        assert not list(out_dir.glob("*.tsv"))

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_simulate_rejects_fewer_than_one_worker(self, capsys, tmp_path, workers):
        cfgfile = _write(tmp_path, "c.txt", "m = 8\nrho = 0\nreplications = 5\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out_dir),
                     "--workers", workers]) == 1
        assert capsys.readouterr().err == f"error: --workers must be at least 1, got {workers}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_summarize_names_a_bad_worst_k(self, capsys, tmp_path, value):
        # Without the check, 'abc' printed int()'s message and named no flag.
        assert main(["summarize", "--in", str(tmp_path), "--worst-k", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --worst-k {value!r}: "
                                "expected a positive integer or ALL\n")

    @pytest.mark.parametrize("flags, message", [
        (["--m", "0"], "--m 0: the pool size must be at least 1"),
        (["--m", "-4", "--kmax", "2"], "--m -4: the pool size must be at least 1"),
        (["--m", "5", "--kmax", "0"], "--kmax 0: must lie in [1, 5] (the --m value)"),
        (["--m", "5", "--kmax", "6"], "--kmax 6: must lie in [1, 5] (the --m value)"),
    ])
    def test_penalty_table_names_a_bad_size(self, capsys, flags, message):
        # Without the checks, both read "k_max must lie in [1, m]".
        assert main(["penalty-table", "--method", "aic"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_penalty_table_names_a_level_too_small_for_the_quantile(self, capsys):
        # Without the check: "probability must lie in the open interval (0, 1), got 1.0".
        assert main(["penalty-table", "--method", "msfdr:1e-15", "--m", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: msfdr:1e-15 at m=10: step k=1 has alpha_k = 1e-16, so "
                                "1 - alpha_k/2 rounds to 1 and its normal quantile is infinite; "
                                "use a larger level\n")

    def test_simulate_with_workers_matches_a_serial_run(self, capsys, tmp_path):
        cfgfile = _write(tmp_path, "c.txt", "seed = 3\nreplications = 10\nm = 8\nrho = 0\n"
                                            "beta_type = 1\np_index = 1,2,4\nmethods = aic,bm\n")
        runs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            assert main(["simulate", "--config", str(cfgfile), "--out", str(out_dir),
                         "--workers", workers]) == 0
            runs.append((capsys.readouterr().out,
                         {f.name: f.read_bytes() for f in sorted(out_dir.glob("*.tsv"))}))
        assert runs[0] == runs[1]
        assert runs[0][0].count("done ") == 3 and len(runs[0][1]) == 3

    def test_summarize_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["summarize", "--in", str(empty)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _result_dir(tmp_path, *ms):
        """One aic result file per m (p_index 1) in ``tmp_path / "out"``."""
        out = tmp_path / "out"
        out.mkdir()
        for m in ms:
            write_outcome(ConfigOutcome(SimConfig(m=m, rho=0.0, beta_type=1, p_index=1), 1.0,
                                        (MethodOutcome("aic", 1.5, 1.0 + m / 10, 0.1),)), out)
        return out

    def test_summarize_reads_a_dot_named_result_file(self, capsys, tmp_path):
        out = self._result_dir(tmp_path, 6, 8)
        (out / "m6_rho+0.00_b1_p1.tsv").rename(out / ".x.tsv")
        assert main(["summarize", "--in", str(out)]) == 0
        assert "method\tm=6\tm=8\naic\t1.6\t1.8\n" in capsys.readouterr().out

    def test_summarize_skips_a_writers_temporary_file(self, capsys, tmp_path):
        out = self._result_dir(tmp_path, 8)
        (out / f".x.tsv.{os.getpid()}.tmp").write_text("half a file")
        assert main(["summarize", "--in", str(out)]) == 0
        assert "method\tm=8\naic\t1.8\n" in capsys.readouterr().out

    def test_summarize_names_a_directory_that_ends_in_tsv(self, capsys, tmp_path):
        out = self._result_dir(tmp_path, 8)
        (out / "x.tsv").mkdir()
        assert main(["summarize", "--in", str(out)]) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert captured.out == "" and line.startswith("error: ") and str(out / "x.tsv") in line

    def test_summarize_of_a_missing_directory_says_so(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        assert main(["summarize", "--in", str(missing)]) == 1
        assert capsys.readouterr() == ("", f"error: no campaign output files found in {missing}\n")

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

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_selftest_rejects_fewer_than_one_instance(self, capsys, instances):
        # Without the check, no instance ran and all three checks passed.
        assert main(["selftest", "--instances", instances]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: instances must be at least 1, got {instances}\n"

    def test_selfcheck_writes_nothing(self, capsys):
        from stepfdr import selfcheck

        checks = selfcheck.run(instances=5)
        assert [ok for _, ok in checks] == [True, True, True]
        assert capsys.readouterr() == ("", "")


# summarize output of test_summarize_output_is_pinned's campaign, as the
# per-label summaries printed it.
SUMMARY_WORST_2 = (
    '# worst-2 relative loss by m\n'
    'method\tm=6\tm=8\n'
    'bh:0.05\t1.858\t1.695\n'
    'bh:0.1\t1.721\t1.504\n'
    'tsfdr:0.05\t2.407\t1.596\n'
    'tsfdr:0.1\t2.153\t1.516\n'
    'msfdr:0.05\t2.325\t1.596\n'
    'msfdr:0.1\t2.153\t1.516\n'
    'msfdr:0.05@global-min\t1.875\t1.56\n'
    'aic\t1.551\t1.39\n'
    '# worst-2 relative loss by (m, rho)\n'
    'method\tm=6,rho=0\tm=6,rho=0.5\tm=8,rho=0\tm=8,rho=0.5\n'
    'bh:0.05\t1.759\t1.569\t1.553\t1.443\n'
    'bh:0.1\t1.456\t1.45\t1.431\t1.35\n'
    'tsfdr:0.05\t2.32\t1.609\t1.444\t1.442\n'
    'tsfdr:0.1\t1.969\t1.458\t1.322\t1.333\n'
    'msfdr:0.05\t2.243\t1.604\t1.444\t1.442\n'
    'msfdr:0.1\t1.969\t1.458\t1.358\t1.333\n'
    'msfdr:0.05@global-min\t1.793\t1.604\t1.48\t1.399\n'
    'aic\t1.435\t1.426\t1.262\t1.298\n'
    '# overall worst-2 relative loss\n'
    'bh:0.05\t1.898\n'
    'bh:0.1\t1.721\n'
    'tsfdr:0.05\t2.437\n'
    'tsfdr:0.1\t2.153\n'
    'msfdr:0.05\t2.36\n'
    'msfdr:0.1\t2.153\n'
    'msfdr:0.05@global-min\t1.875\n'
    'aic\t1.551\n'
    '# best q for bh: 0.1 q=0.05:2.066 q=0.1:1.787\n'
    '# best q for tsfdr: 0.1 q=0.05:3.155 q=0.1:2.673\n'
    '# best q for msfdr: 0.1 q=0.05:3.002 q=0.1:2.673\n'
)
SUMMARY_WORST_ALL = (
    '# worst-ALL relative loss by m\n'
    'method\tm=6\tm=8\n'
    'bh:0.05\t1.664\t1.498\n'
    'bh:0.1\t1.453\t1.391\n'
    'tsfdr:0.05\t1.964\t1.443\n'
    'tsfdr:0.1\t1.714\t1.327\n'
    'msfdr:0.05\t1.923\t1.443\n'
    'msfdr:0.1\t1.714\t1.346\n'
    'msfdr:0.05@global-min\t1.698\t1.44\n'
    'aic\t1.431\t1.28\n'
    '# worst-ALL relative loss by (m, rho)\n'
    'method\tm=6,rho=0\tm=6,rho=0.5\tm=8,rho=0\tm=8,rho=0.5\n'
    'bh:0.05\t1.759\t1.569\t1.553\t1.443\n'
    'bh:0.1\t1.456\t1.45\t1.431\t1.35\n'
    'tsfdr:0.05\t2.32\t1.609\t1.444\t1.442\n'
    'tsfdr:0.1\t1.969\t1.458\t1.322\t1.333\n'
    'msfdr:0.05\t2.243\t1.604\t1.444\t1.442\n'
    'msfdr:0.1\t1.969\t1.458\t1.358\t1.333\n'
    'msfdr:0.05@global-min\t1.793\t1.604\t1.48\t1.399\n'
    'aic\t1.435\t1.426\t1.262\t1.298\n'
    '# overall worst-ALL relative loss\n'
    'bh:0.05\t1.581\n'
    'bh:0.1\t1.422\n'
    'tsfdr:0.05\t1.703\n'
    'tsfdr:0.1\t1.521\n'
    'msfdr:0.05\t1.683\n'
    'msfdr:0.1\t1.53\n'
    'msfdr:0.05@global-min\t1.569\n'
    'aic\t1.355\n'
    '# best q for bh: 0.1 q=0.05:2.066 q=0.1:1.787\n'
    '# best q for tsfdr: 0.1 q=0.05:3.155 q=0.1:2.673\n'
    '# best q for msfdr: 0.1 q=0.05:3.002 q=0.1:2.673\n'
)
