"""Today's outputs against the committed record in tests/golden/.

``tests/golden/record.py`` wrote the record; these tests recompute each
output. Labels, entry orders, model sizes and other integers must match
exactly; every float within ``REL`` relative, refit coefficients within
``COEF_REL``. A tolerance, not byte equality, so that the record does
not depend on the BLAS build.
"""

import importlib.util
import logging
from pathlib import Path

import numpy as np
import pytest

from stepfdr.campaign import campaign_grid, read_outcome
from stepfdr.simlab import run_config

_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).parent / "golden" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

REL = 1e-12
# Any change in the last bit of a pool moves the quad pool's gf
# coefficient of S3 by about 3e-12 relative.
COEF_REL = 1e-11


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


def _assert_lines(got: str, want: str, float_cols) -> None:
    """Same lines and cells; ``float_cols(line)`` maps each float column
    of a line to its relative tolerance, and every other cell is exact."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines, want_lines):
        g_cells, w_cells = g.split("\t"), w.split("\t")
        assert len(g_cells) == len(w_cells), (g, w)
        tolerant = float_cols(w_cells)
        for col, (a, b) in enumerate(zip(g_cells, w_cells)):
            if col in tolerant and a and b:
                assert _close(float(a), float(b), tolerant[col]), (g, w)
            else:
                assert a == b, (g, w)


def _report_floats(cells) -> dict:
    # "# sigma2", the coefficient rows and the trace rows have one float,
    # in column 1; the other "#" lines and the table headers have none.
    if cells[0] == "# sigma2":
        return {1: REL}
    if cells[0].startswith("#") or cells[1] in ("coefficient", "penalized_rss"):
        return {}
    return {1: REL if cells[0].isdigit() else COEF_REL}  # a trace row or a coefficient row


def _table_floats(cells) -> dict:
    # family, m, k, then alpha_k (empty where undefined), lambda_k, step_cost_k
    return {3: REL, 4: REL, 5: REL} if cells[2] != "k" else {}


_SELECT = record.read_sections(record.HERE / "select.txt")
_TABLES = record.read_sections(record.HERE / "penalty-tables.txt")
_NORTH_STAR = record.read_sections(record.NORTH_STAR)


def test_check_names_the_first_file_and_line_that_differ():
    want = {"a.txt": b"1\n2\n", "b.txt": b"x\n"}
    assert record.first_difference(want, dict(want)) is None
    assert record.first_difference(want, {**want, "a.txt": b"1\n3\n"}) == (
        "a.txt, line 2:\n  committed:  '2\\n'\n  recomputed: '3\\n'")
    assert record.first_difference(want, {**want, "b.txt": b"x\ny\n"}) == (
        "b.txt, line 2:\n  committed:  ''\n  recomputed: 'y\\n'")
    assert record.first_difference(want, {"a.txt": want["a.txt"]}) == (
        "b.txt: committed, but not in the recomputed record")


def test_check_says_how_far_the_first_number_moved():
    want = {"a.txt": b"# k\t3\tmsfdr\n2.5\t0\n", "b.txt": b"x\t1e-3\n"}
    assert record.first_moved_number(want, dict(want)) is None
    # A label that differs is passed over; the number after it is reported.
    got = {**want, "a.txt": b"# k\t3\tbh\n2.5\t0.25\n", "b.txt": b"x\t0.001\n"}
    assert record.first_moved_number(want, got) == (
        "a.txt, line 2: 0 -> 0.25 (relative difference inf)")
    assert record.first_moved_number(want, {**want, "b.txt": b"x\t1.5e-3\n"}) == (
        "b.txt, line 1: 1e-3 -> 1.5e-3 (relative difference 0.5)")
    # The same value written otherwise still differs byte for byte.
    assert record.first_moved_number({"b.txt": want["b.txt"]}, {"b.txt": b"x\t0.001\n"}) == (
        "b.txt, line 1: 1e-3 -> 0.001 (relative difference 0)")
    assert record.first_moved_number(want, {**want, "b.txt": b"y\t1e-3\n"}) is None


def test_a_request_that_warns_or_logs_is_not_recorded(tmp_path):
    with pytest.raises(RuntimeError, match="^stepfdr penalty-table --method msfdr:0.6 --m 5 "
                                           "wrote to stderr: .*UserWarning: msfdr with q >= 0.5"):
        record.run_cli(["penalty-table", "--method", "msfdr:0.6", "--m", "5"])
    # A response in the span of the pool: sigma2's zero-residual log line.
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 3))
    data = tmp_path / "d.tsv"
    data.write_text("a\tb\tc\tY\n" + "".join(
        f"{a!r}\t{b!r}\t{c!r}\t{2 * a - b!r}\n" for a, b, c in X.tolist()))
    with pytest.raises(RuntimeError, match="wrote to stderr: .*numerically zero"):
        record.run_cli(["select", "--data", str(data), "--response", "Y", "--method", "aic"])


def test_record_holds_every_request():
    assert list(_SELECT) == list(record.SELECT_REQUESTS)
    assert list(_TABLES) == list(record.TABLE_METHODS)
    assert list(_NORTH_STAR) == [record.NORTH_STAR_TABLE, record.NORTH_STAR_SELECT]


@pytest.mark.parametrize("request_", record.SELECT_REQUESTS)
def test_select_report(request_):
    _assert_lines(record.select_report(request_), _SELECT[request_], _report_floats)


@pytest.mark.parametrize("method", record.TABLE_METHODS)
def test_penalty_table(method):
    _assert_lines(record.penalty_table(method), _TABLES[method], _table_floats)


def test_north_star_penalty_table():
    _assert_lines(record.run_cli(record.NORTH_STAR_TABLE.split()),
                  _NORTH_STAR[record.NORTH_STAR_TABLE], _table_floats)


def test_north_star_select(caplog):
    # "# sigma2" and the trace rows ("k", value) hold a float in column 1;
    # names, sizes and the entry order are exact. The path reaches k_max
    # and sigma2 needs no SVD fit, so nothing is logged.
    with caplog.at_level(logging.WARNING, logger="stepfdr.regress"):
        text = record.north_star_select()
    _assert_lines(text, _NORTH_STAR[record.NORTH_STAR_SELECT],
                  lambda cells: {1: REL} if cells[0] == "# sigma2" or cells[0].isdigit() else {})
    assert caplog.records == []


def test_campaign():
    grid, methods, labels = campaign_grid(record.CAMPAIGN)
    files = sorted(record.CAMPAIGN_DIR.glob("*.tsv"))
    assert sorted(f"{config.key()}.tsv" for config in grid) == [f.name for f in files]
    for config in grid:
        got = run_config(config, methods)
        want = read_outcome(record.CAMPAIGN_DIR / f"{config.key()}.tsv")
        assert got.config == want.config
        assert got.dominance_violations == want.dominance_violations
        assert _close(got.oracle_mspe, want.oracle_mspe, REL), config
        assert [mo.label for mo in got.methods] == labels == [mo.label for mo in want.methods]
        for g, w in zip(got.methods, want.methods):
            for name in ("mean_mspe", "relative_loss", "se_relative_loss"):
                assert _close(getattr(g, name), getattr(w, name), REL), (config, g.label, name)
