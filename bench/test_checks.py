"""Each output check of the benchmark fails on a deliberately corrupted artifact.

Run from the repository root with ``python3 -m pytest bench``. These tests
are not part of the tier-1 suite under ``tests/``.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks
import workloads
from checks import CheckFailed
from ineqlab import (
    fmt_sweep,
    parse_scenario,
    profit_sign,
    random_economy,
    run_scenario,
    surplus_value_rate,
)


@dataclasses.dataclass
class Run:
    config: object
    rows: int
    csv: bytes
    metrics: bytes
    svg: bytes

    def table(self, csv=None):
        return checks.read_trajectory_csv(csv or self.csv, self.rows,
                                          self.config.params.population)


def _run(tmp_path_factory, family, market, technology, economy, dist, horizon):
    text = workloads.scenario_text("t", family, market, technology, economy,
                                    dist, horizon)
    config = parse_scenario(text)
    art = run_scenario(config, tmp_path_factory.mktemp(market))
    return Run(config, len(art.trajectory.times), art.trajectory_csv.read_bytes(),
               art.metrics_csv.read_bytes(), art.svg.read_bytes())


@pytest.fixture(scope="module")
def autarky(tmp_path_factory):
    return _run(tmp_path_factory, "ramsey", "autarky", "exogenous",
                workloads.SADDLE_ECONOMY, [20.0, 30.0], workloads.SADDLE_HORIZON)


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    return _run(tmp_path_factory, "ramsey", "market", "exogenous",
                workloads.SADDLE_ECONOMY, [20.0, 30.0, 40.0],
                workloads.SADDLE_HORIZON)


@pytest.fixture(scope="module")
def olg(tmp_path_factory):
    return _run(tmp_path_factory, "olg", "autarky", "exogenous",
                workloads.WIDE_OLG_ECONOMY, [0.5, 4.0], {"max_generations": 50})


def _edit_cell(csv: bytes, line_index: int, column: int, change) -> bytes:
    lines = csv.split(b"\r\n")
    cells = lines[line_index].split(b",")
    cells[column] = repr(change(float(cells[column]))).encode()
    lines[line_index] = b",".join(cells)
    return b"\r\n".join(lines)


def _agg_line(run: Run, row: int) -> int:
    return 1 + row * (run.config.params.population + 1) + run.config.params.population


def test_untouched_artifacts_pass(autarky, market, olg):
    for run in (autarky, market):
        table = run.table()
        checks.check_metrics_csv(run.metrics, table)
        checks.check_svg(run.svg)
        checks.check_row_stats(table, range(run.rows))
        is_market = run is market
        checks.check_ramsey_terminal(table, run.config.params, is_market, False,
                                     run.config.shooting.terminal_band)
        checks.check_ramsey_path(table, run.config.params, is_market, False)
    checks.check_market_mean(market.table())
    checks.check_olg_monotone(olg.table(), olg.config.params)


def test_gini_cell_off_by_more_than_tolerance(autarky):
    csv = _edit_cell(autarky.csv, _agg_line(autarky, 7), 7, lambda g: g + 1e-10)
    with pytest.raises(CheckFailed, match="gini"):
        checks.check_row_stats(autarky.table(csv), range(autarky.rows))


def test_cv_cell_off_by_more_than_tolerance(autarky):
    csv = _edit_cell(autarky.csv, _agg_line(autarky, 7), 8, lambda cv: cv * 1.001)
    with pytest.raises(CheckFailed, match="cv"):
        checks.check_row_stats(autarky.table(csv), range(autarky.rows))


def test_terminal_row_moved_out_of_band(autarky):
    band = autarky.config.shooting.terminal_band
    last_household = _agg_line(autarky, autarky.rows - 1) - 1
    csv = _edit_cell(autarky.csv, last_household, 2, lambda k: k * (1 + 3 * band))
    with pytest.raises(CheckFailed, match="terminal"):
        checks.check_ramsey_terminal(autarky.table(csv), autarky.config.params,
                                     False, False, band)


def test_path_off_the_law_of_motion(autarky):
    csv = _edit_cell(autarky.csv, _agg_line(autarky, 50) - 1, 2,
                     lambda k: k * (1 + 1e-3))
    with pytest.raises(CheckFailed, match="dk/dt"):
        checks.check_ramsey_path(autarky.table(csv), autarky.config.params,
                                 False, False)


def test_household_mean_off_the_agg_row(market):
    csv = _edit_cell(market.csv, 1, 2, lambda k: k * (1 + 1e-6))
    with pytest.raises(CheckFailed, match="agg row"):
        checks.check_market_mean(market.table(csv))


@pytest.mark.parametrize("cut", ["last line", "mid line"])
def test_truncated_csv(autarky, cut):
    if cut == "last line":
        csv = autarky.csv[:autarky.csv.rstrip(b"\r\n").rfind(b"\r\n") + 2]
    else:
        csv = autarky.csv[:len(autarky.csv) // 2]
    with pytest.raises(CheckFailed):
        autarky.table(csv)
    with pytest.raises(CheckFailed):
        checks.check_metrics_csv(autarky.metrics[:-40], autarky.table())


def test_bare_line_feeds(autarky):
    with pytest.raises(CheckFailed, match="CRLF"):
        autarky.table(autarky.csv.replace(b"\r\n", b"\n"))


@pytest.mark.parametrize("edit", [(b"</svg>", b""), (b"/>", b">")])
def test_unclosed_svg_element(autarky, edit):
    broken = autarky.svg.replace(*edit)
    assert broken != autarky.svg
    with pytest.raises(CheckFailed, match="SVG"):
        checks.check_svg(broken)


def test_olg_household_past_steady_state(olg):
    b_star = checks.olg_steady_state(olg.config.params)
    csv = _edit_cell(olg.csv, 1 + 3 * 3, 2, lambda b: 2 * b_star - b)
    with pytest.raises(CheckFailed, match="b\\*"):
        checks.check_olg_monotone(olg.table(csv), olg.config.params)


@pytest.mark.parametrize("wage_scale", [0.6, 1.4])
def test_sweep_result_with_flipped_sign(wage_scale):
    econ = random_economy(np.random.default_rng(0), 5, wage_scale)
    sign, surplus = profit_sign(econ), surplus_value_rate(econ)
    checks.check_profit_sign(econ, sign, surplus, wage_scale)
    flipped = {"positive": "negative", "negative": "positive"}[sign]
    with pytest.raises(CheckFailed, match="profit_sign"):
        checks.check_profit_sign(econ, flipped, surplus, wage_scale)
    with pytest.raises(CheckFailed, match="surplus"):
        checks.check_profit_sign(econ, sign, -surplus, wage_scale)


def test_sweep_with_a_counterexample():
    report = fmt_sweep(30, 3, 7)
    checks.check_sweep(report, 30, 3, 7)
    with pytest.raises(CheckFailed, match="counterexample"):
        checks.check_sweep(dataclasses.replace(report, gcet_counterexamples=1),
                           30, 3, 7)


def test_ak_dispersion_that_rises():
    holding = np.array([[1.0, 2.0], [1.2, 1.9], [1.1, 2.0]])
    table = checks.Table(np.arange(3.0), holding, holding, holding.mean(axis=1),
                         holding.mean(axis=1), np.zeros(3), np.zeros(3), [])
    checks.check_ak_dispersion(dataclasses.replace(table, holding=holding[:2]))
    with pytest.raises(CheckFailed, match="rises"):
        checks.check_ak_dispersion(table)
