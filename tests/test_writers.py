"""Artifact writers: the bulk CSV and SVG writers against per-cell oracles.

The oracles below format one cell (or one point) at a time through numpy
scalars, as the writers once did. The writers must give exactly their text.
"""

import dataclasses
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ineqlab import (
    OLG_AUTARKY_EXOG,
    OLG_MARKET_AK,
    RAMSEY_AUTARKY_AK,
    RAMSEY_AUTARKY_EXOG,
    RAMSEY_MARKET_AK,
    RAMSEY_MARKET_EXOG,
    EconomyParams,
    ShootingConfig,
    WealthDistribution,
    olg_simulate,
    shoot_saddle_path,
)
from ineqlab import scenario
from ineqlab.errors import OutOfRange
from ineqlab.scenario import (
    METRICS_COLUMNS,
    SHARED_COLUMNS,
    TRAJECTORY_COLUMNS,
    ScenarioConfig,
    atomic_write,
    csv_text,
    format_float,
    metrics_csv_text,
    parse_scenario,
    run_scenario,
    shared_texts,
    summary_text,
    trajectory_csv_text,
)
from ineqlab.svgplot import (
    _H, _MB, _ML, _MR, _MT, _W, PALETTE, _num, _text, _ticks, line_chart,
)


def _oracle_output(traj, params, regime):
    K = traj.holdings
    alpha = params.alpha
    if regime.is_market:
        if regime.is_endogenous:
            y = params.ak_scale() * traj.mean_holding
        else:
            y = params.tfp * traj.mean_holding ** alpha
        return np.repeat(y[:, None], K.shape[1], axis=1)
    if regime.is_endogenous:
        m = params.ak_scale()
        return m * traj.mean_holding[:, None] ** (1.0 - alpha) * K ** alpha
    return params.tfp * K ** alpha


def oracle_trajectory_csv(traj, params, regime):
    y = _oracle_output(traj, params, regime)
    rows = [",".join(TRAJECTORY_COLUMNS)]
    for i in range(len(traj)):
        t = format_float(traj.times[i])
        for h in range(traj.population):
            rows.append(",".join([
                t, str(h), format_float(traj.holdings[i, h]),
                format_float(traj.consumption[i, h]), format_float(y[i, h]),
                "", "", "", "", "",
            ]))
        rows.append(",".join([
            t, "agg", format_float(traj.mean_holding[i]),
            format_float(traj.consumption[i].mean()),
            format_float(traj.mean_output[i]), format_float(traj.interest[i]),
            format_float(traj.growth[i]), format_float(traj.gini[i]),
            format_float(traj.cv[i]),
            format_float(traj.interest[i] - traj.growth[i]),
        ]))
    return "\r\n".join(rows) + "\r\n"


def oracle_metrics_csv(traj):
    rows = [",".join(METRICS_COLUMNS)]
    for i in range(len(traj)):
        rows.append(",".join([
            format_float(traj.times[i]), format_float(traj.gini[i]),
            format_float(traj.cv[i]), format_float(traj.ratio_max_min[i]),
            format_float(traj.interest[i]), format_float(traj.growth[i]),
            format_float(traj.interest[i] - traj.growth[i]),
        ]))
    return "\r\n".join(rows) + "\r\n"


SADDLE = EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0, population=1)
SADDLE_SHOOTING = ShootingConfig(horizon=175.0, dt=0.5, terminal_band=1e-3)
AK = EconomyParams(tfp=0.5, alpha=0.5, theta=0.05, gamma=2.0, population=2)
OLG_AK = EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, population=3)
OLG_EXOG = EconomyParams(tfp=1.0, alpha=0.5, theta=0.0, population=4)


def _ramsey(params, regime, holdings, config=SADDLE_SHOOTING):
    params = dataclasses.replace(params, population=len(holdings))
    return params, regime, shoot_saddle_path(
        WealthDistribution(holdings), params, regime, config)


def _olg(params, regime, holdings):
    return params, regime, olg_simulate(
        WealthDistribution(holdings), params, regime, max_generations=30)


CASES = {
    "ramsey-market-exog-1": lambda: _ramsey(SADDLE, RAMSEY_MARKET_EXOG, [12.0]),
    "ramsey-market-exog-2": lambda: _ramsey(
        SADDLE, RAMSEY_MARKET_EXOG, [8.0, 40.0]),
    "ramsey-market-exog-50": lambda: _ramsey(
        SADDLE, RAMSEY_MARKET_EXOG, np.linspace(5.0, 60.0, 50)),
    "ramsey-market-ak-2": lambda: _ramsey(
        EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, gamma=2.0),
        RAMSEY_MARKET_AK, [1.0, 2.0], ShootingConfig(dt=0.05)),
    "ramsey-autarky-exog": lambda: _ramsey(
        SADDLE, RAMSEY_AUTARKY_EXOG, [5.0, 60.0]),
    "ramsey-autarky-ak": lambda: _ramsey(
        AK, RAMSEY_AUTARKY_AK, [1.0, 2.0],
        ShootingConfig(dt=0.1, terminal_band=5e-3)),
    "olg-market-ak": lambda: _olg(OLG_AK, OLG_MARKET_AK, [1.0, 2.0, 3.0]),
    "olg-autarky-exog": lambda: _olg(
        OLG_EXOG, OLG_AUTARKY_EXOG, [0.01, 0.3, 1.0, 2.0]),
}


def _first_rows(traj, n):
    """``traj`` cut to its first ``n`` time steps."""
    return dataclasses.replace(traj, **{
        f.name: getattr(traj, f.name)[:n] for f in dataclasses.fields(traj)
        if isinstance(getattr(traj, f.name), np.ndarray)
    })


def _other_layouts(traj):
    """``traj`` with column-major holdings and column-major or strided
    consumption. Those give a naive mean over axis 1 another summation
    order; the text must not depend on layout."""
    wide_c = np.repeat(traj.consumption, 2, axis=1)
    return [dataclasses.replace(traj, consumption=consumption,
                                holdings=np.asfortranarray(traj.holdings))
            for consumption in (np.asfortranarray(traj.consumption),
                                wide_c[:, ::2])]


class TestCsvWriters:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_recorded_output_matches_the_oracle(self, case):
        # the writer formats traj.output; one column under a market
        params, regime, traj = CASES[case]()
        expected = _oracle_output(traj, params, regime)
        columns = 1 if regime.is_market else traj.population
        assert traj.output.shape == (len(traj), columns)
        assert (np.broadcast_to(traj.output, expected.shape).tobytes()
                == expected.tobytes())

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_match_per_cell_oracle(self, case):
        params, regime, traj = CASES[case]()
        assert len(traj) > 1
        assert (trajectory_csv_text(traj, shared_texts(traj))
                == oracle_trajectory_csv(traj, params, regime))
        assert metrics_csv_text(traj, shared_texts(traj)) == oracle_metrics_csv(traj)

    @pytest.mark.parametrize("case", ["ramsey-market-exog-2", "olg-market-ak"])
    def test_one_row_trajectory(self, case):
        params, regime, traj = CASES[case]()
        one = _first_rows(traj, 1)
        assert len(one) == 1
        text = trajectory_csv_text(one, shared_texts(one))
        assert text == oracle_trajectory_csv(one, params, regime)
        assert text.count("\r\n") == 1 + one.population + 1
        assert metrics_csv_text(one, shared_texts(one)) == oracle_metrics_csv(one)

    def test_any_array_layout(self):
        params, regime, traj = CASES["ramsey-market-exog-50"]()
        for other in _other_layouts(traj):
            assert np.array_equal(other.consumption, traj.consumption)
            assert (trajectory_csv_text(other, shared_texts(other))
                    == oracle_trajectory_csv(traj, params, regime))

    def test_csv_text_joins_with_crlf(self):
        assert csv_text(["a", "b"], []) == "a,b\r\n"
        assert csv_text(("a", "b"), iter([("1", ""), ["x", "2.5"]])) == (
            "a,b\r\n1,\r\nx,2.5\r\n")


class TestTrajectoryBlocks:
    """The trajectory writer at block sizes small enough that blocks end
    inside every case; ramsey-market-exog-50 has more households than any
    of these blocks holds cells."""

    @pytest.fixture(params=[1, 2, 3, 7], autouse=True)
    def block_cells(self, request, monkeypatch):
        monkeypatch.setattr(scenario, "_BLOCK_CELLS", request.param)
        return request.param

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_match_per_cell_oracle(self, case):
        params, regime, traj = CASES[case]()
        assert (trajectory_csv_text(traj, shared_texts(traj))
                == oracle_trajectory_csv(traj, params, regime))

    @pytest.mark.parametrize("case", ["ramsey-market-exog-2", "olg-market-ak"])
    def test_one_row_trajectory(self, case):
        params, regime, traj = CASES[case]()
        one = _first_rows(traj, 1)
        assert (trajectory_csv_text(one, shared_texts(one))
                == oracle_trajectory_csv(one, params, regime))

    def test_any_array_layout(self, block_cells):
        params, regime, traj = CASES["ramsey-market-exog-50"]()
        assert traj.population > block_cells
        for other in _other_layouts(traj):
            assert (trajectory_csv_text(other, shared_texts(other))
                    == oracle_trajectory_csv(traj, params, regime))


@pytest.mark.parametrize("case, block_cells", [
    ("ramsey-market-exog-1", 2), ("ramsey-market-exog-1", 3),
    ("ramsey-market-exog-1", 7), ("ramsey-market-exog-2", 7),
    ("olg-market-ak", 7),
])
def test_last_block_partial(case, block_cells, monkeypatch):
    # blocks of several time steps, the trajectory cut so the last is short
    monkeypatch.setattr(scenario, "_BLOCK_CELLS", block_cells)
    params, regime, traj = CASES[case]()
    per_block = block_cells // traj.population
    assert per_block > 1
    part = _first_rows(traj, 2 * per_block + 1)
    assert len(part) % per_block != 0
    assert (trajectory_csv_text(part, shared_texts(part))
            == oracle_trajectory_csv(part, params, regime))


def test_trajectory_text_peaks_near_its_length():
    # 1000 market households: the writer holds the text and the blocks it
    # is joined from; every line and a copy of the text held as well would
    # peak near 3.75 times its length
    params = dataclasses.replace(SADDLE, population=1000)
    traj = shoot_saddle_path(
        WealthDistribution(np.linspace(5.0, 60.0, 1000)), params,
        RAMSEY_MARKET_EXOG, ShootingConfig(dt=2.0, terminal_band=1e-2))
    tracemalloc.start()
    try:
        text = trajectory_csv_text(traj, shared_texts(traj))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 1_000_000
    assert peak <= 2.5 * len(text)


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _bundled(stem):
    return parse_scenario((SCENARIO_DIR / f"{stem}.scn").read_text(encoding="utf-8"))


def _config(name, params, regime, holdings, shooting=ShootingConfig()):
    return ScenarioConfig(
        name=name, regime=regime,
        params=dataclasses.replace(params, population=len(holdings)),
        initial_distribution=tuple(float(h) for h in holdings),
        max_generations=30, shooting=shooting)


#: Every bundled scenario and three inline runs, as scenario configs.
RUNS = {
    **{p.stem: (lambda stem=p.stem: _bundled(stem))
       for p in SCENARIO_DIR.glob("*.scn")},
    "market-exog-seeded": lambda: _config(
        "market-exog-seeded", SADDLE, RAMSEY_MARKET_EXOG,
        np.random.default_rng(2201).uniform(5.0, 60.0, 4), SADDLE_SHOOTING),
    "autarky-ak": lambda: _config(
        "autarky-ak", AK, RAMSEY_AUTARKY_AK, [1.0, 2.0],
        ShootingConfig(dt=0.1, terminal_band=5e-3)),
    "olg-autarky-exog": lambda: _config(
        "olg-autarky-exog", OLG_EXOG, OLG_AUTARKY_EXOG, [0.01, 0.3, 1.0, 2.0]),
}


def _csv_rows(path):
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\r\n")
    return [line.split(",") for line in text[:-2].split("\r\n")]


class TestSharedTexts:
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_metrics_rows_repeat_the_agg_cells(self, run, tmp_path):
        config = RUNS[run]()
        art = run_scenario(config, tmp_path, "csv")
        traj = art.trajectory
        assert (art.trajectory_csv.read_bytes().decode("utf-8")
                == oracle_trajectory_csv(traj, config.params, config.regime))
        assert (art.metrics_csv.read_bytes().decode("utf-8")
                == oracle_metrics_csv(traj))
        agg = [row for row in _csv_rows(art.trajectory_csv)[1:]
               if row[1] == "agg"]
        metrics = _csv_rows(art.metrics_csv)[1:]
        assert len(agg) == len(metrics) == len(traj) > 1
        for column in SHARED_COLUMNS:
            at_agg = TRAJECTORY_COLUMNS.index(column)
            at_metrics = METRICS_COLUMNS.index(column)
            assert ([row[at_agg] for row in agg]
                    == [row[at_metrics] for row in metrics])

    @pytest.mark.parametrize("config, population, per_step", [
        # autarky: holding, consumption and output per household, then the
        # six shared columns, the three means and ratio_max_min
        (lambda: _bundled("ramsey_autarky_saddle"), 2, lambda L: 3 * L + 10),
        # a market: one output per step, which the agg line formats again
        (lambda: _config("market", SADDLE, RAMSEY_MARKET_EXOG,
                         [5.0, 12.0, 30.0, 60.0], SADDLE_SHOOTING),
         4, lambda L: 2 * L + 11),
    ], ids=["autarky", "market"])
    def test_each_value_is_formatted_once(self, config, population, per_step,
                                          tmp_path, monkeypatch):
        config = config()
        floats = []

        def counting_repr(x):
            if isinstance(x, float):
                floats.append(x)
            return repr(x)

        monkeypatch.setattr(scenario, "repr", counting_repr, raising=False)
        art = run_scenario(config, tmp_path, "csv")
        made = len(floats)
        floats.clear()
        summary_text(config, art.steady, art.trajectory)
        traj = art.trajectory
        assert traj.population == population
        assert made - len(floats) == len(traj) * per_step(population)

    def test_csv_phase_holds_only_the_shared_texts(self):
        # the 3025-row saddle, 0.97 M characters of trajectory text: the
        # six shared lists of 3025 texts (1.4 MB) and the trajectory text
        # with its blocks peak near 3.5 times its length; the texts of all
        # ten aggregate columns held through it would peak near 4.4 times
        config = _bundled("ramsey_autarky_saddle")
        traj = shoot_saddle_path(
            WealthDistribution(np.asarray(config.initial_distribution)),
            config.params, config.regime, config.shooting)
        assert len(traj) == 3025
        tracemalloc.start()
        try:
            texts = shared_texts(traj)
            length = len(trajectory_csv_text(traj, texts))
            metrics_csv_text(traj, texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert length > 900_000
        assert peak <= 3.75 * length


def test_atomic_write_in_slices(tmp_path, monkeypatch):
    monkeypatch.setattr(scenario, "_WRITE_CHARS", 16)
    # a 4-byte and a 3-byte character on either side of every slice edge
    period = "\u20ac" + "a\r\nb" * 3 + "c\n" + "\U0001f600"
    assert len(period) == scenario._WRITE_CHARS
    text = period * 4 + "tail"
    path = tmp_path / "out.csv"
    old_umask = os.umask(0o027)
    try:
        atomic_write(path, text)
    finally:
        os.umask(old_umask)
    assert path.read_bytes() == text.encode("utf-8")
    assert path.stat().st_mode & 0o777 == 0o666 & ~0o027
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def oracle_line_chart(series, title="", xlabel="", ylabel="", markers=None):
    """line_chart as it was written point by point."""
    series = [(str(lbl), np.asarray(xs, float), np.asarray(ys, float))
              for lbl, xs, ys in series]
    markers = [(str(lbl), np.asarray(xs, float), np.asarray(ys, float))
               for lbl, xs, ys in (markers or [])]
    all_x = np.concatenate([xs for _, xs, _ in series + markers])
    all_y = np.concatenate([ys for _, _, ys in series + markers])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_text(title)}</text>')
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="black" stroke-width="1"/>')
    parts.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        f'stroke="black" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{_num(sx(tx))}" y1="{_H - _MB}" x2="{_num(sx(tx))}" '
            f'y2="{_H - _MB + 4}" stroke="black" stroke-width="1"/>')
        parts.append(
            f'<text x="{_num(sx(tx))}" y="{_H - _MB + 17}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_num(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 4}" y1="{_num(sy(ty))}" x2="{_ML}" '
            f'y2="{_num(sy(ty))}" stroke="black" stroke-width="1"/>')
        parts.append(
            f'<text x="{_ML - 7}" y="{_num(sy(ty) + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_num(ty)}</text>')
    if xlabel:
        parts.append(
            f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_text(xlabel)}</text>')
    if ylabel:
        parts.append(
            f'<text x="16" y="{_H // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_H // 2})">{_text(ylabel)}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{float(sx(x)):.6g},{float(sy(y)):.6g}"
                          for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>')
        ly = _MT + 14 * idx
        parts.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly}" x2="{_W - _MR - 98}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{_W - _MR - 92}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="10">{_text(label)}</text>')
    for idx, (label, xs, ys) in enumerate(markers):
        color = PALETTE[(idx + len(series)) % len(PALETTE)]
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle cx="{float(sx(x)):.6g}" cy="{float(sy(y)):.6g}" '
                f'r="3" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _chart_cases():
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 37.5, 76)
    paths = np.cumsum(rng.normal(size=(76, 12)), axis=0) + 20.0
    shared = [(f"household {h}", times, paths[:, h]) for h in range(12)]
    shared.append(("mean", times, paths.mean(axis=1)))
    equal_copies = [(f"copy {h}", times.copy(), paths[:, h]) for h in range(4)]
    different = [
        ("coarse", times[::5], paths[::5, 0]),
        ("fine", times, paths[:, 0]),
        ("list", [1.0, 9.0], [1.0, 3.0]),
        ("ints", np.arange(10), np.arange(10) ** 2),
        ("same length, other values", times + 0.25, paths[:, 1]),
    ]
    dots = [("steady", np.array([12.5]), np.array([21.0])),
            ("on shared x", times[::15], paths[::15, 2])]
    return {
        "shared times": (shared, None),
        "equal x, other objects": (equal_copies, None),
        "different x": (different, None),
        "markers": (different[:2], dots),
        "markers only": ([], dots),
        "one point": ([("p", [3.0], [4.0])], None),
        "empty series beside others": ([("none", [], []), *different[:1]], None),
    }


class TestLineChart:
    @pytest.mark.parametrize("case", sorted(_chart_cases()))
    def test_matches_per_point_oracle(self, case):
        series, markers = _chart_cases()[case]
        kwargs = dict(title="a&b <c>", xlabel="time", ylabel="holding",
                      markers=markers)
        assert (line_chart(series, **kwargs)
                == oracle_line_chart(series, **kwargs))

    @pytest.mark.parametrize("series, markers", [
        ([], None),
        ([("empty", [], [])], None),
        ([("empty", [], [])], [("no dots", [], [])]),
        ([("x only", [1.0, 2.0], [])], None),
    ])
    def test_no_point_is_out_of_range(self, series, markers):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="at least one point"):
                line_chart(series, markers=markers)

    @pytest.mark.parametrize("xs, ys", [
        ([0.0, 1.0, 2.0], [1.0, 2.0]),
        ([0.0, 1.0], [1.0, 2.0, 3.0]),
    ])
    def test_length_mismatch_is_out_of_range(self, xs, ys):
        with pytest.raises(OutOfRange, match="x values but"):
            line_chart([("s", xs, ys)])
        with pytest.raises(OutOfRange, match="x values but"):
            line_chart([("ok", [0.0, 1.0], [1.0, 2.0])], markers=[("m", xs, ys)])

    @pytest.mark.parametrize("xs, ys", [
        ([0.0, 1.0], [1.0, np.inf]),
        ([0.0, np.inf], [1.0, 2.0]),
        ([0.0, 1.0], [np.nan, 2.0]),
        ([0.0, 1.0], [-np.inf, 2.0]),
        ([-1e308, 1e308], [1.0, 2.0]),
        ([0.0, 1.0], [-1.7e308, 1.7e308]),
    ])
    def test_non_finite_is_out_of_range(self, xs, ys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="finite|float64"):
                line_chart([("s", xs, ys)])
            with pytest.raises(OutOfRange):
                line_chart([("ok", [0.0, 1.0], [1.0, 2.0])],
                           markers=[("m", xs, ys)])
