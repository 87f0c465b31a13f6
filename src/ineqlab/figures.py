"""Reproduction of the book's growth-and-inequality figures.

The source figures are qualitative; parameter values here are artifact
defaults chosen for visual clarity (spillover productivity 3, capital share
0.5, discount 0.1, three households starting at 1, 2, 3), set in the module
constants below rather than taken from the text. Surfaces (figA1, figA4) are
emitted as grid CSVs for external 3-D rendering; the rest are drawn as
minimal SVG line charts alongside their data CSVs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .core import (
    OLG_AUTARKY_AK,
    OLG_MARKET_AK,
    EconomyParams,
    WealthDistribution,
)
from .errors import OutOfRange
from .olg import cobweb_data, olg_mean_map, olg_simulate
from .scenario import atomic_write, csv_text, format_float
from .svgplot import line_chart

FIGURE_NAMES = ("fig1", "fig2", "figA1", "figA2", "figA3", "figA4")

_FIG12_PARAMS = EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, population=3)
_FIG12_START = (1.0, 2.0, 3.0)
_FIG12_GENERATIONS = 12

_FIG2_PARAMS = EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, population=2)
_FIG2_NARROW = (4.0, 6.0)
_FIG2_WIDE = (1.0, 9.0)

_COBWEB_PARAMS = EconomyParams(tfp=1.0, alpha=0.5, theta=0.0, population=1)


def _csv(rows, header) -> str:
    return csv_text(header, (
        [cell if isinstance(cell, str) else format_float(cell) for cell in row]
        for row in rows
    ))


def _emit(out: Path, name: str, fmt: str, csv_text: str | None,
          svg_text: str | None) -> list[Path]:
    written = []
    if csv_text is not None and fmt in ("csv", "both"):
        path = out / f"{name}.csv"
        atomic_write(path, csv_text)
        written.append(path)
    if svg_text is not None and fmt in ("svg", "both"):
        path = out / f"{name}.svg"
        atomic_write(path, svg_text)
        written.append(path)
    return written


def _fig1(out: Path, fmt: str) -> list[Path]:
    dist = WealthDistribution(np.asarray(_FIG12_START))
    runs = {tag: olg_simulate(dist, _FIG12_PARAMS, regime,
                              max_generations=_FIG12_GENERATIONS, stop_tol=0.0)
            for tag, regime in (("market", OLG_MARKET_AK), ("autarky", OLG_AUTARKY_AK))}
    header = ["t"] + [f"{tag}_h{h}" for tag in runs for h in range(3)]
    rows = [[float(i), *market, *autarky] for i, (market, autarky)
            in enumerate(zip(runs["market"].holdings, runs["autarky"].holdings))]
    series = [(f"{tag} {label}", run.times, run.holdings[:, h])
              for tag, run in runs.items() for h, label in enumerate("ABC")]
    svg = line_chart(series, title="capital per household: market vs autarky "
                                   "(spillover growth)",
                     xlabel="generation", ylabel="capital per household")
    return _emit(out, "fig1", fmt, _csv(rows, header), svg)


def _fig2(out: Path, fmt: str) -> list[Path]:
    narrow, wide = (olg_simulate(WealthDistribution(np.asarray(start)), _FIG2_PARAMS,
                                 OLG_AUTARKY_AK, max_generations=_FIG12_GENERATIONS,
                                 stop_tol=0.0) for start in (_FIG2_NARROW, _FIG2_WIDE))
    rows = [[float(i), n, w] for i, (n, w)
            in enumerate(zip(narrow.mean_holding, wide.mean_holding))]
    series = [("narrow spread", narrow.times, narrow.mean_holding),
              ("wide spread", wide.times, wide.mean_holding)]
    svg = line_chart(series, title="mean capital: equal totals, unequal spread "
                                   "(autarky, spillover growth)",
                     xlabel="generation", ylabel="mean capital")
    return _emit(out, "fig2", fmt, _csv(rows, ["t", "narrow_mean", "wide_mean"]),
                 svg)


def _surface(out: Path, name: str) -> list[Path]:
    """The figA1 (fixed technology) or figA4 (AK) surface, as CSV only."""
    grid = np.linspace(0.0, 4.0, 41)
    rows = [[K, L, K * math.sqrt(L) if name == "figA4" else math.sqrt(K * L)]
            for K in grid for L in grid]
    return _emit(out, name, "csv", _csv(rows, ["K", "L", "Y"]), None)


def _figA2(out: Path, fmt: str) -> list[Path]:
    k = np.linspace(0.0, 10.0, 201)
    y = np.sqrt(k)
    anchors = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    rows = [["curve", kk, yy] for kk, yy in zip(k, y)]
    rows += [["anchor", kk, math.sqrt(kk)] for kk in anchors]
    rows += [["chord_a", 1.0, 1.0], ["chord_a", 9.0, 3.0]]
    rows += [["chord_b", 3.0, math.sqrt(3.0)], ["chord_b", 7.0, math.sqrt(7.0)]]
    rows += [["point_c", 5.0, math.sqrt(5.0)]]
    series = [
        ("output per worker", k, y),
        ("unequal split (1,9)", [1.0, 9.0], [1.0, 3.0]),
        ("milder split (3,7)", [3.0, 7.0], [math.sqrt(3.0), math.sqrt(7.0)]),
    ]
    markers = [("marked points", anchors, np.sqrt(anchors))]
    svg = line_chart(series, title="concavity of per-worker output and "
                                   "the cost of unequal splits",
                     xlabel="capital per worker", ylabel="output per worker",
                     markers=markers)
    return _emit(out, "figA2", fmt, _csv(rows, ["series", "k", "y"]), svg)


def _figA3(out: Path, fmt: str) -> list[Path]:
    data = cobweb_data(_COBWEB_PARAMS, b_min=0.005, b_max=1.25, n_points=200)
    rows = [["map", b, m] for b, m in zip(data.levels, data.mapped)]
    rows += [["diagonal", b, b] for b in data.levels]

    def staircase(b0: float, steps: int):
        xs, ys = [b0], [0.0]
        b = b0
        for _ in range(steps):
            nxt = olg_mean_map(b, _COBWEB_PARAMS)
            xs.extend([b, nxt])
            ys.extend([nxt, nxt])
            b = nxt
        return np.asarray(xs), np.asarray(ys)

    hi_x, hi_y = staircase(1.2, 8)
    lo_x, lo_y = staircase(0.01, 8)
    rows += [["staircase_high", x, yv] for x, yv in zip(hi_x, hi_y)]
    rows += [["staircase_low", x, yv] for x, yv in zip(lo_x, lo_y)]
    series = [
        ("next-generation map", data.levels, data.mapped),
        ("45-degree line", data.levels, data.levels),
        ("path from above", hi_x, hi_y),
        ("path from below", lo_x, lo_y),
    ]
    markers = [("steady state", np.array([data.b_star]), np.array([data.b_star]))]
    svg = line_chart(series, title="bequest map converging to its steady state",
                     xlabel="bequest b(t)", ylabel="bequest b(t+1)",
                     markers=markers)
    return _emit(out, "figA3", fmt, _csv(rows, ["series", "b", "next_b"]), svg)


def figure(name: str, out_dir: str | Path = "out", fmt: str = "both") -> list[Path]:
    """Write one named figure's data (and chart) files; returns the paths."""
    if name not in FIGURE_NAMES:
        raise OutOfRange("name", f"unknown figure {name!r}; pick from {FIGURE_NAMES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if name in ("figA1", "figA4"):
        return _surface(out, name)
    draw = {"fig1": _fig1, "fig2": _fig2, "figA2": _figA2, "figA3": _figA3}
    return draw[name](out, fmt)
