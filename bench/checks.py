"""Output checks of the benchmark, made apart from the program.

Every check recomputes what it compares against from the inputs or from a
property the method must have (closed-form steady states, the law of motion,
the O(L^2) Gini formula, the M-matrix criterion), never from a stored copy of
an earlier output. A failed check raises CheckFailed with what went wrong.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

TRAJECTORY_HEADER = "t,household,holding,consumption,output,r,g,gini,cv,r_minus_g"
METRICS_HEADER = "t,gini,cv,ratio_max_min,r,g,r_minus_g"
SVG_ROOT = "{http://www.w3.org/2000/svg}svg"

#: Per-row Gini and CV must match the recomputation to this absolute error.
STAT_TOL = 1e-12
#: Household holdings must average to the ``agg`` row to this relative error.
MEAN_TOL = 1e-8
#: Central differences of the recorded capital path must match f(k) - c to
#: this share of max(|f(k)|, |c|); see README.md for the measured residuals.
PATH_TOL = 1e-4
#: Slack on band edges for the program's own rounding of the same formula.
EDGE_TOL = 1e-9
#: Largest allowed rise of the autarky-AK dispersion max|k_i / kbar - 1|.
DISPERSION_RISE_TOL = 1e-12
#: Surplus-value rate must equal 1 - wage_scale to this absolute error.
SURPLUS_TOL = 1e-12


class CheckFailed(Exception):
    """An output of the program does not meet a benchmark check."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Table:
    """The numbers of a trajectory CSV: one row per recorded time."""

    times: np.ndarray
    holding: np.ndarray  # (rows, households)
    consumption: np.ndarray  # (rows, households)
    agg_holding: np.ndarray
    agg_consumption: np.ndarray
    gini: np.ndarray
    cv: np.ndarray
    metric_lines: list  # the agg line's t, gini and cv cells, as text


def _crlf_lines(data: bytes, expected: int, header: str, what: str) -> list:
    _require(data.endswith(b"\r\n"), f"{what}: does not end with CRLF")
    ends = data.count(b"\n")
    _require(ends == expected and data.count(b"\r") == expected,
             f"{what}: {ends} line ends, expected {expected} CRLF")
    lines = data.decode("ascii").split("\r\n")[:-1]
    _require(len(lines) == expected,
             f"{what}: {len(lines)} lines, expected {expected}")
    _require(lines[0] == header, f"{what}: header {lines[0]!r}")
    return lines[1:]


def read_trajectory_csv(data: bytes, rows: int, households: int) -> Table:
    """Check the layout of ``<name>_trajectory.csv`` and return its numbers.

    Each of ``rows`` times holds one line per household, in order, then one
    ``agg`` line; the file is the header plus rows * (households + 1) lines.
    """
    step = households + 1
    body = _crlf_lines(data, rows * step + 1, TRAJECTORY_HEADER,
                       "trajectory CSV")
    times = np.empty(rows)
    holding = np.empty((rows, households))
    consumption = np.empty((rows, households))
    agg = np.empty((rows, 4))
    metric_lines = []
    for r in range(rows):
        block = body[r * step:(r + 1) * step]
        t = block[0].split(",", 1)[0]
        for h, line in enumerate(block[:-1]):
            cells = line.split(",")
            _require(len(cells) == 10 and cells[0] == t and cells[1] == str(h)
                     and cells[5:] == [""] * 5,
                     f"trajectory CSV: bad household line {line!r}")
            holding[r, h] = float(cells[2])
            consumption[r, h] = float(cells[3])
        cells = block[-1].split(",")
        _require(len(cells) == 10 and cells[0] == t and cells[1] == "agg",
                 f"trajectory CSV: bad agg line {block[-1]!r}")
        times[r] = float(t)
        agg[r] = [float(cells[2]), float(cells[3]), float(cells[7]),
                  float(cells[8])]
        metric_lines.append((cells[0], cells[7], cells[8]))
    return Table(times, holding, consumption, agg[:, 0], agg[:, 1], agg[:, 2],
                 agg[:, 3], metric_lines)


def check_metrics_csv(data: bytes, table: Table):
    """``<name>_metrics.csv``: one line per row, agreeing with the agg lines."""
    body = _crlf_lines(data, len(table.times) + 1, METRICS_HEADER,
                       "metrics CSV")
    for line, (t, gini, cv) in zip(body, table.metric_lines):
        cells = line.split(",")
        _require(len(cells) == 7 and (cells[0], cells[1], cells[2]) == (t, gini, cv),
                 f"metrics CSV: line {line!r} disagrees with the trajectory")


def check_row_stats(table: Table, rows):
    """Gini by the O(L^2) mean absolute difference, CV as the population
    standard deviation over the mean, recomputed from the holding cells."""
    for r in rows:
        x = table.holding[r]
        mean = x.mean()
        gini = np.abs(x[:, None] - x[None, :]).sum() / (2.0 * x.size ** 2 * mean)
        cv = math.sqrt(((x - mean) ** 2).mean()) / mean
        _require(abs(table.gini[r] - gini) <= STAT_TOL,
                 f"row {r}: gini {table.gini[r]!r}, recomputed {gini!r}")
        _require(abs(table.cv[r] - cv) <= STAT_TOL,
                 f"row {r}: cv {table.cv[r]!r}, recomputed {cv!r}")


def check_market_mean(table: Table):
    """Under a capital market the households average to the agg row."""
    err = np.abs(table.holding.mean(axis=1) - table.agg_holding)
    worst = float(np.max(err / np.abs(table.agg_holding)))
    _require(worst <= MEAN_TOL,
             f"household holdings miss the agg row by relative {worst:.3e}")


def ak_ray(params) -> tuple[float, float, float]:
    """(m, g, mu) of the spillover economy: m = tfp L^(1-alpha),
    g = (alpha m - theta) / gamma and the ray's c/k, mu = m - g."""
    m = params.tfp * params.population ** (1.0 - params.alpha)
    g = (params.alpha * m - params.theta) / params.gamma
    return m, g, m - g


def fixed_steady_state(params) -> tuple[float, float]:
    """k* = (alpha tfp / theta)^(1/(1-alpha)) and c* = tfp k*^alpha."""
    k_star = (params.alpha * params.tfp / params.theta) ** (1.0 / (1.0 - params.alpha))
    return k_star, params.tfp * k_star ** params.alpha


def check_ramsey_terminal(table: Table, params, market: bool, ak: bool,
                          band: float):
    """The last row lies within the terminal band of the target."""
    k, c = table.holding[-1], table.consumption[-1]
    kbar, cbar = k.mean(), c.mean()
    slack = MEAN_TOL if market else EDGE_TOL
    if ak:
        _, _, mu = ak_ray(params)
        gap = abs(cbar / kbar - mu) / mu
        _require(gap <= band + slack, f"terminal c/k misses mu by {gap:.3e}")
        if not market:
            dev = float(np.max(np.abs(k / kbar - 1.0)))
            _require(dev <= band + EDGE_TOL,
                     f"terminal max|k_i/kbar - 1| = {dev:.3e} exceeds {band}")
        return
    k_star, c_star = fixed_steady_state(params)
    k_end = np.array([kbar]) if market else k
    c_end = np.array([cbar]) if market else c
    k_gap = float(np.max(np.abs(k_end - k_star))) / k_star
    c_gap = float(np.max(np.abs(c_end - c_star))) / c_star
    _require(k_gap <= band + slack and c_gap <= band + slack,
             f"terminal state off the steady state by {k_gap:.3e} in k and "
             f"{c_gap:.3e} in c (band {band})")


def check_ramsey_path(table: Table, params, market: bool, ak: bool):
    """Central differences of capital match the law of motion dk/dt = f(k) - c.

    Under a capital market the aggregate obeys it; under autarky every
    household does, with its own output.
    """
    t = table.times
    if len(t) < 3:
        return
    if market:
        k, c = table.agg_holding[:, None], table.agg_consumption[:, None]
    else:
        k, c = table.holding, table.consumption
    if ak:
        m, _, _ = ak_ray(params)
        kbar = k.mean(axis=1, keepdims=True)
        f = m * k if market else m * kbar ** (1.0 - params.alpha) * k ** params.alpha
    else:
        f = params.tfp * k ** params.alpha
    slope = (k[2:] - k[:-2]) / (t[2:] - t[:-2])[:, None]
    drift = f[1:-1] - c[1:-1]
    scale = np.maximum(np.abs(f[1:-1]), np.abs(c[1:-1]))
    worst = float(np.max(np.abs(slope - drift) / scale))
    _require(worst <= PATH_TOL,
             f"dk/dt misses f(k) - c by {worst:.3e} of scale (tolerance {PATH_TOL})")


def check_ak_dispersion(table: Table):
    """Under autarky-AK, max|k_i / kbar - 1| never rises along the path."""
    k = table.holding
    dev = np.max(np.abs(k / k.mean(axis=1, keepdims=True) - 1.0), axis=1)
    rise = float(np.max(np.diff(dev), initial=0.0))
    _require(rise <= DISPERSION_RISE_TOL,
             f"dispersion max|k_i/kbar - 1| rises by {rise:.3e}")


def olg_steady_state(params) -> float:
    """b* = (tfp / (2 + theta))^(1/(1-alpha))."""
    return (params.tfp / (2.0 + params.theta)) ** (1.0 / (1.0 - params.alpha))


def check_olg_monotone(table: Table, params):
    """Every household moves monotonically toward b*, never past it."""
    gap = table.holding - olg_steady_state(params)
    before, after = gap[:-1], gap[1:]
    ulp = 4.0 * np.finfo(float).eps * (olg_steady_state(params) + np.abs(before))
    closer = np.abs(after) <= np.abs(before) + ulp
    same_side = (after * before >= 0.0) | (np.abs(after) <= ulp)
    ok = closer & same_side
    _require(bool(np.all(ok)),
             f"{int(np.size(ok) - np.count_nonzero(ok))} household steps "
             f"move away from or past b*")


def check_svg(data: bytes):
    """The chart parses as XML with an SVG root element."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    _require(root.tag == SVG_ROOT, f"SVG root element is {root.tag!r}")


def check_sweep(report, trials: int, n: int, seed: int):
    """A theorem sweep ran as asked and found no counterexample."""
    _require((report.trials, report.n, report.seed) == (trials, n, seed),
             f"sweep reports trials={report.trials} n={report.n} seed={report.seed}")
    _require(report.fmt_counterexamples == 0 and report.gcet_counterexamples == 0,
             f"sweep n={n} seed={seed}: {report.fmt_counterexamples} FMT and "
             f"{report.gcet_counterexamples} GCET counterexamples")


def profitable(input_matrix, labor, wage_bundle) -> bool:
    """rho(M) < 1 for M = A + b l^T, by the M-matrix criterion: I - M is
    nonsingular with an entrywise nonnegative inverse."""
    M = np.asarray(input_matrix) + np.outer(wage_bundle, labor)
    try:
        inverse = np.linalg.inv(np.eye(M.shape[0]) - M)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(inverse >= 0.0))


def check_profit_sign(econ, sign: str, surplus: float, wage_scale: float):
    """The program's profit sign and surplus rate against the oracle."""
    expected = ("positive" if profitable(econ.input_matrix, econ.labor,
                                         econ.wage_bundle) else "negative")
    _require(sign == expected,
             f"profit_sign {sign!r} at wage scale {wage_scale!r}; oracle {expected!r}")
    _require(abs(surplus - (1.0 - wage_scale)) <= SURPLUS_TOL,
             f"surplus_value_rate {surplus!r}, expected 1 - {wage_scale!r}")
