"""Generation-by-generation bequest dynamics for the four OLG benchmarks.

Each generation splits its income between own consumption and a bequest
of income / (2 + theta); the bequest becomes the next generation's capital.
``olg_step`` states this law once for all four regimes. With a capital
market every household operates the pooled capital, the mean bequest, and
earns the wage plus interest on its own bequest at the common rate; under
autarky each household farms its own holding. ``olg_simulate`` keeps only
the holdings, then takes every generation's output and mean marginal
product from one ``household_production`` call. The recorded ``output`` is
that of the capital each household operates, so under a market it is one
column, the output of the mean bequest that the next bequests are paid
from. A row's ``interest`` is that of the generation that made it, and row
0's its own. The endogenous variants replace the concave aggregate
technology with the capital spillover, turning the steady state into a
balanced growth ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_STEPS,
    OLG_AUTARKY_EXOG,
    POSITIVITY_FLOOR,
    EconomyParams,
    Regime,
    SteadyState,
    Trajectory,
    WealthDistribution,
    check_population,
    float_guard,
    validate_params,
)
from .errors import OutOfRange, WrongRegime
# bench/spans.py wraps gini, coefficient_of_variation and ratio_max_min here
from .metrics import coefficient_of_variation, gini, ratio_max_min, record_trajectory
from .production import household_production


def olg_step(b: np.ndarray, params: EconomyParams, regime: Regime) -> np.ndarray:
    """One generation on raw arrays: the next bequests.

    ``b`` holds one bequest per household and is not validated. Each
    household earns its income and bequeaths income / (2 + theta). Under
    a capital market it operates the mean bequest and pays mpk (b̄ - b) for
    the capital it rents, so its income is the wage plus interest on its own
    bequest; under autarky its income is the output of its own bequest.
    """
    bbar = b.sum() / b.size
    y, mpk = household_production(b, bbar, params, regime.technology,
                                  regime.is_market)
    income = y - mpk * (bbar - b) if regime.is_market else y
    return income / (2.0 + params.theta)


@float_guard
def olg_steady_state(params: EconomyParams, regime: Regime) -> SteadyState:
    """Closed-form long-run target.

    Fixed technology (market or autarky alike): the bequest level where the
    map A b**alpha / (2 + theta) crosses the diagonal; interest there equals
    alpha (2 + theta). Endogenous technology: no level target exists, only a
    ray with gross growth tfp L**(1-alpha) / (2 + theta). A ratio
    tfp / (2 + theta) that puts b* or c* outside (0, inf) in float64 is
    OutOfRange("params").
    """
    validate_params(params, regime)
    if not regime.is_olg:
        raise WrongRegime("olg_steady_state requires an OLG regime")
    if regime.is_endogenous:
        m = params.ak_scale()
        growth = m / (2.0 + params.theta) - 1.0
        return SteadyState(
            holding_star=None,
            growth_star=growth,
            interest_star=params.alpha * m,
            regime=regime,
        )
    ratio = params.tfp / (2.0 + params.theta)
    b_star = ratio ** (1.0 / (1.0 - params.alpha))
    c_star = (1.0 + params.theta) * b_star
    if not (0.0 < b_star < math.inf and 0.0 < c_star < math.inf):
        raise OutOfRange("params", f"tfp/(2+theta)={ratio!r} puts b*={b_star!r} "
                                   f"or c*={c_star!r} outside (0, inf)")
    return SteadyState(
        holding_star=b_star,
        growth_star=0.0,
        interest_star=params.alpha * (2.0 + params.theta),
        regime=regime,
        consumption_star=c_star,
    )


def check_horizon(max_generations: int, stop_tol: float):
    """The bounds of an OLG run: ``max_generations`` in [1, MAX_STEPS] and
    ``stop_tol`` finite and >= 0, or OutOfRange names the field."""
    if not 1 <= max_generations <= MAX_STEPS:
        raise OutOfRange("max_generations", f"max_generations must lie in "
                                            f"[1, {MAX_STEPS}], got {max_generations!r}")
    if not 0.0 <= stop_tol < math.inf:
        raise OutOfRange("stop_tol", f"stop_tol must be finite and >= 0, got {stop_tol!r}")


@float_guard
def olg_simulate(dist0: WealthDistribution, params: EconomyParams, regime: Regime,
                 max_generations: int = 10000, stop_tol: float = 1e-9) -> Trajectory:
    """Iterate the generation map, recording states and diagnostics.

    Stops early once the distribution is within ``stop_tol`` of the steady
    level (fixed technology) or once relative dispersion around the mean
    falls below ``stop_tol`` (endogenous technology). Failure to converge is
    flagged on the returned trajectory, never raised. The start row is
    checked as holdings; a later generation whose holdings leave float64 or
    fall below ``POSITIVITY_FLOOR`` was made by the parameters, so it raises
    OutOfRange("params"), naming that generation and quoting them, as any
    other float fault does. ``check_horizon`` bounds ``max_generations`` and
    ``stop_tol``.
    """
    validate_params(params, regime)
    if not regime.is_olg:
        raise WrongRegime("olg_simulate requires an OLG regime")
    check_population(dist0, params)
    check_horizon(max_generations, stop_tol)

    b_star = (None if regime.is_endogenous
              else olg_steady_state(params, regime).holding_star)

    def settled(b: np.ndarray, bbar: float) -> bool:
        if b_star is not None:
            return bool(np.max(np.abs(b - b_star)) < stop_tol)
        return bool(np.max(np.abs(b / bbar - 1.0)) < stop_tol)

    b = dist0.as_array()
    rows = [b]
    converged = settled(b, float(b.mean()))
    # a growing economy can leave float64, and a shrinking one the floor;
    # each generation's mean and least holding are checked
    with np.errstate(over="ignore", invalid="ignore"):
        while not converged and len(rows) <= max_generations:
            b = olg_step(b, params, regime)
            bbar = float(b.mean())
            if not math.isfinite(bbar):
                raise OutOfRange("params", f"generation {len(rows)} leaves float64; "
                                 f"lower max_generations or raise stop_tol ({params})")
            if b.min() < POSITIVITY_FLOOR:
                raise OutOfRange("params", f"generation {len(rows)} falls below the "
                                 f"positivity floor {POSITIVITY_FLOOR} (its least "
                                 f"holding is {b.min()}; {params})")
            rows.append(b)
            converged = settled(b, bbar)

    holdings = np.stack(rows)
    mean = holdings.mean(axis=1)
    y, mpk = household_production(holdings, mean[:, None], params,
                                  regime.technology, regime.is_market)
    r = np.broadcast_to(mpk, y.shape).mean(axis=1)
    # row 0 records the rate over the step from it, each later row the rate
    # of the step that made it
    return record_trajectory(
        np.arange(len(rows), dtype=float), holdings, (1.0 + params.theta) * holdings,
        y, np.r_[r[:1], r[:-1]], np.r_[0.0, mean[1:] / mean[:-1] - 1.0], regime,
        converged=converged,
        note="" if converged else "did not settle within max_generations")


@dataclass(frozen=True)
class CobwebData:
    """Samples of the scalar bequest map; ``levels`` is the diagonal."""

    levels: np.ndarray
    mapped: np.ndarray
    b_star: float


def olg_mean_map(b, params: EconomyParams):
    """The map b -> A b**alpha / (2 + theta) driving the mean bequest.

    ``b`` is a float or an array of bequest levels.
    """
    return params.tfp * b ** params.alpha / (2.0 + params.theta)


def cobweb_data(params: EconomyParams, b_min: float, b_max: float,
                n_points: int = 200) -> CobwebData:
    """Sample the mean-bequest map for a cobweb plot (fixed technology only).

    A range out of order is OutOfRange("b_min").
    """
    for field, value in (("b_min", b_min), ("b_max", b_max)):
        if not 0.0 < value < math.inf:
            raise OutOfRange(field, f"{field} must be finite and > 0, got {value!r}")
    if not b_min < b_max:
        raise OutOfRange("b_min", f"b_min {b_min!r} must lie below b_max {b_max!r}")
    if not 2 <= n_points <= MAX_STEPS:
        raise OutOfRange("n_points", f"n_points must lie in [2, {MAX_STEPS}], "
                                     f"got {n_points!r}")
    b_star = olg_steady_state(params, OLG_AUTARKY_EXOG).holding_star
    levels = np.linspace(b_min, b_max, n_points)
    return CobwebData(levels=levels, mapped=olg_mean_map(levels, params),
                      b_star=b_star)
