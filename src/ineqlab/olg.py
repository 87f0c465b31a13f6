"""Generation-by-generation bequest dynamics for the four OLG benchmarks.

Each generation splits its income between own consumption and a bequest
of income / (2 + theta); the bequest becomes the next generation's capital.
``olg_step`` states this law once for all four regimes. With a capital
market every household operates the pooled capital, the mean bequest, and
earns the wage plus interest on its own bequest at the common rate; under
autarky each household farms its own holding. The recorded ``mean_output``
is the output of the capital households operate, so under a market it is
the output of the mean bequest that the next bequests are paid from. The
endogenous variants replace the concave aggregate technology with the
capital spillover, turning the steady state into a balanced growth ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OLG_AUTARKY_EXOG,
    EconomyParams,
    Regime,
    SteadyState,
    Trajectory,
    WealthDistribution,
    check_population,
    validate_params,
)
from .errors import (
    NegativeBequest,
    NonPositiveInput,
    OutOfRange,
    WrongRegime,
)
from .metrics import coefficient_of_variation, gini, ratio_max_min
from .production import household_production


def olg_step(b: np.ndarray, params: EconomyParams, regime: Regime):
    """One generation on raw arrays: (next bequests, interest).

    ``b`` holds one bequest per household and is not validated. Each
    household earns its income and bequeaths income / (2 + theta). Under
    a capital market it operates the mean bequest and pays mpk (b̄ - b) for
    the capital it rents, so its income is the wage plus interest on its own
    bequest; under autarky its income is the output of its own bequest.
    """
    bbar = b.sum() / b.size
    y, mpk = household_production(b, bbar, params, regime.technology,
                                  regime.is_market)
    if regime.is_market:
        income, interest = y - mpk * (bbar - b), mpk
    else:
        income, interest = y, float(np.mean(mpk))
    nxt = income / (2.0 + params.theta)
    if np.any(nxt <= 0.0):
        raise NegativeBequest(
            "market bequest formula produced a non-positive bequest; "
            "choose a less extreme initial distribution"
        )
    return nxt, interest


def olg_steady_state(params: EconomyParams, regime: Regime) -> SteadyState:
    """Closed-form long-run target.

    Fixed technology (market or autarky alike): the bequest level where the
    map A b**alpha / (2 + theta) crosses the diagonal; interest there equals
    alpha (2 + theta). Endogenous technology: no level target exists, only a
    ray with gross growth tfp L**(1-alpha) / (2 + theta).
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
    b_star = (params.tfp / (2.0 + params.theta)) ** (1.0 / (1.0 - params.alpha))
    return SteadyState(
        holding_star=b_star,
        growth_star=0.0,
        interest_star=params.alpha * (2.0 + params.theta),
        regime=regime,
        consumption_star=(1.0 + params.theta) * b_star,
    )


def olg_simulate(dist0: WealthDistribution, params: EconomyParams, regime: Regime,
                 max_generations: int = 10000, stop_tol: float = 1e-9) -> Trajectory:
    """Iterate the generation map, recording states and diagnostics.

    Stops early once the distribution is within ``stop_tol`` of the steady
    level (fixed technology) or once relative dispersion around the mean
    falls below ``stop_tol`` (endogenous technology). Failure to converge is
    flagged on the returned trajectory, never raised; a generation whose
    holdings overflow float64 or fall below ``dist0.floor`` raises
    OutOfRange, naming that generation, and so does a ``stop_tol`` that is
    not finite and >= 0.
    """
    validate_params(params, regime)
    if not regime.is_olg:
        raise WrongRegime("olg_simulate requires an OLG regime")
    check_population(dist0, params)
    if max_generations < 1:
        raise NonPositiveInput("max_generations must be >= 1")
    if not 0.0 <= stop_tol < math.inf:
        raise OutOfRange("stop_tol",
                         f"stop_tol must be finite and >= 0, got {stop_tol!r}")

    b_star = None
    if not regime.is_endogenous:
        b_star = olg_steady_state(params, regime).holding_star

    def settled(b: np.ndarray, bbar: float) -> bool:
        if b_star is not None:
            return bool(np.max(np.abs(b - b_star)) < stop_tol)
        return bool(np.max(np.abs(b / bbar - 1.0)) < stop_tol)

    b = dist0.as_array()
    bbar = float(b.mean())
    rows_b, growth = [b], [0.0]
    converged = settled(b, bbar)
    # a growing economy can leave float64, and a shrinking one the floor;
    # each generation's mean and least holding are checked
    with np.errstate(over="ignore", invalid="ignore"):
        nxt, rate = olg_step(b, params, regime)
        # row 0 records the rate over the step from it, each later row the
        # rate of the step that produced it
        interest = [rate]
        while not converged and len(rows_b) <= max_generations:
            if len(rows_b) > 1:
                nxt, rate = olg_step(b, params, regime)
            b, previous, bbar = nxt, bbar, float(nxt.mean())
            if not math.isfinite(bbar):
                raise OutOfRange(
                    "holdings",
                    f"generation {len(rows_b)} overflows float64 (its mean "
                    f"holding is {bbar}); lower max_generations or raise "
                    "stop_tol",
                )
            if b.min() < dist0.floor:
                raise OutOfRange(
                    "holdings",
                    f"generation {len(rows_b)} falls below the positivity "
                    f"floor {dist0.floor} (its least holding is {b.min()})",
                )
            rows_b.append(b)
            interest.append(rate)
            growth.append(bbar / previous - 1.0)
            converged = settled(b, bbar)

    holdings = np.stack(rows_b)
    n = holdings.shape[0]
    mean_holding = holdings.mean(axis=1)
    # the output of the capital households operate: the mean's under a market
    mean_output = household_production(
        holdings, mean_holding[:, None], params, regime.technology,
        regime.is_market)[0].mean(axis=1)
    return Trajectory(
        times=np.arange(n, dtype=float),
        holdings=holdings,
        consumption=(1.0 + params.theta) * holdings,
        mean_holding=mean_holding,
        mean_output=mean_output,
        interest=np.asarray(interest),
        growth=np.asarray(growth),
        gini=np.array([gini(holdings[i]) for i in range(n)]),
        cv=np.array([coefficient_of_variation(holdings[i]) for i in range(n)]),
        ratio_max_min=np.array([ratio_max_min(holdings[i]) for i in range(n)]),
        regime=regime,
        converged=converged,
        savings_rate=1.0 / (2.0 + params.theta),
        note="" if converged else "did not settle within max_generations",
    )


@dataclass(frozen=True)
class CobwebData:
    """Samples of the scalar bequest map against the 45-degree line."""

    levels: np.ndarray
    mapped: np.ndarray
    diagonal: np.ndarray
    b_star: float


def olg_mean_map(b, params: EconomyParams):
    """The map b -> A b**alpha / (2 + theta) driving the mean bequest.

    ``b`` is a float or an array of bequest levels.
    """
    return params.tfp * b ** params.alpha / (2.0 + params.theta)


def cobweb_data(params: EconomyParams, b_min: float, b_max: float,
                n_points: int = 200) -> CobwebData:
    """Sample the mean-bequest map for a cobweb plot (fixed technology only)."""
    if not (0.0 < b_min < b_max):
        raise NonPositiveInput("need 0 < b_min < b_max")
    if n_points < 2:
        raise NonPositiveInput("n_points must be >= 2")
    b_star = olg_steady_state(params, OLG_AUTARKY_EXOG).holding_star
    levels = np.linspace(b_min, b_max, n_points)
    return CobwebData(levels=levels, mapped=olg_mean_map(levels, params),
                      diagonal=levels.copy(), b_star=b_star)
