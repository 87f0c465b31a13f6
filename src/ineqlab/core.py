"""Shared domain types: parameters, regime taxonomy, distributions, paths.

All types here are immutable value objects; they can be shared freely across
threads or processes. Each bound is checked once, by its owner: the
parameters and the conditions that depend on the regime by
:func:`validate_params`, the holdings by :class:`WealthDistribution`.
A float fault inside a solver entry point is named once, by
:func:`float_guard`, as OutOfRange("params").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import OutOfRange

#: Smallest admissible holding. Log/CRRA utility is undefined at zero wealth,
#: so every distribution entry must stay at or above this floor.
POSITIVITY_FLOOR = 1e-12

#: Most Ramsey dt steps, OLG generations or cobweb points one run may ask for.
MAX_STEPS = 10**6


class Family(Enum):
    OLG = "olg"
    RAMSEY = "ramsey"


class Market(Enum):
    CAPITAL_MARKET = "market"
    AUTARKY = "autarky"


class Technology(Enum):
    EXOGENOUS = "exogenous"
    ENDOGENOUS_AK = "endogenous_ak"


@dataclass(frozen=True)
class Regime:
    """One of the eight benchmark economies.

    Three binary axes: household family (overlapping generations vs. infinite
    dynasties), capital market (present vs. autarky), and technology (fixed
    productivity vs. aggregate-capital spillover).
    """

    family: Family
    market: Market
    technology: Technology

    @property
    def is_olg(self) -> bool:
        return self.family is Family.OLG

    @property
    def is_market(self) -> bool:
        return self.market is Market.CAPITAL_MARKET

    @property
    def is_endogenous(self) -> bool:
        return self.technology is Technology.ENDOGENOUS_AK

    def case_label(self) -> str:
        """Short tag like ``(1)`` or ``(4)'`` identifying the benchmark."""
        if self.is_olg:
            base = 1 if self.is_market else 2
        else:
            base = 3 if self.is_market else 4
        return f"({base})'" if self.is_endogenous else f"({base})"


# The eight regimes, by their customary case tags.
OLG_MARKET_EXOG = Regime(Family.OLG, Market.CAPITAL_MARKET, Technology.EXOGENOUS)
OLG_AUTARKY_EXOG = Regime(Family.OLG, Market.AUTARKY, Technology.EXOGENOUS)
RAMSEY_MARKET_EXOG = Regime(Family.RAMSEY, Market.CAPITAL_MARKET, Technology.EXOGENOUS)
RAMSEY_AUTARKY_EXOG = Regime(Family.RAMSEY, Market.AUTARKY, Technology.EXOGENOUS)
OLG_MARKET_AK = Regime(Family.OLG, Market.CAPITAL_MARKET, Technology.ENDOGENOUS_AK)
OLG_AUTARKY_AK = Regime(Family.OLG, Market.AUTARKY, Technology.ENDOGENOUS_AK)
RAMSEY_MARKET_AK = Regime(Family.RAMSEY, Market.CAPITAL_MARKET, Technology.ENDOGENOUS_AK)
RAMSEY_AUTARKY_AK = Regime(Family.RAMSEY, Market.AUTARKY, Technology.ENDOGENOUS_AK)

ALL_REGIMES = (
    OLG_MARKET_EXOG,
    OLG_AUTARKY_EXOG,
    RAMSEY_MARKET_EXOG,
    RAMSEY_AUTARKY_EXOG,
    OLG_MARKET_AK,
    OLG_AUTARKY_AK,
    RAMSEY_MARKET_AK,
    RAMSEY_AUTARKY_AK,
)


@dataclass(frozen=True)
class EconomyParams:
    """Technology and preference parameters.

    ``tfp`` is total factor productivity (the spillover-adjusted level under
    endogenous technology). ``alpha`` is the capital share, ``theta`` the
    subjective discount rate, ``gamma`` relative risk aversion (used by the
    dynasty models only; generation models use log utility throughout), and
    ``population`` the number of households, each supplying one unit of labor.
    """

    tfp: float
    alpha: float
    theta: float
    gamma: float = 1.0
    population: int = 1

    def ak_scale(self) -> float:
        """Spillover productivity per unit capital: tfp * L**(1 - alpha)."""
        return self.tfp * float(self.population) ** (1.0 - self.alpha)


def validate_params(params: EconomyParams, regime: Regime) -> EconomyParams:
    """Check all parameter bounds plus regime-conditional growth conditions.

    A fixed-technology dynasty needs theta > 0, or its target capital
    diverges. Under AK technology the generation models need tfp > 2 +
    theta. The dynasty models need, with r = alpha * tfp * L**(1 - alpha)
    the interest rate and g = (r - theta) / gamma the balanced growth rate,
    both g > 0 (positive balanced growth) and r > g (transversality, i.e.
    theta + (gamma - 1) * g > 0). A violated bound raises OutOfRange naming
    its field, and a violated growth condition OutOfRange("params").
    ``parse_scenario`` calls this function, so a scenario that breaks any
    of these conditions is rejected when it is parsed, not when it is
    solved.

    Returns the object unchanged when every invariant holds; idempotent.
    """
    if not (params.tfp > 0.0) or not math.isfinite(params.tfp):
        raise OutOfRange("tfp", "tfp must be a positive finite real")
    if not (0.0 < params.alpha < 1.0):
        raise OutOfRange("alpha", "alpha must lie strictly inside (0, 1)")
    if not (params.theta >= 0.0) or not math.isfinite(params.theta):
        raise OutOfRange("theta", "theta must be a nonnegative finite real")
    if not (params.gamma > 0.0) or not math.isfinite(params.gamma):
        raise OutOfRange("gamma", "gamma must be a positive finite real")
    if not isinstance(params.population, (int, np.integer)) or params.population < 1:
        raise OutOfRange("population", "population must be an integer >= 1")

    if not (regime.is_olg or regime.is_endogenous or params.theta > 0.0):
        raise OutOfRange("theta", "a fixed-technology dynasty needs theta > 0")
    if regime.is_endogenous:
        if regime.is_olg and not (params.tfp > 2.0 + params.theta):
            raise OutOfRange("params", f"sustained growth needs tfp > 2 + theta; "
                             f"got tfp={params.tfp}, theta={params.theta}")
        if not regime.is_olg:
            # Dynasty counterpart: positive balanced growth and an interest
            # rate exceeding it, otherwise no admissible balanced path exists.
            m = params.ak_scale()
            growth = (params.alpha * m - params.theta) / params.gamma
            if not (growth > 0.0):
                raise OutOfRange(
                    "params", "balanced growth needs alpha*tfp*L**(1-alpha) > theta; "
                    f"got {params.alpha * m} <= {params.theta}")
            if not (params.alpha * m > growth):
                raise OutOfRange(
                    "params", "interest must exceed balanced growth "
                    f"(theta + (gamma-1)*g = {params.theta + (params.gamma - 1.0) * growth} <= 0)")
    return params


def float_guard(solver):
    """``solver`` with every overflow, invalid operation or division by zero,
    numpy's or Python's, raised as OutOfRange("params"), quoting the
    parameters and the original error. A solver that tests a trial step for
    faults keeps its own ``np.errstate`` around it."""
    @functools.wraps(solver)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return solver(*args, **kwargs)
        except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
            params = next(arg for arg in (*args, *kwargs.values())
                          if isinstance(arg, EconomyParams))
            raise OutOfRange("params", f"{solver.__name__} leaves float64 at "
                                       f"{params}: {exc}") from exc
    return guarded


@dataclass(frozen=True, eq=False)
class WealthDistribution:
    """Per-household holdings; the state variable of every model.

    Entries are finite and >= ``POSITIVITY_FLOOR``; the vector length
    equals the household population and never changes within a scenario.
    """

    holdings: np.ndarray

    def __post_init__(self):
        arr = np.array(self.holdings, dtype=float, copy=True).reshape(-1)
        if arr.size < 1:
            raise OutOfRange("holdings", "distribution must have at least one entry")
        if not np.all(np.isfinite(arr)):
            raise OutOfRange("holdings", "holdings must be finite")
        if np.any(arr < POSITIVITY_FLOOR):
            raise OutOfRange("holdings", "holdings must be >= positivity "
                             f"floor {POSITIVITY_FLOOR}")
        arr.flags.writeable = False
        object.__setattr__(self, "holdings", arr)

    def __len__(self) -> int:
        return int(self.holdings.size)

    def __getitem__(self, i):
        return self.holdings[i]

    @property
    def mean(self) -> float:
        return float(self.holdings.mean())

    def as_array(self) -> np.ndarray:
        return self.holdings


def check_population(dist: WealthDistribution, params: EconomyParams):
    """One holding per household: the spillover scale and the market mean
    both count on it."""
    if len(dist) != params.population:
        raise OutOfRange(
            "holdings",
            f"{len(dist)} holdings for a population of {params.population}",
        )


@dataclass(frozen=True)
class SteadyState:
    """Closed-form long-run target of a regime.

    ``holding_star`` is the steady holding level (bequest or capital); it is
    ``None`` for endogenous regimes, whose long-run object is a balanced
    growth ray rather than a point. ``growth_star`` is net growth per period
    (generation or unit time), ``interest_star`` the associated interest rate.
    """

    holding_star: float | None
    growth_star: float
    interest_star: float
    regime: Regime
    consumption_star: float | None = None

    def __post_init__(self):
        if self.regime.is_endogenous:
            if not (self.growth_star > 0.0):
                raise OutOfRange("growth_star", "endogenous steady growth must be > 0")
        else:
            if self.growth_star != 0.0:
                raise OutOfRange("growth_star", "exogenous steady growth must be 0")
            if self.holding_star is None or not (self.holding_star > 0.0):
                raise OutOfRange("holding_star", "exogenous steady holding must be > 0")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed record of a simulated economy.

    ``times`` is the generation index (OLG) or the real time grid (Ramsey).
    ``holdings`` and ``consumption`` are (T, L) matrices, and ``output``
    that of the capital each household operates: (T, L) under autarky, and
    (T, 1) under a capital market, where every household operates the mean.
    Aggregate channels: ``mean_holding``, ``mean_output`` (the row means of
    ``output``), ``interest`` (market rate, or mean private return under
    autarky), and ``growth`` (net average growth over the step ending at
    each time; zero, by convention, at the initial row for OLG and the
    instantaneous consumption-growth rate for Ramsey); OLG's ``interest``
    is that of the generation that made each row, Ramsey's the row's own.
    Inequality channels ``gini``, ``cv`` and ``ratio_max_min`` are of the
    holdings, each row with the bits of its own 1-D statistic. The solver
    passes ``output``, ``interest`` and ``growth``, and
    ``metrics.record_trajectory`` takes the rest once per trajectory.
    """

    times: np.ndarray
    holdings: np.ndarray
    consumption: np.ndarray
    output: np.ndarray
    mean_holding: np.ndarray
    mean_output: np.ndarray
    interest: np.ndarray
    growth: np.ndarray
    gini: np.ndarray
    cv: np.ndarray
    ratio_max_min: np.ndarray
    regime: Regime
    converged: bool
    note: str = ""

    def __post_init__(self):
        n = self.times.shape[0]
        if self.holdings.shape[0] != n or self.consumption.shape != self.holdings.shape:
            raise OutOfRange("trajectory", "channel lengths disagree")
        # under a market every household operates the mean: one output column
        output = (n, 1 if self.regime.is_market else self.holdings.shape[1])
        for name in ("output", "mean_holding", "mean_output", "interest",
                     "growth", "gini", "cv", "ratio_max_min"):
            ch = getattr(self, name)
            if ch.shape != (output if name == "output" else (n,)):
                raise OutOfRange("trajectory", f"channel {name} has wrong shape")
            if not np.all(np.isfinite(ch)):
                raise OutOfRange("trajectory", f"channel {name} must be finite")
        if np.any(self.holdings <= 0.0) or np.any(self.consumption <= 0.0):
            raise OutOfRange("trajectory", "states must stay strictly positive")

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def population(self) -> int:
        return int(self.holdings.shape[1])
