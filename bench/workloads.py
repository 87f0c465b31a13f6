"""Seeded inputs of the four benchmark workloads.

Each workload is a function of the seed that returns the operations of one
pass: scenario documents (parsed and run by the program) or the arguments of
one ``fmt_sweep`` call. Nothing here imports ``ineqlab``; the program sees
only the text and arguments built here. The same seed gives the same inputs.

Sizes are fixed per workload and only the values are drawn (for ak_newton,
only an order), so the work in a pass changes little from seed to seed. See
README.md for the ranges and why.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: The outputs line every scenario op runs with: CSV and SVG on disk.
ALL_OUTPUTS = "outputs = [csv, svg, summary]"


@dataclass(frozen=True)
class ScenarioOp:
    """``parse_scenario(text)`` then ``run_scenario``; ``sampled_rows`` > 0
    checks the per-row statistics on that many seeded rows, not every row."""

    name: str
    text: str
    sampled_rows: int = 0


@dataclass(frozen=True)
class SweepOp:
    """One ``fmt_sweep(trials, n, seed)`` call."""

    name: str
    trials: int
    n: int
    seed: int


def scenario_text(name: str, family: str, market: str, technology: str,
                   params: dict, dist, horizon: dict) -> str:
    lines = [
        f'name = "{name}"',
        f"regime.family = {family}",
        f"regime.market = {market}",
        f"regime.technology = {technology}",
    ]
    lines += [f"params.{key} = {value!r}" for key, value in params.items()]
    lines.append("initial_distribution = ["
                 + ", ".join(repr(float(x)) for x in dist) + "]")
    lines += [f"horizon.{key} = {value!r}" for key, value in horizon.items()]
    lines.append(ALL_OUTPUTS)
    return "\n".join(lines) + "\n"


def _stratified(rng: np.random.Generator, lo: float, hi: float, count: int):
    """One draw from each of ``count`` equal slices of [lo, hi], shuffled.

    Spreads the households over the whole range on every seed, which keeps
    the solver's work per pass close to constant.
    """
    edges = np.linspace(lo, hi, count + 1)
    draws = rng.uniform(edges[:-1], edges[1:])
    return np.round(rng.permutation(draws), 6)


def _bundled_scenarios() -> list[ScenarioOp]:
    ops = []
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        kept = [line for line in path.read_text(encoding="utf-8").splitlines()
                if not line.strip().startswith("outputs")]
        ops.append(ScenarioOp(path.stem, "\n".join(kept + [ALL_OUTPUTS]) + "\n"))
    if not ops:
        raise FileNotFoundError(f"no bundled scenarios under {SCENARIO_DIR}")
    return ops


#: The economy of the bundled saddle scenario: k* = 25, c* = 5.
SADDLE_ECONOMY = {"tfp": 1.0, "alpha": 0.5, "theta": 0.1, "gamma": 1.0}
#: The bundled saddle scenario's horizon and dt. Its band of 1e-4 is not kept:
#: a path bisected to float64 comes only 1e-5 to 1e-4 close to (k*, c*), so
#: at 1e-4 whether it arrives depends on the start (see README.md).
SADDLE_HORIZON = {"time": 175.0, "dt": 0.05, "terminal_band": 1e-3}
#: (market, households) of the seeded fixed-technology Ramsey scenarios.
SADDLE_SEEDED = (("autarky", 1), ("autarky", 3), ("market", 2), ("market", 4))


def saddle(seed: int) -> list:
    """The bundled scenarios, then the seeded fixed-technology ones."""
    rng = np.random.default_rng([seed, 1])
    ops = _bundled_scenarios()
    for market, households in SADDLE_SEEDED:
        name = f"seeded-{market}-{households}"
        dist = _stratified(rng, 5.0, 60.0, households)
        ops.append(ScenarioOp(name, scenario_text(
            name, "ramsey", market, "exogenous", SADDLE_ECONOMY, dist,
            SADDLE_HORIZON)))
    return ops


#: The economy and holdings of tests/test_ramsey.py::test_equalization_and_ray,
#: plus a third household.
AK_ECONOMY = {"tfp": 0.5, "alpha": 0.5, "theta": 0.05, "gamma": 2.0}
AK_HORIZON = {"dt": 0.1, "terminal_band": 5e-3}
AK_HOLDINGS = ((1.0, 2.0), (1.0, 2.0, 3.0))


def ak_newton(seed: int) -> list:
    """The seed only orders the households before the richest, which comes
    last. The Newton solve's work moves by up to 7 % with any other change
    of the holdings, even with which household comes last, and would blur
    ``pass_s`` more than the machine does."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for holdings in AK_HOLDINGS:
        dist = [*rng.permutation(holdings[:-1]), holdings[-1]]
        name = f"ak-autarky-{len(holdings)}"
        ops.append(ScenarioOp(name, scenario_text(
            name, "ramsey", "autarky", "endogenous_ak", AK_ECONOMY, dist,
            AK_HORIZON)))
    return ops


WIDE_HOUSEHOLDS = 1000
WIDE_SAMPLED_ROWS = 40
WIDE_MARKET_HORIZON = {"dt": 0.4, "terminal_band": 1e-3}
#: OLG autarky economy with b* = (2.2 / 2.1) ** 20 = 2.53; at alpha 0.95 the
#: log-distance to b* shrinks by only 5 % a generation, so no seed settles
#: within the generation cap and every pass records the same rows.
WIDE_OLG_ECONOMY = {"tfp": 2.2, "alpha": 0.95, "theta": 0.1}
WIDE_OLG_HORIZON = {"max_generations": 200}


def wide(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    market = _stratified(rng, 5.0, 60.0, WIDE_HOUSEHOLDS)
    olg = _stratified(rng, 0.05, 8.0, WIDE_HOUSEHOLDS)
    return [
        ScenarioOp("wide-market", scenario_text(
            "wide-market", "ramsey", "market", "exogenous", SADDLE_ECONOMY,
            market, WIDE_MARKET_HORIZON), sampled_rows=WIDE_SAMPLED_ROWS),
        ScenarioOp("wide-olg", scenario_text(
            "wide-olg", "olg", "autarky", "exogenous", WIDE_OLG_ECONOMY, olg,
            WIDE_OLG_HORIZON), sampled_rows=WIDE_SAMPLED_ROWS),
    ]


SWEEP_SIZES = (3, 5, 8, 10)
SWEEP_TRIALS = 400


def fmt_sweep(seed: int) -> list:
    """Theorem sweeps, one batch per size, each with its own seed."""
    rng = np.random.default_rng([seed, 4])
    return [SweepOp(f"sweep-n{n}", SWEEP_TRIALS, n, int(rng.integers(2**31)))
            for n in SWEEP_SIZES]


WORKLOADS = {
    "saddle": saddle,
    "ak_newton": ak_newton,
    "wide": wide,
    "fmt_sweep": fmt_sweep,
}
