"""Numerical laboratory for growth-and-inequality benchmark economies.

Eight toy economies (overlapping generations or infinite dynasties, with or
without a capital market, fixed or spillover technology), their solvers and
steady states, inequality metrics, Leontief value-theory theorems, and a CLI
for scenario runs and figure reproduction.

Three public array kernels state the shared laws: ``household_production``
(output and marginal product), ``rk4_step`` (the one integrator) and
``olg_step`` (one generation's next bequests). They validate nothing. The
dynasty solvers state asset drift and Euler growth in the derived form each
one integrates. Each solver takes the output and the rates of the rows it
records from one ``household_production`` call, and
``metrics.record_trajectory`` only records them. Each input bound is
checked once, by the type or function that owns it, which raises
``errors.OutOfRange`` naming its field, and a float fault in a solver entry
point is ``OutOfRange("params")``. The scenario module names the scenario
key of that field, and the CLI the option, both through
``errors.named_by``.
"""

from .core import (
    ALL_REGIMES,
    OLG_AUTARKY_AK,
    OLG_AUTARKY_EXOG,
    OLG_MARKET_AK,
    OLG_MARKET_EXOG,
    POSITIVITY_FLOOR,
    RAMSEY_AUTARKY_AK,
    RAMSEY_AUTARKY_EXOG,
    RAMSEY_MARKET_AK,
    RAMSEY_MARKET_EXOG,
    EconomyParams,
    Family,
    Market,
    Regime,
    SteadyState,
    Technology,
    Trajectory,
    WealthDistribution,
    validate_params,
)
from .metrics import (
    coefficient_of_variation,
    gini,
    ratio_max_min,
)
from .olg import (
    CobwebData,
    cobweb_data,
    olg_mean_map,
    olg_simulate,
    olg_steady_state,
    olg_step,
)
from .production import household_production
from .ramsey import (
    ShootingConfig,
    ramsey_steady_state,
    rk4_step,
    shoot_saddle_path,
)
from .scenario import (
    RunArtifacts,
    ScenarioConfig,
    parse_scenario,
    render_scenario,
    run_scenario,
)
from .figures import FIGURE_NAMES, figure
from .value_theory import (
    GcetReport,
    LeontiefEconomy,
    SweepReport,
    TrialBlock,
    fmt_sweep,
    gcet_values,
    numeraire_values,
    profit_sign,
    random_economy,
    spectral_radius,
    surplus_value_rate,
    sweep_trials,
)

from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
