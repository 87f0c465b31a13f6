"""Numerical laboratory for growth-and-inequality benchmark economies.

Eight toy economies (overlapping generations or infinite dynasties, with or
without a capital market, fixed or spillover technology), their solvers and
steady states, inequality metrics, Leontief value-theory theorems, and a CLI
for scenario runs and figure reproduction.

Each model law has one public function, an array kernel:
``household_production`` (output and marginal product), ``ramsey_rhs``
(asset drift and Euler growth), ``rk4_step`` (the one integrator) and
``olg_step`` (one generation's bequests). They validate nothing; inputs are
checked where they enter, at the solver entry points and in
``parse_scenario``. The checked scalar forms of these laws
(``TechnologyView``, ``per_capita_output``, ``mpk_private``,
``RamseyState``, ``euler_growth``, the report-returning ``olg_step`` and
others) are gone, a break of the public API.
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
from .production import (
    AllocationCheck,
    equal_allocation_is_optimal,
    household_production,
)
from .ramsey import (
    ShootingConfig,
    market_decompose,
    ramsey_rhs,
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
    FmtReport,
    GcetReport,
    LeontiefEconomy,
    SweepReport,
    TrialBlock,
    augmented_matrix,
    embodied_labor_values,
    fmt_check,
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
