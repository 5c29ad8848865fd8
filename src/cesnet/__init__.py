"""Multisector CES production-network toolkit.

Equilibrium price solving under productivity shocks, structural viability
analysis, nonlinear Domar aggregation into GDP fluctuations, Monte Carlo
tail-asymmetry experiments, GBM productivity estimation and FE/IV panel
estimation of sectoral elasticities of substitution.
"""

from .economy import Economy, cost_shares, load_economy, save_economy
from .equilibrium import (
    EquilibriumResult,
    solve_cobb_douglas,
    solve_fixed_point,
    solve_leontief,
    solve_uniform_ces,
    unit_costs,
)
from .household import (
    COBB_DOUGLAS,
    GENERAL_CES,
    LEONTIEF,
    HouseholdPrefs,
    Unviable,
    domar_weights,
    nominal_income,
    price_index,
    real_gdp_growth,
)
from .montecarlo import (
    DistributionSummary,
    ShockConfig,
    hp_filter,
    qq_points,
    sample_shocks,
    simulate_distribution,
)
from .structure import EquilibriumStructure, equilibrium_structure, gradient_cost, hawkins_simon
from .gbm import GbmEstimate, estimate_gbm_dlm, estimate_gbm_moments, shapiro_wilk
from .econometrics import (
    ElasticityEstimate,
    PanelDataset,
    fe_2sls,
    fe_ols,
    iv_diagnostics,
    recover_productivity,
    within_transform,
)

__version__ = "0.1.0"
