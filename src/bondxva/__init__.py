"""Bond-consistent derivative valuation with credit and funding adjustments.

The package prices uncollateralized and partially collateralized trades as

    V = V^c - CVA + DVA - CFVA + DFVA

where the funding adjustments are driven by the counterparty's and the
bank's bond-CDS bases, calibrated from bond quotes so that derivative and
bond marks cannot be arbitraged against each other.
"""

from .bond_pricer import (
    RecoveryConvention,
    price_absolute_recovery,
    price_bond,
    price_by_quadrature,
    price_relative_recovery,
    price_riskless_recovery,
)
from .calibrator import CalibrationError, bootstrap_basis, spread_to_hazard
from .curves import (
    CounterpartyProfile,
    PiecewiseCurve,
    bond_implied_hazard,
    discount_factor,
    liquidity_adjusted_survival,
    survival_probability,
)
from .instruments import (
    CashflowSchedule,
    CollateralSpec,
    Instrument,
    bullet_bond,
    collateral_amount,
    collateralized_value,
)
from .mc_engine import (
    ExposureProfile,
    ModelDynamics,
    PathSet,
    exposure_profile,
    sample_default_times,
    simulate_paths,
    swap_roles,
)
from .pde_engine import (
    HedgeWeights,
    PdeSolution,
    SpatialGrid,
    hedge_weights,
    solve_final_pde,
)
from .xva_engine import (
    SolverParams,
    XvaReport,
    bond_implied_value,
    cfva,
    compare_aggregations,
    cva,
    dfva,
    dva,
    ead_split_adjustment,
    fair_value_recursive,
    first_order_value,
    make_collateralized_valuation,
    run_xva,
)

__version__ = "0.1.0"

__all__ = [
    "PiecewiseCurve",
    "CounterpartyProfile",
    "discount_factor",
    "survival_probability",
    "liquidity_adjusted_survival",
    "bond_implied_hazard",
    "CashflowSchedule",
    "Instrument",
    "CollateralSpec",
    "bullet_bond",
    "collateral_amount",
    "collateralized_value",
    "RecoveryConvention",
    "price_bond",
    "price_relative_recovery",
    "price_riskless_recovery",
    "price_absolute_recovery",
    "price_by_quadrature",
    "CalibrationError",
    "bootstrap_basis",
    "spread_to_hazard",
    "ModelDynamics",
    "PathSet",
    "ExposureProfile",
    "simulate_paths",
    "sample_default_times",
    "swap_roles",
    "exposure_profile",
    "SpatialGrid",
    "PdeSolution",
    "HedgeWeights",
    "solve_final_pde",
    "hedge_weights",
    "XvaReport",
    "SolverParams",
    "cva",
    "dva",
    "cfva",
    "dfva",
    "fair_value_recursive",
    "first_order_value",
    "bond_implied_value",
    "ead_split_adjustment",
    "run_xva",
    "compare_aggregations",
    "make_collateralized_valuation",
    "__version__",
]
