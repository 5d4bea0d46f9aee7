"""Optimal liquidation and oracle-manipulation simulation on a CPMM oracle.

The package models a lending protocol whose price oracle is a fee-charging
constant-product market maker, computes closed-form optimal liquidation
profits, quantifies sandwich-attack (OEV) profitability, and locates the
fee level at which every attack becomes unprofitable.  Brute-force oracles
(discretized dynamic program, quadrature, split inequalities) ground every
closed form.
"""

from .amm import InsufficientReservesError, PoolState, ReserveUnderflowError
from .attack import (
    AttackResult,
    CriticalFeeResult,
    DeltaBounds,
    NonMonotoneFeeProfileError,
    NoThresholdError,
    OptimizeOutcome,
    attack_profit,
    critical_fee,
    delta_bounds,
    optimize_attack,
)
from .config import ConfigError, ScenarioConfig, load_config
from .engine import (
    Binding,
    LastBinding,
    LiquidationResult,
    Strategy,
    best_strategy,
    final_tranche,
    run_liquidation,
)
from .lending import (
    DEFAULT_CONVENTION,
    BoundSet,
    ClosingBound,
    LoanPosition,
    RecoveryRootError,
    RepayConvention,
    RiskParams,
    bound_closing,
    compute_bounds,
    health_factor,
    hf_after_marginal,
)
from .oracles import (
    Instance,
    dp_oracle,
    hf_monotonicity_check,
    integral_oracle,
    random_instances,
    simulate_liquidation_sequence,
    subadditivity_check,
    verification_report,
)

__version__ = "0.1.0"
