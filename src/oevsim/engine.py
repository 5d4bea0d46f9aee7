"""Two-phase optimal liquidation and the strategy selector.

A profit-maximizing liquidator facing a threshold pair ``(cf_target, kappa)``
behaves as follows (the closed-form optimum of the underlying dynamic
program; small sequential liquidations dominate lump sums):

1. If the position is healthy (HF > cf_target), or fees eat the bonus
   ((1-fee)*(1+bonus) <= 1 so every trade loses money), do nothing.
2. Otherwise liquidate marginally -- claim and sell infinitesimal slices --
   until the first of: collateral exhausted, debt fully repaid (many small
   transactions sidestep the per-transaction kappa cap), or the health
   factor recovers to ``cf_target``.  The run up to ``x_liq`` nets

       pi_liq = B * (u - 1) * x_liq / (A + x_liq * u),   u = (1-fee)*(1+bonus)

3. If the run stopped because the health factor recovered, one final
   finite transaction is still admissible (the gate is checked before a
   trade, not after).  Its size is capped by the remaining collateral, by
   the single-transaction kappa bound, and by the unconstrained optimum

       x_opt = A_bar * (sqrt(u) - 1) / u

   of the single-shot profit  B*x*u/(A + x*u) - B*x/A  from the post-run
   pool state.

Production protocols expose two such threshold pairs, (closing_factor, 1)
and (1, kappa); :func:`best_strategy` picks the more profitable one.

Pure functions over immutable values throughout; grid evaluations can run
concurrently without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .amm import PoolState
from .lending import (
    DEFAULT_CONVENTION,
    BoundSet,
    LoanPosition,
    RepayConvention,
    RiskParams,
    bound_collateral,
    bound_debt,
    compute_bounds,
    debt_exhaustion_bound,
    health_factor,
    marginal_repay_total,
    repay_amount,
    trade_multiplier,
)

# Fee exactly at bonus parity (u == 1) must gate out; allow for float noise.
_GATE_EPS = 1e-12


class Binding(Enum):
    """Which bound terminated the marginal phase."""

    COLLATERAL = "collateral"
    DEBT = "debt"
    CLOSING_FACTOR = "closing_factor"


class LastBinding(Enum):
    """Which cap sized the final transaction."""

    COLLATERAL_REMAINDER = "collateral_remainder"
    KAPPA_CAP = "kappa_cap"
    INTERIOR_MAX = "interior_max"
    NONE = "none"


class Strategy(Enum):
    CF_FULL = "cf_full"      # pair (closing_factor, 1)
    ONE_KAPPA = "one_kappa"  # pair (1, kappa)


@dataclass(frozen=True)
class LiquidationResult:
    """Outcome of one liquidation run against a fixed threshold pair.

    pi_tot == pi_liq + pi_last exactly; bad_debt is the debt left once the
    borrower's collateral is gone (zero whenever collateral remains).
    ``binding`` is None only when the fee gate wiped the run before any
    bound could matter.
    """

    x_liq: float
    binding: Binding | None
    pi_liq: float
    x_last: float
    last_binding: LastBinding
    pi_last: float
    pi_tot: float
    post_position: LoanPosition
    post_pool: PoolState
    bad_debt: float
    bounds: BoundSet
    hf_initial: float
    cf_target: float
    kappa: float


def single_shot_profit(pool: PoolState, x: float, bonus: float) -> float:
    """Profit of one liquidation of size x executed in a single swap.

    Sell proceeds of the x*(1+bonus) collateral minus the spot-priced
    repayment B*x/A:  B*x*u/(A + x*u) - B*x/A.
    """
    a, b_res = pool.reserve_collateral, pool.reserve_debt
    u = trade_multiplier(pool.fee, bonus)
    return b_res * x * u / (a + x * u) - b_res * x / a


def marginal_phase_profit(pool: PoolState, x_liq: float, bonus: float) -> float:
    """Closed form for the marginal run's total profit.

    Integrating the per-slice profit (B - y)*(u - 1)/(A + x*u) dx from 0 to
    x_liq gives B*(u - 1)*x_liq/(A + x_liq*u); its sign is the sign of u - 1.
    """
    if x_liq < 0.0:
        raise ValueError(f"x_liq must be >= 0, got {x_liq}")
    a, b_res = pool.reserve_collateral, pool.reserve_debt
    u = trade_multiplier(pool.fee, bonus)
    return b_res * (u - 1.0) * x_liq / (a + x_liq * u)


def interior_maximum(pool: PoolState, bonus: float) -> float:
    """Unconstrained maximizer of the single-shot profit from this pool.

    d/dx [B*x*u/(A + x*u) - B*x/A] = 0  at  x = A*(sqrt(u) - 1)/u, which is
    positive iff u > 1; we clamp at zero otherwise (not trading is optimal).
    """
    u = trade_multiplier(pool.fee, bonus)
    if u <= 1.0:
        return 0.0
    return pool.reserve_collateral * (math.sqrt(u) - 1.0) / u


def final_tranche(
    pool_bar: PoolState,
    pos_bar: LoanPosition,
    params: RiskParams,
    kappa: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> tuple[float, float, LastBinding]:
    """Size, profit and cap tag of the one finite trade closing the run.

    Admissible sizes are capped by the remaining collateral and by the
    single-transaction kappa bound; within those the interior optimum wins.
    Returns a zero trade when u <= 1 (the profit would be non-positive).
    """
    u = trade_multiplier(pool_bar.fee, params.bonus)
    if u <= 1.0:
        return 0.0, 0.0, LastBinding.NONE
    x_rem = bound_collateral(pos_bar, params.bonus)
    x_kb = bound_debt(pos_bar, pool_bar, kappa, params.bonus, convention)
    x_opt = interior_maximum(pool_bar, params.bonus)
    if x_rem <= x_kb and x_rem <= x_opt:
        x_last, tag = x_rem, LastBinding.COLLATERAL_REMAINDER
    elif x_kb <= x_opt:
        x_last, tag = x_kb, LastBinding.KAPPA_CAP
    else:
        x_last, tag = x_opt, LastBinding.INTERIOR_MAX
    if x_last <= 0.0:
        return 0.0, 0.0, LastBinding.NONE
    return x_last, single_shot_profit(pool_bar, x_last, params.bonus), tag


def _snap(value: float, scale: float) -> float:
    """``value`` clamped at 0, with exact boundary hits (within ``scale``) snapped to 0.

    Downstream code can then compare remaining collateral and debt against 0
    without tolerance gymnastics.
    """
    return 0.0 if abs(value) <= scale else max(value, 0.0)


def _zero_result(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    cf_target: float,
    kappa: float,
    binding: Binding | None,
    hf: float,
    convention: RepayConvention,
) -> LiquidationResult:
    if hf > cf_target:
        # Gate shut: the admissible interval is empty, so the recovery bound
        # reports 0 instead of solving a meaningless (and often ill-
        # conditioned) crossing above the threshold.
        bounds = BoundSet(
            x_collateral=bound_collateral(position, params.bonus),
            x_debt_full=debt_exhaustion_bound(position, pool, params.bonus, convention),
            x_debt_kappa=bound_debt(position, pool, kappa, params.bonus, convention),
            x_closing=0.0,
        )
    else:
        bounds = compute_bounds(position, pool, params, cf_target, kappa, convention)
    bad = position.debt if position.collateral == 0.0 and position.debt > 0.0 else 0.0
    return LiquidationResult(
        x_liq=0.0, binding=binding, pi_liq=0.0,
        x_last=0.0, last_binding=LastBinding.NONE, pi_last=0.0, pi_tot=0.0,
        post_position=position, post_pool=pool, bad_debt=bad,
        bounds=bounds, hf_initial=hf, cf_target=cf_target, kappa=kappa,
    )


def run_liquidation(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    cf_target: float,
    kappa: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> LiquidationResult:
    """Optimal liquidation profit L(cf_target, kappa) and full post-state."""
    if not 0.0 < cf_target <= 1.0:
        raise ValueError(f"cf_target must lie in (0, 1], got {cf_target}")
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")

    hf0 = health_factor(position, pool, params.haircut)
    if position.collateral == 0.0:
        return _zero_result(position, pool, params, cf_target, kappa, Binding.COLLATERAL, hf0, convention)
    if position.debt == 0.0:
        return _zero_result(position, pool, params, cf_target, kappa, Binding.DEBT, hf0, convention)
    if hf0 > cf_target:
        return _zero_result(position, pool, params, cf_target, kappa, Binding.CLOSING_FACTOR, hf0, convention)
    u = trade_multiplier(pool.fee, params.bonus)
    if u <= 1.0 + _GATE_EPS:
        # Fee at or above bonus parity: every trade loses, participation is optional.
        return _zero_result(position, pool, params, cf_target, kappa, None, hf0, convention)

    bounds = compute_bounds(position, pool, params, cf_target, kappa, convention)
    x_c, x_b, x_cf = bounds.x_collateral, bounds.x_debt_full, bounds.x_closing

    # Tie priority: collateral > debt > closing factor (reporting only).
    if x_c <= x_b and x_c <= x_cf:
        x_liq, binding = x_c, Binding.COLLATERAL
    elif x_b <= x_cf:
        x_liq, binding = x_b, Binding.DEBT
    else:
        x_liq, binding = x_cf, Binding.CLOSING_FACTOR

    pi_liq = marginal_phase_profit(pool, x_liq, params.bonus)

    a, b_res = pool.reserve_collateral, pool.reserve_debt
    a_bar = a + x_liq * u
    pool_bar = PoolState(a_bar, a * b_res / a_bar, pool.fee)
    pos_bar = LoanPosition(
        _snap(position.collateral - x_liq * (1.0 + params.bonus), 1e-9 * position.collateral),
        _snap(position.debt - marginal_repay_total(pool, x_liq, params.bonus, convention),
              1e-9 * position.debt),
    )

    x_last, pi_last, last_binding = 0.0, 0.0, LastBinding.NONE
    if binding is Binding.CLOSING_FACTOR and x_cf < x_c and x_cf < x_b:
        x_last, pi_last, last_binding = final_tranche(pool_bar, pos_bar, params, kappa, convention)
        if x_last > 0.0:
            pos_bar = LoanPosition(
                _snap(pos_bar.collateral - x_last * (1.0 + params.bonus),
                      1e-9 * max(position.collateral, 1.0)),
                _snap(pos_bar.debt - repay_amount(pool_bar, x_last, params.bonus, convention),
                      1e-9 * max(position.debt, 1.0)),
            )
            a2 = pool_bar.reserve_collateral + x_last * u
            pool_bar = PoolState(a2, pool_bar.invariant() / a2, pool.fee)

    bad_debt = pos_bar.debt if pos_bar.collateral == 0.0 and pos_bar.debt > 0.0 else 0.0
    return LiquidationResult(
        x_liq=x_liq, binding=binding, pi_liq=pi_liq,
        x_last=x_last, last_binding=last_binding, pi_last=pi_last,
        pi_tot=pi_liq + pi_last,
        post_position=pos_bar, post_pool=pool_bar, bad_debt=bad_debt,
        bounds=bounds, hf_initial=hf0, cf_target=cf_target, kappa=kappa,
    )


def best_strategy(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> tuple[LiquidationResult, Strategy]:
    """max{L(closing_factor, 1), L(1, kappa)}; ties go to the first pair."""
    full = run_liquidation(position, pool, params, params.closing_factor, 1.0, convention)
    capped = run_liquidation(position, pool, params, 1.0, params.max_liq_fraction, convention)
    if full.pi_tot >= capped.pi_tot:
        return full, Strategy.CF_FULL
    return capped, Strategy.ONE_KAPPA
