"""Sandwich manipulation of the price oracle around a liquidation.

Within one block the attacker can (1) sell ``delta`` collateral into the
pool, crashing the oracle price and possibly pushing the target position's
health factor through 1, (2) run the optimal liquidation against the
depressed price, and (3) buy the ``delta`` back at the now even lower
price.  Funding is treated as a free flash loan, so the reported profit is
an upper bound on what any attacker could realize.

With reserves (A0, B0) the legs are

    front-run proceeds   B0*delta*(1-fee) / (A0 + delta*(1-fee))
    liquidation value    best_strategy on the post-front state
    buy-back cost        B2*delta / ((1-fee)*(A2 - delta))

where (A2, B2) are the pool reserves after the liquidation legs.  The
buy-back reverts when ``delta >= A2``; the largest size that can ever close
is ``(A0 + (1-fee)*c)/fee`` for a positive fee and unbounded otherwise.
As ``delta`` approaches that ceiling the buy-back cost diverges, so with
any positive fee oversized attacks produce unbounded losses, while at zero
fee the profit tends to the liquidation value of the collateral,
``B0*c/(A0 + c)``.

``critical_fee`` locates the smallest fee at which no attack size is
profitable, by bisection on the optimizer's best strictly-positive-size
profit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import golden_max
from .amm import PoolState, _buy, _require_reserves, _sell
from .engine import (
    LiquidationBatch,
    LiquidationResult,
    Strategy,
    best_strategy,
    best_strategy_batch,
)
from .lending import (
    DEFAULT_CONVENTION,
    LoanPosition,
    RepayConvention,
    RiskParams,
)

# Stay this fraction inside the no-revert ceiling; the objective is singular there.
GUARD_BAND = 1e-6
# critical_fee: bracket width at which the fee bisection stops, and the number
# of interior probes checked for monotonicity before it starts.
_FEE_TOL = 1e-5
_FEE_PROBES = 5


class NoThresholdError(RuntimeError):
    """The best-attack profit does not change sign on the searched fee interval."""

    def __init__(self, message: str, probes: list[tuple[float, float]]):
        table = ", ".join(f"g({g:.6g})={p:.6g}" for g, p in probes)
        super().__init__(f"{message} [{table}]")
        self.probes = probes


class NonMonotoneFeeProfileError(RuntimeError):
    """Best-attack profit is not monotone across the fee probes; refusing to bisect."""


@dataclass(frozen=True)
class DeltaBounds:
    """Characteristic attack sizes for a position/pool pair.

    trigger      smallest sale pushing the health factor to 1 (0 if already there)
    baddebt_cap  robustness ceiling: beyond it the post-front pool could not
                 absorb full repayment of the debt (clamped at 0 when even a
                 zero-size attack violates it)
    no_revert    largest size whose buy-back can execute (+inf at zero fee)
    """

    trigger: float
    baddebt_cap: float
    no_revert: float


@dataclass(frozen=True)
class AttackResult:
    """Leg-by-leg accounting of one sandwich of size delta.

    ``feasible`` is False when the buy-back would revert; the cost and the
    total are None in that case rather than fake numbers.  ``triggered``
    reports whether the front-run pushed the health factor to 1 or below.
    Invariant: total_profit == front_proceeds + liq_profit - buyback_cost.
    """

    delta: float
    front_proceeds: float
    liq_profit: float
    buyback_cost: float | None
    total_profit: float | None
    feasible: bool
    triggered: bool
    pool_after_front: PoolState
    pool_after_liq: PoolState
    liquidation: LiquidationResult
    strategy: Strategy


def delta_trigger_bound(
    position: LoanPosition, pool: PoolState, haircut: float
) -> float:
    """Smallest front-run sale driving the health factor down to 1.

    Solving haircut*B1*c/(A1*b) = 1 with A1 = A0 + delta*(1-fee) and
    B1 = A0*B0/A1 gives (sqrt(haircut*c*A0*B0/b) - A0)/(1-fee), clamped at
    zero when the position is already liquidatable.  +inf for zero debt.
    """
    if position.debt == 0.0:
        return math.inf
    a0, b0 = pool.reserve_collateral, pool.reserve_debt
    target_a1 = math.sqrt(haircut * position.collateral * a0 * b0 / position.debt)
    return max(0.0, (target_a1 - a0) / (1.0 - pool.fee))


def delta_baddebt_cap(position: LoanPosition, pool: PoolState, bonus: float) -> float:
    """Largest attack leaving the pool able to cover the debt being unwound.

    Requires the post-front debt reserve to satisfy
    B1 >= b*(1-fee)*(1+bonus); solving gives
    A0*B0/(b*(1-fee)^2*(1+bonus)) - A0/(1-fee).  Negative values clamp to 0
    (no attack satisfies the robustness constraint); +inf for zero debt.
    """
    if position.debt == 0.0:
        return math.inf
    a0, b0 = pool.reserve_collateral, pool.reserve_debt
    g = pool.fee
    cap = a0 * b0 / (position.debt * (1.0 - g) ** 2 * (1.0 + bonus)) - a0 / (1.0 - g)
    return max(0.0, cap)


def delta_max_no_revert(pool: PoolState, collateral: float) -> float:
    """Largest attack whose buy-back leg can still execute.

    In the large-attack regime the liquidation pushes the borrower's whole
    collateral into the pool, so the post-liquidation reserve is
    A0 + (1-fee)*delta + (1-fee)*c and the buy-back needs it to be at least
    delta.  That bounds delta by (A0 + (1-fee)*c)/fee for fee > 0 and not
    at all for fee == 0.
    """
    if collateral < 0.0:
        raise ValueError(f"collateral must be >= 0, got {collateral}")
    if pool.fee == 0.0:
        return math.inf
    return (pool.reserve_collateral + (1.0 - pool.fee) * collateral) / pool.fee


def delta_bounds(
    position: LoanPosition, pool: PoolState, params: RiskParams
) -> DeltaBounds:
    return DeltaBounds(
        trigger=delta_trigger_bound(position, pool, params.haircut),
        baddebt_cap=delta_baddebt_cap(position, pool, params.bonus),
        no_revert=delta_max_no_revert(pool, position.collateral),
    )


def limiting_profit_nofee(pool: PoolState, collateral: float) -> float:
    """Large-attack profit limit in a fee-free pool: B0*c/(A0 + c)."""
    return pool.reserve_debt * collateral / (pool.reserve_collateral + collateral)


def attack_profit(
    delta: float,
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> AttackResult:
    """Full sandwich accounting at a fixed attack size.

    The embedded liquidation always runs the strategy selector on the
    post-front state, and its post-trade pool is reused directly as the
    buy-back venue, so reserve bookkeeping cannot drift between modules.
    """
    if delta < 0.0:
        raise ValueError(f"attack size must be >= 0, got {delta}")
    proceeds, pool1 = pool.sell_collateral(delta)
    liq, strat = best_strategy(position, pool1, params, convention)
    pool2 = liq.post_pool
    triggered = liq.hf_initial <= 1.0

    feasible = delta < pool2.reserve_collateral
    cost = pool2.buy_collateral_exact(delta)[0] if feasible else None
    return AttackResult(
        delta=delta, front_proceeds=proceeds, liq_profit=liq.pi_tot,
        buyback_cost=cost, total_profit=proceeds + liq.pi_tot - cost if feasible else None,
        feasible=feasible, triggered=triggered,
        pool_after_front=pool1, pool_after_liq=pool2,
        liquidation=liq, strategy=strat,
    )


@dataclass(frozen=True)
class AttackBatch:
    """Columns of :class:`AttackResult` fields, one row per attack.

    ``buyback_cost`` and ``total_profit`` are NaN where the buy-back reverts
    (``feasible`` False); ``liquidation`` holds the embedded liquidation's
    columns.
    """

    front_proceeds: np.ndarray
    buyback_cost: np.ndarray
    total_profit: np.ndarray
    feasible: np.ndarray
    triggered: np.ndarray
    liquidation: LiquidationBatch


def attack_profit_batch(
    delta, collateral, debt, reserve_collateral, reserve_debt, fee,
    params: RiskParams,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> AttackBatch:
    """:func:`attack_profit` of every row, with the same bits.

    The attack sizes, positions and pools are float64 columns that
    broadcast against each other.  The legs run as masks over the scalar
    path's formulas, and the liquidation as one
    :func:`~oevsim.engine.best_strategy_batch` call, whose recovery-root
    self-checks raise as in a loop of :func:`attack_profit` calls.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if np.any(delta < 0.0):
        raise ValueError(f"attack size must be >= 0, got {delta[delta < 0.0][0]}")
    with np.errstate(all="ignore"):
        proceeds, a1, b1 = _sell(reserve_collateral, reserve_debt, fee, delta)
        sold = delta != 0.0
        _require_reserves(a1, b1, sold)
        liq, _ = best_strategy_batch(collateral, debt, np.where(sold, a1, reserve_collateral),
                                     np.where(sold, b1, reserve_debt), fee, params, convention)
        a2 = liq.post_reserve_collateral
        feasible = delta < a2
        cost, a3, b3 = _buy(a2, liq.post_reserve_debt, fee, delta)
        _require_reserves(a3, b3, sold & feasible)
        front = np.where(sold, proceeds, 0.0)
        cost = np.where(feasible, np.where(sold, cost, 0.0), np.nan)
    return AttackBatch(front, cost, front + liq.pi_tot - cost, feasible, liq.hf_initial <= 1.0, liq)


@dataclass(frozen=True)
class OptimizeOutcome:
    """Best attack found, with the search resolution on record.

    ``best_positive_profit`` tracks the best profit over strictly positive
    sizes only (it is -inf when no positive size was feasible); the headline
    ``result`` may be the zero-size attack when nothing beats doing nothing.
    """

    delta: float
    result: AttackResult
    coarse_points: int
    search_hi: float
    best_positive_profit: float


def optimize_attack(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    delta_range: tuple[float, float] = (0.0, math.inf),
    coarse_points: int = 512,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> OptimizeOutcome:
    """Maximize the sandwich profit over the admissible attack sizes.

    The search interval is [0, min(bad-debt cap, no-revert ceiling shrunk by
    a guard band)], clipped to ``delta_range``.  The profile jumps at the
    trigger size, so the trigger and a point just past it are evaluated
    explicitly; a log-spaced coarse grid covers the rest and a golden-section
    pass refines the best bracket.  Refinement can only improve on the best
    coarse point.  An empty interval returns the zero-size attack with
    ``coarse_points`` 0, and so does an unbounded one: its ceiling is inf
    only for a debt-free position in a fee-free pool, where no size gains.

    The coarse grid (up to ``coarse_points + 2`` sizes) is evaluated as one
    :func:`attack_profit_batch` call, which gives the scalar path's bits.
    The zero-size attack, the best grid point (re-evaluated to build the
    returned :class:`AttackResult`) and the golden-section steps are scalar
    :func:`attack_profit` calls: one at a time, a batch would cost more.
    """
    bounds = delta_bounds(position, pool, params)
    lo = max(0.0, delta_range[0])
    hi = min(bounds.baddebt_cap, bounds.no_revert * (1.0 - GUARD_BAND), delta_range[1])

    def evaluate(d: float) -> AttackResult:
        return attack_profit(d, position, pool, params, convention)

    zero = evaluate(0.0)
    if hi <= 0.0 or hi < lo or hi == math.inf:
        return OptimizeOutcome(0.0, zero, 0, max(hi, 0.0), -math.inf)

    grid = _coarse_grid(bounds, lo, hi, coarse_points)
    coarse = attack_profit_batch(grid, position.collateral, position.debt,
                                 pool.reserve_collateral, pool.reserve_debt, pool.fee,
                                 params, convention)
    feasible = [(d, p) for d, p, ok in zip(grid, coarse.total_profit.tolist(),
                                           coarse.feasible.tolist()) if ok]
    best_positive = max((p for d, p in feasible if d > 0.0), default=-math.inf)
    if not feasible:
        return OptimizeOutcome(0.0, zero, len(grid), hi, best_positive)

    d_best = max(feasible, key=lambda dp: dp[1])[0]
    r_best = evaluate(d_best)

    # Golden refinement between the coarse neighbours of the best point.
    idx = grid.index(d_best)
    lo_b = grid[idx - 1] if idx > 0 else max(lo, d_best * 0.5)
    hi_b = grid[idx + 1] if idx + 1 < len(grid) else hi

    def profit_of(d: float) -> float:
        r = evaluate(d)
        return r.total_profit if r.feasible else -math.inf

    d_ref, p_ref = golden_max(profit_of, lo_b, hi_b, tol=1e-10)
    if p_ref > r_best.total_profit and d_ref > 0.0:
        d_best, r_best = d_ref, evaluate(d_ref)
    best_positive = max(best_positive, r_best.total_profit if d_best > 0.0 else -math.inf)

    if zero.total_profit >= r_best.total_profit:
        return OptimizeOutcome(0.0, zero, len(grid), hi, best_positive)
    return OptimizeOutcome(d_best, r_best, len(grid), hi, best_positive)


def _coarse_grid(bounds: DeltaBounds, lo: float, hi: float, coarse_points: int) -> list[float]:
    """Sorted attack sizes in [lo, hi]: the trigger, a point just past it, and a log grid."""
    grid: list[float] = []
    if bounds.trigger < hi and math.isfinite(bounds.trigger):
        grid.extend([bounds.trigger, bounds.trigger * (1.0 + 1e-9) + 1e-12])
    g_lo = max(lo, hi * 1e-7)
    grid.extend(float(d) for d in np.geomspace(g_lo, hi, coarse_points))
    return sorted(d for d in grid if lo <= d <= hi)


@dataclass(frozen=True)
class CriticalFeeResult:
    """Smallest fee at which no positive-size attack stays profitable.

    ``trace`` holds every (fee, best positive-size profit) evaluation in
    probe order followed by the bisection path; the final bracket's
    endpoints straddle ``fee_star``.
    """

    fee_star: float
    bracket: tuple[float, float]
    trace: list[tuple[float, float]]


def critical_fee(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    fee_low: float,
    fee_high: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> CriticalFeeResult:
    """Bisect the fee axis for the profitability threshold of the attack.

    ``g(fee)`` is the optimizer's best strictly-positive-size profit with
    the pool's fee replaced.  Profits within float noise of zero (1e-12 of
    the pool's debt reserve) count as non-positive, so a fee-free round
    trip that nets exactly nothing is not mistaken for a profitable attack.
    The interval must satisfy g(fee_low) > 0 and g(fee_high) <= 0; interior
    probes guard against a non-monotone profile before any bisection
    happens.  The returned fee is the upper end of the final bracket, i.e.
    the smallest fee found with g <= 0.

    Each probe is one :func:`optimize_attack` call, so its coarse grid runs
    as one batch and only the golden-section steps run point by point.
    """
    if not 0.0 <= fee_low < fee_high < 1.0:
        raise ValueError(f"need 0 <= fee_low < fee_high < 1, got [{fee_low}, {fee_high}]")

    shape = (pool.reserve_collateral, pool.reserve_debt)
    profit_floor = 1e-12 * pool.reserve_debt
    trace: list[tuple[float, float]] = []

    def g(fee: float) -> float:
        test_pool = PoolState(shape[0], shape[1], fee)
        out = optimize_attack(position, test_pool, params, convention=convention)
        val = out.best_positive_profit
        trace.append((fee, val))
        return val

    probes = [fee_low]
    probes += [fee_low + (fee_high - fee_low) * (i + 1) / (_FEE_PROBES + 1)
               for i in range(_FEE_PROBES)]
    probes.append(fee_high)
    values = [(f, g(f)) for f in probes]

    if values[0][1] <= profit_floor:
        raise NoThresholdError("attack is not profitable at the low end of the interval", values)
    if values[-1][1] > profit_floor:
        raise NoThresholdError("attack is still profitable at the high end of the interval", values)
    seen_nonpositive = False
    for _, val in values:
        if val <= profit_floor:
            seen_nonpositive = True
        elif seen_nonpositive:
            raise NonMonotoneFeeProfileError(
                "best-attack profit recovered after turning non-positive; "
                f"probe table: {values}"
            )

    lo = max(f for f, v in values if v > profit_floor)
    hi = min(f for f, v in values if v <= profit_floor)
    while hi - lo > _FEE_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) > profit_floor:
            lo = mid
        else:
            hi = mid
    return CriticalFeeResult(fee_star=hi, bracket=(lo, hi), trace=trace)
