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
from typing import NamedTuple

import numpy as np

from ._numerics import float_columns, golden_max, halve, pmax
from .amm import PoolState, _buy, _purchase, _require_reserves, _sale, _sell
from .engine import (
    LiquidationBatch,
    LiquidationResult,
    Strategy,
    _best_run,
    _search_floats,
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
# optimize_attack: log-spaced sizes of the coarse grid.
_COARSE_POINTS = 512
# critical_fee: bracket width at which the fee bisection stops, and the number
# of interior probes checked for monotonicity before it starts.
_FEE_TOL = 1e-5
_FEE_PROBES = 5


class NoThresholdError(RuntimeError):
    """The best-attack profit does not change sign once on the searched fee interval.

    ``probes`` holds the (fee, profit) table that the message lists.
    """

    def __init__(self, message: str, probes: list[tuple[float, float]]):
        table = ", ".join(f"g({g:.6g})={p:.6g}" for g, p in probes)
        super().__init__(f"{message} [{table}]")
        self.probes = probes


class NonMonotoneFeeProfileError(NoThresholdError):
    """Best-attack profit is not monotone across the fee probes; refusing to bisect."""


class DeltaBounds(NamedTuple):
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


class AttackResult(NamedTuple):
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


def delta_bounds_batch(collateral, debt, reserve_collateral, reserve_debt, fee,
                       params: RiskParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:class:`DeltaBounds` of every row, as three float64 columns.

    The positions and pools are columns that broadcast together.  After a
    front-run of delta, A1 = A0 + delta*(1-fee) and B1 = A0*B0/A1.  The
    trigger solves haircut*B1*c/(A1*b) = 1, the cap B1 = b*(1-fee)*(1+bonus),
    and the no-revert ceiling is (A0 + (1-fee)*c)/fee.  A zero denominator
    gives +inf; the trigger and the cap clamp at 0 as ``max(0.0, .)`` does.
    ``np.float_power`` squares with libm ``pow``, as ``** 2`` does on a float.
    """
    c, b, a0, b0, g = float_columns(collateral, debt, reserve_collateral, reserve_debt, fee)
    with np.errstate(all="ignore"):
        target_a1 = np.sqrt(params.haircut * c * a0 * b0 / b)
        trigger = np.where(b == 0.0, math.inf, pmax(0.0, (target_a1 - a0) / (1.0 - g)))
        den = b * np.float_power(1.0 - g, 2.0) * (1.0 + params.bonus)
        cap = np.where(den == 0.0, math.inf, pmax(0.0, a0 * b0 / den - a0 / (1.0 - g)))
        no_revert = np.where(g == 0.0, math.inf, (a0 + (1.0 - g) * c) / g)
    return trigger, cap, no_revert


def delta_bounds(position: LoanPosition, pool: PoolState, params: RiskParams) -> DeltaBounds:
    """The bounds of one state: row 0 of :func:`delta_bounds_batch`."""
    cols = delta_bounds_batch(position.collateral, position.debt, pool.reserve_collateral,
                              pool.reserve_debt, pool.fee, params)
    return DeltaBounds(*(float(col[0]) for col in cols))


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
    fee = pool.fee
    proceeds, a1, b1 = _sale(pool.reserve_collateral, pool.reserve_debt, fee, delta)
    pool1 = pool if delta == 0.0 else PoolState(a1, b1, fee)
    liq, strat = best_strategy(position, pool1, params, convention)
    pool2 = liq.post_pool
    cost = _buyback(pool2.reserve_collateral, pool2.reserve_debt, fee, delta)
    return AttackResult(
        delta=delta, front_proceeds=proceeds, liq_profit=liq.pi_tot, buyback_cost=cost,
        total_profit=None if cost is None else proceeds + liq.pi_tot - cost,
        feasible=cost is not None, triggered=liq.hf_initial <= 1.0,
        pool_after_front=pool1, pool_after_liq=pool2,
        liquidation=liq, strategy=strat,
    )


def _buyback(a2, b2, fee, delta):
    """Cost of buying ``delta`` back from reserves (a2, b2); None where it reverts (delta >= a2).

    The swap owns its checks, as the front-run's ``amm._sale`` does.
    """
    return _purchase(a2, b2, fee, delta)[0] if delta < a2 else None


def _sandwich_total(delta, c, b, a, b_res, fee, convention, floats) -> float:
    """``attack_profit(...).total_profit``, or -inf where the buy-back reverts, from floats.

    ``floats`` is :func:`~oevsim.engine._search_floats` of ``c``, ``fee`` and the params.
    """
    proceeds, a1, b1 = _sale(a, b_res, fee, delta)
    pi_tot, *_, a2, b2 = _best_run(c, b, a1, b1, fee, convention, floats)
    cost = _buyback(a2, b2, fee, delta)
    return -math.inf if cost is None else proceeds + pi_tot - cost


class AttackBatch(NamedTuple):
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
        total = front + liq.pi_tot - cost
    return AttackBatch(front, cost, total, feasible, liq.hf_initial <= 1.0, liq)


class OptimizeOutcome(NamedTuple):
    """Best attack found, with the search that found it on record.

    ``best_positive_profit`` tracks the best profit over strictly positive
    sizes only (it is -inf when no positive size was feasible); the headline
    ``result`` may be the zero-size attack when nothing beats doing nothing.
    The search ran on [``search_lo``, ``search_hi``], capped by ``bounds``.
    """

    delta: float
    result: AttackResult
    coarse_points: int
    search_hi: float
    best_positive_profit: float
    bounds: DeltaBounds
    search_lo: float


def optimize_attack(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    delta_range: tuple[float, float] = (0.0, math.inf),
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

    The search compares sizes by their total profit only and prices each
    size once: the coarse grid (up to ``_COARSE_POINTS + 2`` sizes) is one
    :func:`attack_profit_batch` call, and the zero-size attack and the
    golden-section steps run the sandwich on floats (``_sandwich_total``),
    one at a time, as a batch would cost more; a golden step on a coarse
    size reads the batch's total.  All three give the bits of
    :func:`attack_profit`, which is called once, for the returned size.
    """
    bounds = delta_bounds(position, pool, params)
    lo = max(0.0, delta_range[0])
    hi = min(bounds.baddebt_cap, bounds.no_revert * (1.0 - GUARD_BAND), delta_range[1])
    delta, points, best_positive = 0.0, 0, -math.inf
    if not (hi <= 0.0 or hi < lo or hi == math.inf):
        c, b, a, b_res, fee = (position.collateral, position.debt, pool.reserve_collateral,
                               pool.reserve_debt, pool.fee)
        floats = _search_floats(c, fee, params, convention)
        p_zero = _sandwich_total(0.0, c, b, a, b_res, fee, convention, floats)
        grid = _coarse_grid(bounds, lo, hi)
        points = len(grid)
        coarse = attack_profit_batch(grid, c, b, a, b_res, fee, params, convention)
        total = np.where(coarse.feasible, coarse.total_profit, -math.inf)
        best_positive = float(total.max(where=grid > 0.0, initial=-math.inf))
        if coarse.feasible.any():
            idx = int(total.argmax())  # the first best size, as max() picks it
            d_best, p_best = float(grid[idx]), float(total[idx])
            near = slice(max(idx - 1, 0), idx + 2)
            priced = dict(zip(grid[near].tolist(), total[near].tolist()))

            def profit_of(d: float) -> float:
                if d in priced:
                    return priced[d]
                return _sandwich_total(d, c, b, a, b_res, fee, convention, floats)

            # Golden refinement between the coarse neighbours of the best point; the
            # sizes it shares with the grid read the batch's totals.
            lo_b = float(grid[idx - 1]) if idx > 0 else max(lo, d_best * 0.5)
            hi_b = float(grid[idx + 1]) if idx + 1 < len(grid) else hi
            d_ref, p_ref = golden_max(profit_of, lo_b, hi_b, tol=1e-10)
            if p_ref > p_best and d_ref > 0.0:
                d_best, p_best = d_ref, p_ref
                best_positive = max(best_positive, p_ref)
            if not p_zero >= p_best:
                delta = d_best

    result = attack_profit(delta, position, pool, params, convention)
    return OptimizeOutcome(delta, result, points, max(hi, 0.0), best_positive, bounds, lo)


def _coarse_grid(bounds: DeltaBounds, lo: float, hi: float) -> np.ndarray:
    """Sorted distinct sizes in [lo, hi]: a log grid, the trigger and a point just past it."""
    grid = np.geomspace(max(lo, hi * 1e-7), hi, _COARSE_POINTS)
    if bounds.trigger < hi:  # hi is finite, so a trigger below it is too
        grid = np.append(grid, (bounds.trigger, bounds.trigger * (1.0 + 1e-9) + 1e-12))
    grid.sort()
    keep = (lo <= grid) & (grid <= hi)
    keep[1:] &= grid[1:] != grid[:-1]  # np.unique would import numpy.ma
    return grid[keep]


class CriticalFeeResult(NamedTuple):
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
    as one batch and only the golden-section steps run point by point, on
    floats.
    """
    if not 0.0 <= fee_low < fee_high < 1.0:
        raise ValueError(f"need 0 <= fee_low < fee_high < 1, got [{fee_low}, {fee_high}]")

    profit_floor = 1e-12 * pool.reserve_debt
    trace: list[tuple[float, float]] = []

    def g(fee: float) -> float:
        at_fee = PoolState(pool.reserve_collateral, pool.reserve_debt, fee)
        val = optimize_attack(position, at_fee, params, convention=convention).best_positive_profit
        trace.append((fee, val))
        return val

    probes = [fee_low]
    probes += [fee_low + (fee_high - fee_low) * (i + 1) / (_FEE_PROBES + 1)
               for i in range(_FEE_PROBES)]
    probes.append(fee_high)
    profitable = [g(f) > profit_floor for f in probes]
    if not profitable[0]:
        raise NoThresholdError("attack is not profitable at the low end of the interval", trace)
    if profitable[-1]:
        raise NoThresholdError("attack is still profitable at the high end of the interval", trace)
    k = profitable.index(False)
    if any(profitable[k:]):
        raise NonMonotoneFeeProfileError("best-attack profit recovered after turning non-positive",
                                         trace)

    lo, hi = probes[k - 1], probes[k]
    if hi - lo > _FEE_TOL:
        lo, hi = halve(lambda fee: g(fee) > profit_floor, lo, hi,
                       lambda lo, hi: hi - lo <= _FEE_TOL)
    return CriticalFeeResult(fee_star=hi, bracket=(lo, hi), trace=trace)
