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

Pure functions over immutable values throughout.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._numerics import float_columns, pmax
from .amm import PoolState, _check_reserves, _require_reserves, _sell
from .lending import (
    DEFAULT_CONVENTION,
    BoundSet,
    LoanPosition,
    RepayConvention,
    RiskParams,
    _debt_cap,
    _gated_closing,
    _health,
    _hf,
    _kappa_cap,
    _repay,
    _repay_total,
    _traj_factor,
    _x_collateral,
    bound_closing_batch,
    compute_bounds,
    trade_multiplier,
)

# Fee exactly at bonus parity (u == 1) must gate out; allow for float noise.
_GATE_EPS = 1e-12


class Binding(Enum):
    """What ended the marginal phase, or kept it from starting."""

    COLLATERAL = "collateral"
    DEBT = "debt"
    CLOSING_FACTOR = "closing_factor"
    FEE_GATE = "fee_gate"


class LastBinding(Enum):
    """Which cap sized the final transaction."""

    COLLATERAL_REMAINDER = "collateral_remainder"
    KAPPA_CAP = "kappa_cap"
    INTERIOR_MAX = "interior_max"
    NONE = "none"


class Strategy(Enum):
    CF_FULL = "cf_full"      # pair (closing_factor, 1)
    ONE_KAPPA = "one_kappa"  # pair (1, kappa)


class LiquidationResult(NamedTuple):
    """Outcome of one liquidation run against a fixed threshold pair.

    pi_tot == pi_liq + pi_last exactly; bad_debt is the debt left once the
    borrower's collateral is gone (zero whenever collateral remains).
    When nothing is liquidated, every size and profit is 0, the post-state
    is the initial state, and ``binding`` says why: COLLATERAL or DEBT for
    an empty side, CLOSING_FACTOR for a health factor above the target,
    FEE_GATE when (1-fee)*(1+bonus) <= 1.
    """

    x_liq: float
    binding: Binding
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


def final_tranche(a, b_res, c, b, u, m, bonus, kappa, convention):
    """Size, profit and cap tag of the one finite trade closing the run, over floats.

    ``a, b_res, c, b`` are the post-run reserves and position, ``u`` and ``m``
    the state's trade multiplier and trajectory factor.  Admissible sizes are
    capped by the remaining collateral and by the single-transaction kappa
    bound (kappa is checked by ``compute_bounds``); within those the interior
    optimum wins.  Returns a zero trade when u <= 1, where the interior
    optimum is <= 0.
    """
    x_rem = _x_collateral(c, bonus)
    x_kb = _kappa_cap(kappa * b, a, b_res, u, m, convention)
    x_opt = _interior(a, u, math.sqrt)
    if x_rem <= x_kb and x_rem <= x_opt:
        x_last, tag = x_rem, LastBinding.COLLATERAL_REMAINDER
    elif x_kb <= x_opt:
        x_last, tag = x_kb, LastBinding.KAPPA_CAP
    else:
        x_last, tag = x_opt, LastBinding.INTERIOR_MAX
    if x_last <= 0.0:
        return 0.0, 0.0, LastBinding.NONE
    return x_last, _shot_profit(a, b_res, u, x_last), tag


# Number-level formulas, shared with run_liquidation_batch: each takes floats
# or numpy arrays and keeps one expression order, so both give the same bits.

def _shot_profit(a, b_res, u, x):
    return b_res * x * u / (a + x * u) - b_res * x / a


def _run_profit(a, b_res, u, x_liq):
    return b_res * (u - 1.0) * x_liq / (a + x_liq * u)


def _interior(a, u, sqrt):
    # sqrt is math.sqrt or np.sqrt: both are correctly rounded.
    return a * (sqrt(u) - 1.0) / u


def _snap(value, scale):
    """``value`` clamped at 0, with exact boundary hits (within ``scale``) snapped to 0.

    Downstream code can then compare remaining collateral and debt against 0
    without tolerance gymnastics.
    """
    if isinstance(value, np.ndarray):
        return np.where(abs(value) <= scale, 0.0, pmax(value, 0.0))
    return 0.0 if abs(value) <= scale else max(value, 0.0)


def _liquidate(a, b_res, c, b, x, u, repaid, bonus, c_ref, b_ref):
    """Collateral, debt and reserves after a liquidation of size x that repays ``repaid``.

    The pool absorbs the x*u net collateral sold (the fee is inside u);
    the remaining collateral and debt snap to 0 within 1e-9 of ``c_ref``
    and ``b_ref``.
    """
    _, a_new, b_res_new = _sell(a, b_res, 0.0, x * u)
    return (_snap(c - x * (1.0 + bonus), 1e-9 * c_ref), _snap(b - repaid, 1e-9 * b_ref),
            a_new, b_res_new)


def run_liquidation(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    cf_target: float,
    kappa: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> LiquidationResult:
    """Optimal liquidation profit L(cf_target, kappa) and full post-state.

    Doing nothing is an ordinary outcome with zero profit and the state
    unchanged, tagged by what stopped the run before it began: no
    collateral, no debt, a shut health gate (HF > cf_target), or the fee
    gate.  Otherwise the marginal run and, after a recovery, the closing
    trade execute.  The bounds and the gate's health factor come from
    ``compute_bounds``, which checks cf_target and kappa first.
    """
    bounds, hf0 = compute_bounds(position, pool, params, cf_target, kappa, convention)
    fee = pool.fee
    c, b = position.collateral, position.debt
    a, b_res = pool.reserve_collateral, pool.reserve_debt
    (pi_tot, x_liq, binding, pi_liq, x_last, last_binding, pi_last,
     c_post, b_post, a_post, b_res_post) = _liquidation(
        c, b, a, b_res, trade_multiplier(fee, params.bonus), _traj_factor(fee, convention),
        params.bonus, cf_target, kappa, convention,
        (bounds.x_collateral, bounds.x_debt_full, bounds.x_closing, hf0))
    return LiquidationResult(
        x_liq=x_liq, binding=binding, pi_liq=pi_liq,
        x_last=x_last, last_binding=last_binding, pi_last=pi_last, pi_tot=pi_tot,
        post_position=(position if (c_post, b_post) == (c, b) else LoanPosition(c_post, b_post)),
        post_pool=(pool if (a_post, b_res_post) == (a, b_res)
                   else PoolState(a_post, b_res_post, fee)),
        bad_debt=b_post if c_post == 0.0 and b_post > 0.0 else 0.0,
        bounds=bounds, hf_initial=hf0, cf_target=cf_target, kappa=kappa,
    )


def _liquidation(c, b, a, b_res, u, m, bonus, cf_target, kappa, convention, bounds):
    """:func:`run_liquidation` over floats: (pi_tot, x_liq, binding, pi_liq, x_last,
    last_binding, pi_last, then the post-state c, b, a, b_res).

    ``bounds`` is (x_collateral, x_debt_full, x_closing, hf): the bounds a run
    reads and the gate's health factor.  ``u`` and ``m`` are the state's trade
    multiplier and trajectory factor.  The binding alone gates the closing
    trade, which :func:`final_tranche` sizes from the post-run state.  After
    each leg a reserve that is not > 0 (a NaN recovery bound leaves NaN
    reserves) raises :class:`~oevsim.amm.ReserveUnderflowError`.  The post collateral and debt
    need no check: they are clamped at 0, and a NaN needs a NaN size or a
    repayment over an overflowed ``a + x*u``, which is the new reserve.
    """
    x_c, x_b, x_cf, hf0 = bounds
    x_liq = pi_liq = x_last = pi_last = 0.0
    last_binding = LastBinding.NONE
    if c == 0.0:
        binding = Binding.COLLATERAL
    elif b == 0.0:
        binding = Binding.DEBT
    elif hf0 > cf_target:
        binding = Binding.CLOSING_FACTOR
    elif u <= 1.0 + _GATE_EPS:
        # Fee at or above bonus parity: every trade loses, participation is optional.
        binding = Binding.FEE_GATE
    else:
        # Tie priority: collateral > debt > closing factor, the last only strictly below both.
        if x_c <= x_b and x_c <= x_cf:
            x_liq, binding = x_c, Binding.COLLATERAL
        elif x_b <= x_cf:
            x_liq, binding = x_b, Binding.DEBT
        else:
            x_liq, binding = x_cf, Binding.CLOSING_FACTOR

        c0, b0 = c, b
        pi_liq = _run_profit(a, b_res, u, x_liq)
        repaid = _repay_total(a, b_res, x_liq, u, m)
        c, b, a, b_res = _liquidate(a, b_res, c, b, x_liq, u, repaid, bonus, c, b)
        if not (a > 0.0 and b_res > 0.0):
            _check_reserves(a, b_res)

        if binding is Binding.CLOSING_FACTOR:
            x_last, pi_last, last_binding = final_tranche(a, b_res, c, b, u, m, bonus, kappa,
                                                          convention)
            if x_last > 0.0:
                c, b, a, b_res = _liquidate(a, b_res, c, b, x_last, u,
                                            _repay(a, b_res, x_last, u, m, convention),
                                            bonus, max(c0, 1.0), max(b0, 1.0))
                if not (a > 0.0 and b_res > 0.0):
                    _check_reserves(a, b_res)
    return (pi_liq + pi_last, x_liq, binding, pi_liq, x_last, last_binding, pi_last,
            c, b, a, b_res)


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


def _search_floats(c, fee, params: RiskParams, convention: RepayConvention) -> tuple:
    """What :func:`_best_run` reads that the debt and the pool leave alone: (u, m,
    x_collateral, haircut, bonus, closing_factor, max_liq_fraction).

    An attack search fixes the collateral and the fee, so it builds this once.
    """
    bonus = params.bonus
    return (trade_multiplier(fee, bonus), _traj_factor(fee, convention), _x_collateral(c, bonus),
            params.haircut, bonus, params.closing_factor, params.max_liq_fraction)


def _best_run(c, b, a, b_res, fee, convention: RepayConvention, floats: tuple) -> tuple:
    """The :func:`_liquidation` tuple that :func:`best_strategy` picks, built from floats alone.

    ``floats`` is :func:`_search_floats` of ``c``, ``fee`` and the params.  The
    health factor and the collateral and debt bounds do not depend on the
    threshold pair, so they are read once; each pair solves only its recovery
    root, then runs, in best_strategy's order and with its tie rule.  The
    threshold pairs come from a RiskParams, so compute_bounds' range checks of
    cf_target and kappa cannot fail and are left out.
    """
    u, m, x_c, haircut, bonus, cf, kappa = floats
    hf = _health(haircut, a, b_res, c, b)
    x_b = _debt_cap(b, a, b_res, u, m)
    full = _liquidation(c, b, a, b_res, u, m, bonus, cf, 1.0, convention, (
        x_c, x_b, _gated_closing(hf, c, b, a, b_res, fee, u, m, haircut, bonus, cf, convention),
        hf))
    capped = _liquidation(c, b, a, b_res, u, m, bonus, 1.0, kappa, convention, (
        x_c, x_b, _gated_closing(hf, c, b, a, b_res, fee, u, m, haircut, bonus, 1.0, convention),
        hf))
    return full if full[0] >= capped[0] else capped


# The batch path: run_liquidation and best_strategy over float64 columns.

_BINDINGS = np.array(list(Binding), dtype=object)
_COLLATERAL, _DEBT, _CLOSING_FACTOR, _FEE_GATE = range(4)
_LAST_BINDINGS = np.array(list(LastBinding), dtype=object)
_REMAINDER, _KAPPA_CAP, _INTERIOR_MAX, _NONE = range(4)
_STRATEGIES = np.array(list(Strategy), dtype=object)


class LiquidationBatch(NamedTuple):
    """Columns of :class:`LiquidationResult` fields, one row per state.

    ``binding`` and ``last_binding`` hold :class:`Binding` and
    :class:`LastBinding` members; the post-pool reserves keep each row's fee.
    """

    pi_liq: np.ndarray
    pi_last: np.ndarray
    pi_tot: np.ndarray
    binding: np.ndarray
    last_binding: np.ndarray
    hf_initial: np.ndarray
    bad_debt: np.ndarray
    post_reserve_collateral: np.ndarray
    post_reserve_debt: np.ndarray


def run_liquidation_batch(
    collateral, debt, reserve_collateral, reserve_debt, fee,
    params: RiskParams,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> tuple[LiquidationBatch, LiquidationBatch]:
    """:func:`run_liquidation` of every row on both of ``params``' threshold pairs.

    Returns ``(full, capped)``: the rows of ``(closing_factor, 1)`` and of
    ``(1, max_liq_fraction)``, with the scalar calls' bits, from one pass over
    twice the rows.  The position and pool columns broadcast against each
    other.  Branches are masks over the scalar path's formulas.  A recovery
    bound the masks cannot settle is solved by the scalar
    :func:`~oevsim.lending.bound_closing` (see
    :func:`~oevsim.lending.bound_closing_batch`), so its self-check raises
    here as in a loop of :func:`run_liquidation` calls.
    """
    cols = float_columns(collateral, debt, reserve_collateral, reserve_debt, fee)
    c, b, a, b_res, fee = (np.concatenate([v, v]) for v in cols)
    n = len(c) // 2
    cf = np.repeat([params.closing_factor, 1.0], n)
    kappa = np.repeat([1.0, params.max_liq_fraction], n)
    bonus = params.bonus
    with np.errstate(all="ignore"):
        undefined = (b != 0.0) & (a * b == 0.0)
        if undefined.any():
            i = int(undefined.argmax())
            _health(params.haircut, float(a[i]), float(b_res[i]), float(c[i]), float(b[i]))  # raises
        hf0 = np.where(b == 0.0, math.inf, _hf(params.haircut, a, b_res, c, b))
        u = trade_multiplier(fee, bonus)
        m = _traj_factor(fee, convention)
        x_c = _x_collateral(c, bonus)
        x_b = _debt_cap(b, a, b_res, u, m)
        shut = hf0 > cf
        x_cf = np.zeros_like(hf0)
        solve = ~shut
        x_cf[solve] = bound_closing_batch(
            c[solve], b[solve], a[solve], b_res[solve], fee[solve], params.haircut, bonus,
            cf[solve], convention)

        gate = u <= 1.0 + _GATE_EPS
        idle = (c == 0.0) | (b == 0.0) | shut | gate
        by_c = (x_c <= x_b) & (x_c <= x_cf)
        by_b = ~by_c & (x_b <= x_cf)
        binding = np.where(by_c, _COLLATERAL, np.where(by_b, _DEBT, _CLOSING_FACTOR))
        # Why an idle row is idle, in reverse order of the scalar if-chain: the last write wins.
        for why, code in ((gate, _FEE_GATE), (shut, _CLOSING_FACTOR), (b == 0.0, _DEBT),
                          (c == 0.0, _COLLATERAL)):
            binding[why] = code
        x_liq = np.where(idle, 0.0, np.where(by_c, x_c, np.where(by_b, x_b, x_cf)))
        pi_liq = np.where(idle, 0.0, _run_profit(a, b_res, u, x_liq))
        c_bar, b_bar, a_bar, b_res_bar = _liquidate(
            a, b_res, c, b, x_liq, u, _repay_total(a, b_res, x_liq, u, m), bonus, c, b)
        _require_reserves(a_bar, b_res_bar, ~idle)

        # final_tranche on the rows whose run stopped at the recovery bound; their
        # reserves passed _require_reserves, so x_last is not NaN.
        tranche = ~idle & (binding == _CLOSING_FACTOR)
        x_rem = _x_collateral(c_bar, bonus)
        x_kb = _kappa_cap(kappa * b_bar, a_bar, b_res_bar, u, m, convention)
        x_opt = _interior(a_bar, u, np.sqrt)
        by_rem = (x_rem <= x_kb) & (x_rem <= x_opt)
        by_kb = ~by_rem & (x_kb <= x_opt)
        x_last = np.where(by_rem, x_rem, np.where(by_kb, x_kb, x_opt))
        trade = tranche & (x_last > 0.0)
        pi_last = np.where(trade, _shot_profit(a_bar, b_res_bar, u, x_last), 0.0)
        last_binding = np.where(trade, np.where(by_rem, _REMAINDER,
                                                 np.where(by_kb, _KAPPA_CAP, _INTERIOR_MAX)), _NONE)
        c_fin, b_fin, a_fin, b_res_fin = _liquidate(
            a_bar, b_res_bar, c_bar, b_bar, x_last, u,
            _repay(a_bar, b_res_bar, x_last, u, m, convention), bonus,
            pmax(c, 1.0), pmax(b, 1.0))
        _require_reserves(a_fin, b_res_fin, trade)
        post_c = np.where(trade, c_fin, np.where(idle, c, c_bar))
        post_b = np.where(trade, b_fin, np.where(idle, b, b_bar))
        both = LiquidationBatch(
            pi_liq=pi_liq,
            pi_last=pi_last,
            pi_tot=pi_liq + pi_last,
            binding=_BINDINGS[binding],
            last_binding=_LAST_BINDINGS[last_binding],
            hf_initial=hf0,
            bad_debt=np.where((post_c == 0.0) & (post_b > 0.0), post_b, 0.0),
            post_reserve_collateral=np.where(trade, a_fin, np.where(idle, a, a_bar)),
            post_reserve_debt=np.where(trade, b_res_fin, np.where(idle, b_res, b_res_bar)),
        )
    return (LiquidationBatch(*(col[:n] for col in both)),
            LiquidationBatch(*(col[n:] for col in both)))


def best_strategy_batch(
    collateral, debt, reserve_collateral, reserve_debt, fee,
    params: RiskParams,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> tuple[LiquidationBatch, np.ndarray]:
    """:func:`best_strategy` of every row, with the same bits.

    Returns the chosen results and the :class:`Strategy` of each row: the
    better half of :func:`run_liquidation_batch`, ties going to the first pair.
    """
    full, capped = run_liquidation_batch(collateral, debt, reserve_collateral, reserve_debt, fee,
                                         params, convention)
    first = full.pi_tot >= capped.pi_tot
    chosen = (np.where(first, f, k) for f, k in zip(full, capped))
    return LiquidationBatch(*chosen), _STRATEGIES[np.where(first, 0, 1)]
