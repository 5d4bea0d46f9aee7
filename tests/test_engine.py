"""Two-phase liquidation engine: gates, profits, tranche, strategy selection."""

import math
import random

import pytest

from oevsim import (
    Binding,
    LastBinding,
    LoanPosition,
    PoolState,
    RiskParams,
    Strategy,
    best_strategy,
    bound_collateral,
    final_tranche,
    health_factor,
    interior_maximum,
    marginal_phase_profit,
    run_liquidation,
    single_shot_profit,
)
from oevsim.oracles import integral_oracle, random_instances

STD = RiskParams(haircut=0.85, bonus=0.05, closing_factor=0.8, max_liq_fraction=0.5)


def pool_at(price, liquidity=2e9, fee=0.0):
    return PoolState(math.sqrt(liquidity / price), math.sqrt(liquidity * price), fee)


def test_marginal_phase_profit_zero_cases():
    pool = PoolState(1000.0, 2_000_000.0, 0.003)
    assert marginal_phase_profit(pool, 0.0, 0.05) == 0.0
    # fee at bonus parity: (1-fee)*(1+bonus) == 1 kills the margin
    parity = 0.05 / 1.05
    flat = PoolState(1000.0, 2_000_000.0, parity)
    for x in (0.1, 1.0, 3.0):
        assert marginal_phase_profit(flat, x, 0.05) == pytest.approx(0.0, abs=1e-9)


def test_marginal_phase_profit_sign_tracks_margin():
    pool_pos = PoolState(1000.0, 2_000_000.0, 0.003)
    pool_neg = PoolState(1000.0, 2_000_000.0, 0.06)
    assert marginal_phase_profit(pool_pos, 1.0, 0.05) > 0.0
    assert marginal_phase_profit(pool_neg, 1.0, 0.05) < 0.0


def test_marginal_phase_profit_matches_quadrature():
    for inst in random_instances(50, seed=31):
        x = 0.8 * bound_collateral(inst.position, inst.params.bonus)
        closed = marginal_phase_profit(inst.pool, x, inst.params.bonus)
        quad = integral_oracle(inst.pool, x, inst.params.bonus)
        assert closed == pytest.approx(quad, rel=1e-9, abs=1e-12)


def test_interior_maximum_and_tranche_vanish_at_parity():
    flat = PoolState(1000.0, 2_000_000.0, 0.05 / 1.05)
    assert interior_maximum(flat, 0.05) == 0.0
    x_last, pi_last, tag = final_tranche(flat, LoanPosition(5.0, 1000.0), STD, 0.5)
    assert (x_last, pi_last, tag) == (0.0, 0.0, LastBinding.NONE)


def test_final_tranche_kappa_cap_matches_substitution():
    pool = pool_at(1800.0)
    pos = LoanPosition(50.0, 200_000.0)  # fat debt so the kappa cap binds
    x_last, pi_last, tag = final_tranche(pool, pos, STD, 0.01)
    assert tag is LastBinding.KAPPA_CAP
    assert pi_last == pytest.approx(single_shot_profit(pool, x_last, STD.bonus), rel=1e-14)


def test_gate_returns_zero_above_threshold():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(2000.0)  # HF = 1.02
    res = run_liquidation(pos, pool, STD, 1.0, 0.5)
    assert res.pi_tot == 0.0
    assert res.binding is Binding.CLOSING_FACTOR
    assert res.x_liq == 0.0
    assert res.post_position == pos and res.post_pool == pool


def test_fee_gate_returns_zero():
    pos = LoanPosition(6.0, 10_000.0)
    for fee in (0.05 / 1.05, 0.06, 0.3):
        pool = pool_at(1500.0, fee=fee)
        res = run_liquidation(pos, pool, STD, 1.0, 0.5)
        assert res.pi_tot == 0.0
        assert res.binding is Binding.FEE_GATE


def test_degenerate_positions():
    pool = pool_at(1500.0)
    res_c = run_liquidation(LoanPosition(0.0, 10.0), pool, STD, 1.0, 0.5)
    assert res_c.pi_tot == 0.0 and res_c.binding is Binding.COLLATERAL
    assert res_c.bad_debt == 10.0
    res_b = run_liquidation(LoanPosition(1.0, 0.0), pool, STD, 1.0, 0.5)
    assert res_b.pi_tot == 0.0 and res_b.binding is Binding.DEBT


def test_profit_decomposition_and_postchecks():
    pos = LoanPosition(6.0, 10_000.0)
    for p in (1400.0, 1600.0, 1800.0, 1900.0, 1950.0):
        pool = pool_at(p)
        res = run_liquidation(pos, pool, STD, 1.0, 0.5)
        assert res.pi_tot == res.pi_liq + res.pi_last
        assert res.x_liq == pytest.approx(
            min(res.bounds.x_collateral, res.bounds.x_debt_full, res.bounds.x_closing)
        )
        # pool product is preserved through every leg
        assert res.post_pool.invariant() == pytest.approx(pool.invariant(), rel=1e-12)
        if res.binding is Binding.COLLATERAL:
            assert res.post_position.collateral == 0.0
            assert res.bad_debt == res.post_position.debt
        else:
            assert res.bad_debt == 0.0


def test_tranche_fires_only_on_recovery_binding():
    pos = LoanPosition(6.0, 10_000.0)
    low = run_liquidation(pos, pool_at(1500.0), STD, 1.0, 0.5)
    assert low.binding is Binding.COLLATERAL and low.x_last == 0.0
    high = run_liquidation(pos, pool_at(1850.0), STD, 1.0, 0.5)
    assert high.binding is Binding.CLOSING_FACTOR and high.x_last > 0.0
    assert high.last_binding is not LastBinding.NONE


def test_profit_jumps_at_the_gate():
    # Continuous in price on both sides, discontinuous exactly at HF == cf.
    pos = LoanPosition(6.0, 10_000.0)
    p_gate = 1.0 * pos.debt / (STD.haircut * pos.collateral)  # HF == 1 price
    just_below = run_liquidation(pos, pool_at(p_gate * (1 - 1e-9)), STD, 1.0, 0.5)
    at_gate = run_liquidation(pos, pool_at(p_gate * (1 + 1e-12)), STD, 1.0, 0.5)
    assert just_below.pi_tot > 100.0
    assert at_gate.pi_tot == 0.0


def test_homogeneity_in_state_scale():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(1800.0)
    base = run_liquidation(pos, pool, STD, 1.0, 0.5)
    for s in (0.05, 2.0, 400.0):
        scaled = run_liquidation(
            LoanPosition(6.0 * s, 10_000.0 * s),
            PoolState(pool.reserve_collateral * s, pool.reserve_debt * s, pool.fee),
            STD, 1.0, 0.5,
        )
        assert scaled.pi_tot == pytest.approx(base.pi_tot * s, rel=1e-9)


def test_sequential_split_beats_lump():
    rng = random.Random(4)
    for inst in random_instances(200, seed=77):
        pool, bonus = inst.pool, inst.params.bonus
        cap = bound_collateral(inst.position, bonus)
        x1 = rng.uniform(0.0, 0.6) * cap
        x2 = rng.uniform(0.0, 0.4) * cap
        lump = single_shot_profit(pool, x1 + x2, bonus)
        _, mid = pool.sell_collateral(x1 * (1.0 + bonus))
        seq = single_shot_profit(pool, x1, bonus) + single_shot_profit(mid, x2, bonus)
        assert lump <= seq + 1e-12 * max(1.0, abs(lump), abs(seq))


def test_best_strategy_tie_breaks_to_cf_full():
    # Above both gates: both legs return zero, tie goes to the full pair.
    pos = LoanPosition(6.0, 10_000.0)
    res, chosen = best_strategy(pos, pool_at(2050.0), STD)
    assert res.pi_tot == 0.0
    assert chosen is Strategy.CF_FULL


def test_gate_soundness_margin():
    # Marginally below fee parity liquidation still pays on a live position.
    pos = LoanPosition(6.0, 10_000.0)
    parity = STD.bonus / (1.0 + STD.bonus)
    res = run_liquidation(pos, pool_at(1500.0, fee=parity * (1 - 1e-3)), STD, 1.0, 0.5)
    assert res.pi_tot > 0.0
    assert health_factor(pos, pool_at(1500.0), STD.haircut) < 1.0
