"""Two-phase liquidation engine: gates, profits, tranche, strategy selection."""

import math
import random

import pytest

import oevsim.lending
from oevsim import (
    Binding,
    LastBinding,
    LoanPosition,
    PoolState,
    Strategy,
    best_strategy,
    run_liquidation,
)
from oevsim.engine import _run_profit, _shot_profit
from oevsim.lending import _x_collateral, trade_multiplier
from oevsim.oracles import random_instances

from conftest import STD, closing_bound, named_state, pool_at, product, tranche

SHORT_OF_WINDOW = named_state("short_of_window")[1]


def run_profit(pool, x_liq, bonus):
    return _run_profit(pool.reserve_collateral, pool.reserve_debt,
                       trade_multiplier(pool.fee, bonus), x_liq)


def shot_profit(pool, x, bonus):
    return _shot_profit(pool.reserve_collateral, pool.reserve_debt,
                        trade_multiplier(pool.fee, bonus), x)


def test_marginal_phase_profit_zero_cases():
    pool = PoolState(1000.0, 2_000_000.0, 0.003)
    assert run_profit(pool, 0.0, 0.05) == 0.0
    # fee at bonus parity: (1-fee)*(1+bonus) == 1 kills the margin
    parity = 0.05 / 1.05
    flat = PoolState(1000.0, 2_000_000.0, parity)
    for x in (0.1, 1.0, 3.0):
        assert run_profit(flat, x, 0.05) == pytest.approx(0.0, abs=1e-9)


def test_marginal_phase_profit_sign_tracks_margin():
    pool_pos = PoolState(1000.0, 2_000_000.0, 0.003)
    pool_neg = PoolState(1000.0, 2_000_000.0, 0.06)
    assert run_profit(pool_pos, 1.0, 0.05) > 0.0
    assert run_profit(pool_neg, 1.0, 0.05) < 0.0


def test_tranche_vanishes_at_parity():
    # At bonus parity and above it, where every trade loses.
    for fee in (0.05 / 1.05, 0.06, 0.5):
        flat = PoolState(1000.0, 2_000_000.0, fee)
        x_last, pi_last, tag = tranche(flat, LoanPosition(5.0, 1000.0), STD, 0.5)
        assert (x_last, pi_last, tag) == (0.0, 0.0, LastBinding.NONE)


@pytest.mark.parametrize("kappa", [0.0, 1.5, math.nan])
def test_run_liquidation_rejects_kappa_out_of_range(kappa):
    # compute_bounds owns the check; the closing trade's rule takes kappa as given.
    with pytest.raises(ValueError, match="kappa must lie in"):
        run_liquidation(LoanPosition(5.0, 1000.0), pool_at(1800.0), STD, 1.0, kappa)


def test_final_tranche_kappa_cap_matches_substitution():
    pool = pool_at(1800.0)
    pos = LoanPosition(50.0, 200_000.0)  # fat debt so the kappa cap binds
    x_last, pi_last, tag = tranche(pool, pos, STD, 0.01)
    assert tag is LastBinding.KAPPA_CAP
    assert pi_last == pytest.approx(shot_profit(pool, x_last, STD.bonus), rel=1e-14)


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
        assert product(res.post_pool) == pytest.approx(product(pool), rel=1e-12)
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
        cap = _x_collateral(inst.position.collateral, bonus)
        x1 = rng.uniform(0.0, 0.6) * cap
        x2 = rng.uniform(0.0, 0.4) * cap
        lump = shot_profit(pool, x1 + x2, bonus)
        _, mid = pool.sell_collateral(x1 * (1.0 + bonus))
        seq = shot_profit(pool, x1, bonus) + shot_profit(mid, x2, bonus)
        assert lump <= seq + 1e-12 * max(1.0, abs(lump), abs(seq))


def test_best_strategy_tie_breaks_to_cf_full():
    # Above both gates: both legs return zero, tie goes to the full pair.
    pos = LoanPosition(6.0, 10_000.0)
    res, chosen = best_strategy(pos, pool_at(2050.0), STD)
    assert res.pi_tot == 0.0
    assert chosen is Strategy.CF_FULL
    assert res.cf_target == STD.closing_factor and res.kappa == 1.0


def test_run_liquidation_evaluates_the_health_factor_once(monkeypatch):
    import oevsim.lending

    # health_factor and compute_bounds' gate both evaluate it through _health.
    health = oevsim.lending._health
    calls = []
    monkeypatch.setattr(oevsim.lending, "_health", lambda *args: calls.append(1) or health(*args))
    res = run_liquidation(LoanPosition(6.0, 10_000.0), pool_at(1820.0), STD, 1.0, 0.5)
    assert res.binding is Binding.CLOSING_FACTOR and res.hf_initial < 1.0
    assert len(calls) == 1


def test_recovery_root_refine_builds_no_state(monkeypatch):
    # SHORT_OF_WINDOW's root takes the refine, which bisects the gap on floats.
    position, pool, params, _ = SHORT_OF_WINDOW
    built, gaps = [], []
    for cls in (LoanPosition, PoolState):
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
    hf_marginal = oevsim.lending.hf_after_marginal
    monkeypatch.setattr(oevsim.lending, "hf_after_marginal",
                        lambda *args: gaps.append(args) or hf_marginal(*args))
    bound = closing_bound(position, pool, params.haircut, params.bonus, 1.0)
    assert bound.x == 7.813165449634398e-07
    assert built == []
    assert len(gaps) == 16
