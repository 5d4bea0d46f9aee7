"""Oracle machinery: DP convergence, quadrature, inequality suites, generator."""

import math
import random

import pytest

from oevsim import (
    LoanPosition,
    PoolState,
    RepayConvention,
    RiskParams,
    dp_oracle,
    health_factor,
    hf_monotonicity_check,
    integral_oracle,
    run_liquidation,
    simulate_liquidation_sequence,
    subadditivity_check,
    verification_report,
)
from oevsim.engine import _run_profit
from oevsim.lending import _x_collateral, trade_multiplier
from oevsim.oracles import Instance, random_instances

STD = RiskParams(haircut=0.85, bonus=0.05, closing_factor=0.8, max_liq_fraction=0.5)


def pool_at(price, liquidity=2e9, fee=0.0):
    return PoolState(math.sqrt(liquidity / price), math.sqrt(liquidity * price), fee)


def test_dp_gate_zero_regardless_of_grid():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(2000.0)  # HF above 1
    for grid in (2, 100, 5000):
        assert dp_oracle(pos, pool, STD, 1.0, 0.5, grid) == 0.0


def test_dp_returns_zero_when_fee_kills_the_margin():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(1500.0, fee=0.06)  # above bonus parity
    assert dp_oracle(pos, pool, STD, 1.0, 0.5, 500) == 0.0


def test_dp_finer_grids_never_lose():
    pos = LoanPosition(6.0, 10_000.0)
    for p in (1500.0, 1800.0, 1930.0):
        pool = pool_at(p)
        coarse = dp_oracle(pos, pool, STD, 1.0, 0.5, 2)
        fine = dp_oracle(pos, pool, STD, 1.0, 0.5, 10_000)
        assert coarse <= fine * (1 + 1e-9) + 1e-12
        vals = [dp_oracle(pos, pool, STD, 1.0, 0.5, g) for g in (50, 100, 400, 1600)]
        assert all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))


def test_dp_approaches_engine_from_below():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(1820.0)
    closed = run_liquidation(pos, pool, STD, 1.0, 0.5).pi_tot
    errs = []
    for grid in (100, 400, 1600, 6400):
        approx = dp_oracle(pos, pool, STD, 1.0, 0.5, grid)
        assert approx <= closed * (1 + 1e-9)
        errs.append(closed - approx)
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] / max(1.0, closed) < 2e-4


def test_dp_agreement_across_conventions():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(1820.0, fee=0.003)
    for conv in RepayConvention:
        closed = run_liquidation(pos, pool, STD, 1.0, 0.5, conv).pi_tot
        approx = dp_oracle(pos, pool, STD, 1.0, 0.5, 4000, conv)
        assert abs(closed - approx) / max(1.0, closed) < 1e-3


def test_integral_oracle_trivial_cases():
    pool = PoolState(1000.0, 2_000_000.0, 0.0)
    assert integral_oracle(pool, 0.0, 0.05) == 0.0
    # zero fee and zero bonus: the integrand vanishes identically
    assert integral_oracle(pool, 3.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_integral_oracle_matches_closed_form():
    for inst in random_instances(40, seed=2024):
        x = 0.9 * _x_collateral(inst.position.collateral, inst.params.bonus)
        got = integral_oracle(inst.pool, x, inst.params.bonus)
        pool = inst.pool
        want = _run_profit(pool.reserve_collateral, pool.reserve_debt,
                           trade_multiplier(pool.fee, inst.params.bonus), x)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_subadditivity_zero_split_is_equality():
    pool = PoolState(1000.0, 2_000_000.0, 0.003)
    lhs, rhs, holds = subadditivity_check(pool, 0.05, 2.5, 0.0)
    assert holds and lhs == pytest.approx(rhs, rel=1e-15)


def test_subadditivity_random_batch():
    rng = random.Random(5)
    for inst in random_instances(300, seed=41):
        cap = _x_collateral(inst.position.collateral, inst.params.bonus)
        x1 = rng.uniform(0.0, 0.7) * cap
        x2 = rng.uniform(0.0, 0.7) * (cap - x1)
        lhs, rhs, holds = subadditivity_check(inst.pool, inst.params.bonus, x1, x2)
        assert holds, (inst.digest(), lhs, rhs)


def test_zero_fee_zero_bonus_marginal_run_is_profitless():
    # Degenerate economics: the marginal run nets exactly nothing.
    pool = PoolState(1000.0, 2_000_000.0, 0.0)
    assert _run_profit(pool.reserve_collateral, pool.reserve_debt,
                       trade_multiplier(pool.fee, 0.0), 4.0) == 0.0
    assert integral_oracle(pool, 4.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_hf_monotonicity_zero_split_and_chain():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(1500.0)
    out = hf_monotonicity_check(pos, pool, 0.85, 0.05, 1.0, 0.0)
    assert out.holds and out.price_chain_ok
    assert out.hf_lump == pytest.approx(out.hf_sequential, rel=1e-15)


def test_hf_monotonicity_random_batch():
    rng = random.Random(6)
    count = 0
    for inst in random_instances(400, seed=43):
        pos, pool, params = inst.position, inst.pool, inst.params
        cap = _x_collateral(pos.collateral, params.bonus)
        x1 = rng.uniform(0.0, 0.4) * cap
        x2 = rng.uniform(0.0, 0.4) * cap
        spot = pool.spot_price()
        if pos.debt - (x1 + x2) * spot <= 0.0:
            continue
        hf_mid = health_factor(pos, pool, params.haircut)
        if hf_mid > inst.cf_target:
            continue
        out = hf_monotonicity_check(pos, pool, params.haircut, params.bonus, x1, x2)
        assert out.holds and out.price_chain_ok
        count += 1
    assert count >= 150


def test_sequence_simulator_gate_and_terminators():
    pos = LoanPosition(6.0, 10_000.0)
    shut = simulate_liquidation_sequence(pos, pool_at(2000.0), STD, 1.0, 0.5)
    assert shut.terminator == "gate" and shut.profit == 0.0 and shut.steps == 0

    low = simulate_liquidation_sequence(
        pos, pool_at(1700.0), STD, 1.0, 0.5, RepayConvention.SPOT_PRICE
    )
    assert low.terminator == "collateral"
    assert low.post_position.collateral <= 1e-9 * pos.collateral

    high = simulate_liquidation_sequence(
        pos, pool_at(1800.0), STD, 1.0, 0.5, RepayConvention.SPOT_PRICE
    )
    assert high.terminator == "closing_factor"
    assert health_factor(high.post_position, high.post_pool, STD.haircut) >= 1.0


def test_sequence_simulator_raises_what_the_state_constructors_raise():
    # The first sale underflows the debt reserve to 0: PoolState's error.
    with pytest.raises(ValueError, match="reserve_debt must be > 0"):
        simulate_liquidation_sequence(LoanPosition(1e10, 1e100),
                                      PoolState(1e-200, 1e-120, 0.003), STD, 1.0, 1.0)
    # The walk's kappa check runs at the first transaction, not behind a shut gate.
    pos = LoanPosition(6.0, 10_000.0)
    for kappa in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="kappa must lie in"):
            simulate_liquidation_sequence(pos, pool_at(1500.0), STD, 1.0, kappa)
        shut = simulate_liquidation_sequence(pos, pool_at(2000.0), STD, 1.0, kappa)
        assert shut.terminator == "gate"


def test_sequence_simulator_small_steps_approach_closed_form():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(1500.0)
    closed = run_liquidation(pos, pool, STD, 1.0, 0.5)
    seq = simulate_liquidation_sequence(
        pos, pool, STD, 1.0, 0.5, step_limit=closed.x_liq / 20_000.0
    )
    assert seq.profit == pytest.approx(closed.pi_liq, rel=1e-3)
    assert seq.cumulative_x == pytest.approx(closed.x_liq, rel=1e-3)


def test_random_instances_deterministic_and_untied():
    a = random_instances(25, seed=9)
    b = random_instances(25, seed=9)
    assert a == b
    c = random_instances(25, seed=10)
    assert a != c
    for inst in a:
        assert isinstance(inst, Instance)
        assert inst.position.collateral > 0.0 and inst.position.debt > 0.0


def test_random_instances_feasible_mode():
    for inst in random_instances(40, seed=12, feasible_only=True):
        hf0 = health_factor(inst.position, inst.pool, inst.params.haircut)
        assert hf0 <= inst.cf_target
        parity = inst.params.bonus / (1.0 + inst.params.bonus)
        assert inst.pool.fee < parity


def test_dp_oracle_rejects_grid_below_two():
    with pytest.raises(ValueError):
        dp_oracle(LoanPosition(6.0, 10_000.0), pool_at(1500.0), STD, 1.0, 0.5, 1)


def test_verification_report_smoke():
    records = verification_report(n_instances=6, seed=3, grid_n=10_000)
    assert records
    assert all(rec["passed"] for rec in records), [r for r in records if not r["passed"]]
    checks = {rec["check"] for rec in records}
    assert "engine_vs_dp" in checks and "integral_vs_closed_form" in checks
