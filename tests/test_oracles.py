"""Oracle machinery: DP convergence, quadrature, inequality suites, generator."""

import math
import random

import numpy as np
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
from oevsim._numerics import halve
from oevsim.amm import _sell
from oevsim.engine import _run_profit
from oevsim.lending import (
    _debt_cap,
    _hf,
    _kappa_cap,
    _repay,
    _repay_total,
    _traj_factor,
    _x_collateral,
    trade_multiplier,
)
from oevsim.oracles import _EXHAUST_EPS, Instance, SequenceOutcome, _trade, random_instances

STD = RiskParams(haircut=0.85, bonus=0.05, closing_factor=0.8, max_liq_fraction=0.5)


def pool_at(price, liquidity=2e9, fee=0.0):
    return PoolState(math.sqrt(liquidity / price), math.sqrt(liquidity * price), fee)


def test_dp_gate_zero_regardless_of_grid():
    # HF above 1, then an empty side: the walk ends before its first transaction.
    cases = [(LoanPosition(6.0, 10_000.0), pool_at(2000.0))]
    cases += [(pos, pool_at(1500.0)) for pos in (LoanPosition(0.0, 1e4), LoanPosition(6.0, 0.0),
                                                  LoanPosition(0.0, 0.0))]
    for pos, pool in cases:
        for grid in (2, 100, 5000):
            assert dp_oracle(pos, pool, STD, 1.0, 0.5, grid) == 0.0


@pytest.mark.parametrize("grid_n", [1e4, 100.0])
def test_a_float_grid_gives_the_bits_of_its_integer(grid_n):
    for inst in random_instances(3, 1000, feasible_only=True):
        args = (inst.position, inst.pool, inst.params, inst.cf_target, inst.kappa)
        assert dp_oracle(*args, grid_n).hex() == dp_oracle(*args, int(grid_n)).hex()


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


@pytest.mark.parametrize("x1, x2", [(2.5, 0.0), (0.0, 2.5)], ids=["second_zero", "first_zero"])
def test_subadditivity_zero_split_is_equality(x1, x2):
    # A zero leg leaves the pool as it is; a sale of 0 would move reserve_debt
    # to A*B/A, an ulp off B on this pool.
    pool = PoolState(1234.5, 2_000_000.3, 0.003)
    lhs, rhs, holds = subadditivity_check(pool, 0.05, x1, x2)
    assert holds and rhs.hex() == lhs.hex()


def test_a_float_trade_sells_as_the_amm_does():
    # A float transaction is amm._sale's sale: a zero size is a no-op and a
    # negative one raises.
    a, r = 1234.5, 2_000_000.3
    assert _trade(a, r, 0.003, 0.0, 0.05) == (0.0, a, r)
    with pytest.raises(ValueError, match="swap input must be >= 0"):
        _trade(a, r, 0.003, -1.0, 0.05)


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


def walk_reference(position, pool, params, cf_target, kappa, convention, step_limit,
                   stop_before_crossing, max_steps):
    """simulate_liquidation_sequence as one scalar transaction per loop iteration."""
    theta, ell, fee = params.haircut, params.bonus, pool.fee
    c_eps = _EXHAUST_EPS * max(position.collateral, 1.0)
    b_eps = _EXHAUST_EPS * max(position.debt, 1.0)
    one_plus = 1.0 + ell
    spot = convention is RepayConvention.SPOT_PRICE
    u, m = trade_multiplier(fee, ell), _traj_factor(fee, convention)

    def step_at(c, b, a, r, size):
        amount = size * one_plus
        if amount == 0.0:
            proceeds, a_n, r_n, beta = 0.0, a, r, 0.0
        else:
            proceeds, a_n, r_n = _sell(a, r, fee, amount)
            if not (a_n > 0.0 and r_n > 0.0):
                PoolState(a_n, r_n, fee)
            beta = (_repay(a, r, size, u, m, convention) if spot
                    else _repay_total(a, r, size, u, m))
        dpi = proceeds - r / a * size
        c_n, b_n = c - amount, b - beta
        c_next, b_next = max(c_n, 0.0), max(b_n, 0.0)
        if not (c_next >= 0.0 and b_next >= 0.0):
            LoanPosition(c_next, b_next)
        if b_n <= b_eps or c_n <= c_eps:
            return dpi, c_next, b_next, a_n, r_n, -math.inf
        return dpi, c_next, b_next, a_n, r_n, _hf(theta, a_n, r_n, c_next, b_next)

    c, b = position.collateral, position.debt
    a, r = pool.reserve_collateral, pool.reserve_debt
    hf = health_factor(position, pool, theta)
    profit = cum_x = 0.0
    steps = 0
    while True:
        if b <= b_eps:
            term = "debt"
            break
        if c <= c_eps:
            term = "collateral"
            break
        if hf > cf_target:
            term = "closing_factor" if steps > 0 else "gate"
            break
        if steps >= max_steps:
            term = "steps"
            break
        if steps == 0 and not 0.0 < kappa <= 1.0:
            raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
        kb = kappa * b
        x = min(step_limit, _x_collateral(c, ell),
                _kappa_cap(kb, a, r, u, m, convention) if spot else _debt_cap(kb, a, r, u, m))
        if not x > 0.0:
            term = "stalled"
            break
        step = step_at(c, b, a, r, x)
        crossing = stop_before_crossing and step[5] > cf_target
        if crossing:
            x, _ = halve(lambda size: not step_at(c, b, a, r, size)[5] > cf_target, 0.0, x,
                         lambda lo, hi: hi - lo <= 1e-15 * max(1.0, hi), 200)
            step = step_at(c, b, a, r, x)
        if x > 0.0:
            dpi, c, b, a, r, hf = step
            profit += dpi
            cum_x += x
            steps += 1
        if crossing:
            term = "closing_factor"
            break
    return SequenceOutcome(profit, term, steps, cum_x, LoanPosition(c, b), PoolState(a, r, fee))


def outcome_bits(out: SequenceOutcome) -> tuple:
    pos, pool = out.post_position, out.post_pool
    return (out.terminator, out.steps, *(v.hex() for v in (
        out.profit, out.cumulative_x, pos.collateral, pos.debt,
        pool.reserve_collateral, pool.reserve_debt, pool.fee)))


def test_cumsum_is_sequential_subtraction():
    # The walk's columns rest on add.accumulate adding one row element at a time.
    rng = np.random.default_rng(31)
    draws = rng.uniform(0.5, 1.0, 10_000) * np.exp2(rng.integers(-40, 40, 10_000))
    seeds, moves = draws[:2], draws[2:].reshape(2, -1)
    want = []
    for seed, row in zip(seeds.tolist(), moves.tolist()):
        acc = [seed]
        for v in row:
            acc.append(acc[-1] - v)
        want.append([v.hex() for v in acc])
    cols = np.concatenate([seeds[:, None], -moves], axis=1)
    assert [[v.hex() for v in row] for row in np.add.accumulate(cols, axis=1).tolist()] == want
    assert [v.hex() for v in np.cumsum(cols[0]).tolist()] == want[0]


# Two feasible states: in steps of cap/20000, GATE_WALK crosses the gate after about
# 16,000 of them, and DRAIN_WALK never shuts it and runs out of collateral.
DRAIN_WALK, _, _, _, _, GATE_WALK = random_instances(6, seed=77, feasible_only=True)


def walk_pair(inst, convention, step_limit, stop, max_steps, cf_target=None, kappa=None):
    args = (inst.position, inst.pool, inst.params,
            inst.cf_target if cf_target is None else cf_target,
            inst.kappa if kappa is None else kappa, convention, step_limit, stop, max_steps)
    return simulate_liquidation_sequence(*args), walk_reference(*args)


def span(inst):
    return _x_collateral(inst.position.collateral, inst.params.bonus)


@pytest.mark.parametrize("convention", list(RepayConvention), ids=lambda c: c.value)
def test_long_walks_match_the_scalar_walk(convention):
    got, want = walk_pair(GATE_WALK, convention, span(GATE_WALK) / 20_000, True, 40_000)
    assert outcome_bits(got) == outcome_bits(want)
    assert got.terminator == "closing_factor" and got.steps > 16_000


@pytest.mark.parametrize("convention", list(RepayConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("max_steps", [1025, 2100, 4097])
def test_a_step_budget_inside_a_run_matches_the_scalar_walk(convention, max_steps):
    got, want = walk_pair(DRAIN_WALK, convention, span(DRAIN_WALK) / 20_000, True, max_steps)
    assert outcome_bits(got) == outcome_bits(want)
    assert got.terminator == "steps" and got.steps == max_steps


@pytest.mark.parametrize("convention", list(RepayConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("kappa, share", [(0.01, 0.9), (0.001, 0.95)])
def test_a_kappa_cap_binding_after_a_plain_run_matches_the_scalar_walk(convention, kappa, share):
    # The step starts just under the kappa cap, which shrinks with the debt
    # until it binds after dozens of plain steps.
    pool = DRAIN_WALK.pool
    cap0 = _kappa_cap(kappa * DRAIN_WALK.position.debt, pool.reserve_collateral, pool.reserve_debt,
                      trade_multiplier(pool.fee, DRAIN_WALK.params.bonus),
                      _traj_factor(pool.fee, convention), convention)
    got, want = walk_pair(DRAIN_WALK, convention, share * cap0, False, 40_000, kappa=kappa)
    assert outcome_bits(got) == outcome_bits(want)
    assert got.cumulative_x < got.steps * share * cap0 * (1.0 - 1e-3)


@pytest.mark.parametrize("convention", list(RepayConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("case", ["over_gate", "collateral", "debt"])
def test_walk_ends_match_the_scalar_walk(convention, case):
    # Without stop_before_crossing, GATE_WALK takes the step that crosses the
    # gate, and with a gate that never shuts it repays the whole debt.
    inst, cf_target = {"over_gate": (GATE_WALK, None), "collateral": (DRAIN_WALK, None),
                       "debt": (GATE_WALK, math.inf)}[case]
    got, want = walk_pair(inst, convention, span(inst) / 5_000, False, 40_000, cf_target=cf_target)
    assert outcome_bits(got) == outcome_bits(want)
    assert got.terminator == {"over_gate": "closing_factor"}.get(case, case)
    assert got.steps > 4_000
    if case == "over_gate":
        assert health_factor(got.post_position, got.post_pool, inst.params.haircut) > inst.cf_target

