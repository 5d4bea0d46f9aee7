"""Sandwich attack legs, feasibility bounds, limiting behavior, optimizer."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import oevsim.attack
from oevsim import (
    InsufficientReservesError,
    LoanPosition,
    NonMonotoneFeeProfileError,
    NoThresholdError,
    PoolState,
    RepayConvention,
    RiskParams,
    attack_profit,
    critical_fee,
    delta_bounds,
    health_factor,
    load_config,
    optimize_attack,
)
from oevsim.cli import main
from oevsim.oracles import random_instances

from conftest import BUNDLED_ATTACK, POOL5, POS5, STD, named_state, pool_at, product


def test_sell_proceeds_approach_full_reserve_without_fee():
    pool = PoolState(1000.0, 2_000_000.0, 0.0)
    proceeds, _ = pool.sell_collateral(1e9 * pool.reserve_collateral)
    assert proceeds == pytest.approx(pool.reserve_debt, rel=1e-8)


def test_attack_profit_tiny_position_in_deep_pool():
    # A root tolerance scaled to the pool alone (1e-12*A/u, far above this
    # collateral) took a negative recovery root for 0 and failed the
    # self-check with ArithmeticError.
    pos = LoanPosition(2.4030954118888192e-08, 1.1287521332041413e-07)
    pool = PoolState(769999166.5054636, 237876643.23465458, 0.0013347257699877688)
    risk = RiskParams(0.9357036191127394, 0.08136631595810896,
                      0.36247504864748514, 0.29170762002307216)
    res = attack_profit(576749292768.7482, pos, pool, risk)
    assert res.feasible
    assert math.isfinite(res.liquidation.pi_tot) and res.liquidation.pi_tot >= 0.0
    for after in (res.pool_after_front, res.pool_after_liq):
        assert product(after) == pytest.approx(product(pool), rel=1e-12)


def test_trigger_bound_clamps_and_self_checks():
    # already liquidatable: no manipulation needed
    pos_low = LoanPosition(6.0, 10_000.0)
    pool = PoolState(1000.0, 2_000_000.0, 0.0)  # HF = 1.02 > 1
    deep = PoolState(1000.0, 1_000_000.0, 0.0)  # HF = 0.51
    assert delta_bounds(pos_low, deep, STD).trigger == 0.0

    trig = delta_bounds(pos_low, pool, STD).trigger
    assert trig > 0.0
    _, pool1 = pool.sell_collateral(trig)
    assert health_factor(pos_low, pool1, 0.85) == pytest.approx(1.0, abs=1e-9)


def test_trigger_self_check_on_random_instances():
    for inst in random_instances(60, seed=913, hf_range=(1.01, 2.0)):
        trig = delta_bounds(inst.position, inst.pool, inst.params).trigger
        if not (trig > 0.0 and math.isfinite(trig)):
            continue
        _, pool1 = inst.pool.sell_collateral(trig)
        assert health_factor(inst.position, pool1, inst.params.haircut) == pytest.approx(
            1.0, abs=1e-9
        )


def test_baddebt_cap_self_check_and_limits():
    cap = delta_bounds(POS5, POOL5, STD).baddebt_cap
    _, pool1 = POOL5.sell_collateral(cap)
    assert pool1.reserve_debt == pytest.approx(
        POS5.debt * (1.0 - POOL5.fee) * (1.0 + STD.bonus), rel=1e-9
    )
    # substitution value for the study configuration
    expected = 1e4 * 2.8e7 / (32_000.0 * 0.997**2 * 1.05) - 1e4 / 0.997
    assert cap == pytest.approx(expected, rel=1e-12)
    # vanishing debt frees the cap entirely
    tiny = delta_bounds(LoanPosition(20.0, 1e-9), POOL5, STD).baddebt_cap
    assert tiny > 1e14
    assert delta_bounds(LoanPosition(20.0, 0.0), POOL5, STD).baddebt_cap == math.inf


def test_no_revert_boundary_is_sharp():
    # Walk the three legs by hand with the full collateral liquidated and
    # check the buy-back reverts just above the ceiling, not just below.
    ceiling = delta_bounds(POS5, POOL5, STD).no_revert
    for delta, ok in ((ceiling * (1 - 1e-9), True), (ceiling * (1 + 1e-9), False)):
        _, pool1 = POOL5.sell_collateral(delta)
        _, pool2 = pool1.sell_collateral(POS5.collateral)  # x_c*(1+bonus) == c
        if ok:
            pool2.buy_collateral_exact(delta)
        else:
            with pytest.raises(InsufficientReservesError):
                pool2.buy_collateral_exact(delta)


def test_attack_zero_size_on_healthy_position_is_flat():
    res = attack_profit(0.0, POS5, POOL5, STD)
    assert res.total_profit == 0.0
    assert res.feasible and not res.triggered
    assert res.liq_profit == 0.0


def test_attack_decomposition_identity_and_reserve_chain():
    res = attack_profit(5_000.0, POS5, POOL5, STD)
    assert res.feasible
    assert res.total_profit == pytest.approx(
        res.front_proceeds + res.liq_profit - res.buyback_cost, rel=1e-15
    )
    k0 = product(POOL5)
    assert product(res.pool_after_front) == pytest.approx(k0, rel=1e-12)
    assert product(res.pool_after_liq) == pytest.approx(k0, rel=1e-12)


def test_pure_round_trip_loses_exactly_the_fee_drag():
    # Zero-debt position: nothing to liquidate, so the sandwich reduces to a
    # round trip whose loss is non-positive and vanishes exactly at zero fee.
    ghost = LoanPosition(5.0, 0.0)
    for fee in (0.0, 0.003, 0.01):
        pool = PoolState(1e4, 2.8e7, fee)
        res = attack_profit(3_000.0, ghost, pool, STD)
        assert res.liq_profit == 0.0
        if fee == 0.0:
            # zero up to rounding of the ~1e7-sized cash-flow legs
            assert res.total_profit == pytest.approx(0.0, abs=1e-12 * pool.reserve_debt)
        else:
            assert res.total_profit < 0.0


def test_trigger_jump_in_liquidation_component():
    pos = LoanPosition(6.0, 10_000.0)
    p0 = 1.05 * pos.debt / (STD.haircut * pos.collateral)
    pool = pool_at(p0)
    trig = delta_bounds(pos, pool, STD).trigger
    below = attack_profit(trig * (1 - 1e-6), pos, pool, STD)
    above = attack_profit(trig * (1 + 1e-6), pos, pool, STD)
    assert below.liq_profit == 0.0 and below.total_profit == pytest.approx(0.0, abs=1e-6)
    assert above.triggered and above.liq_profit > 100.0
    assert above.total_profit > below.total_profit + 100.0


def test_profit_non_increasing_in_fee_at_fixed_delta():
    profits = []
    for fee_bps in (0.0, 5.0, 10.0, 17.0, 30.0):
        pool = PoolState(1e4, 2.8e7, fee_bps / 1e4)
        profits.append(attack_profit(5_000.0, POS5, pool, STD).total_profit)
    assert all(hi >= lo for hi, lo in zip(profits, profits[1:]))


def test_no_fee_limit_matches_liquidation_value():
    pool0 = PoolState(1e4, 2.8e7, 0.0)
    limit = 2.8e7 * POS5.collateral / (1e4 + POS5.collateral)  # B0*c/(A0 + c)
    # monotone convergence toward the limit as the attack grows; the
    # buy-back leg's A2 - delta cancellation puts a float noise floor of
    # roughly eps * delta / (A0 + c) on the largest sizes
    gaps = []
    for mult in (1e3, 1e4, 1e5, 1e6):
        delta = mult * 1e4
        res = attack_profit(delta, POS5, pool0, STD)
        noise = 4.0 * 2.2e-16 * delta / (1e4 + POS5.collateral) * pool0.reserve_debt
        gaps.append((abs(res.total_profit - limit), noise))
    assert all(a[0] > b[0] - b[1] for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1][0] <= 0.01 * limit


def test_positive_fee_divergence_near_ceiling():
    ceiling = delta_bounds(POS5, POOL5, STD).no_revert
    near = attack_profit(0.99 * ceiling, POS5, POOL5, STD)
    nearer = attack_profit(0.9999 * ceiling, POS5, POOL5, STD)
    assert near.feasible and nearer.feasible
    assert nearer.total_profit < near.total_profit < 0.0
    beyond = attack_profit(1.01 * ceiling, POS5, POOL5, STD)
    assert not beyond.feasible
    assert beyond.total_profit is None and beyond.buyback_cost is None


def test_baddebt_cap_of_a_subnormal_debt_is_infinite():
    # b*(1-fee)**2*(1+bonus) underflows to 0, which the cap divided by.
    pos, pool = LoanPosition(1.0, 5e-324), PoolState(1.0, 1.0, 0.5)
    assert delta_bounds(pos, pool, STD).baddebt_cap == math.inf
    out = optimize_attack(pos, pool, STD)
    assert out.search_hi == pytest.approx(3.0, rel=1e-5)  # the no-revert ceiling binds
    assert out.delta == 0.0 and out.result.total_profit == 0.0


def test_best_positive_profit_leaves_out_a_zero_size_on_the_grid():
    # HF 0.9: the trigger is 0, so the coarse grid holds size 0, which earns
    # more than every positive size.
    out = optimize_attack(LoanPosition(12.100840336134453, 32_000.0), POOL5, STD)
    assert out.bounds.trigger == 0.0 and out.delta == 0.0
    assert out.best_positive_profit < out.result.total_profit


def test_optimizer_rides_monotone_profile_to_the_cap():
    # No fee: profit is increasing past the trigger, so the optimum sits at
    # the top of the searched range (the bad-debt robustness cap).
    pos = LoanPosition(6.0, 10_000.0)
    p0 = 1.05 * pos.debt / (STD.haircut * pos.collateral)
    pool = pool_at(p0)
    out = optimize_attack(pos, pool, STD)
    assert out.delta == pytest.approx(out.search_hi, rel=1e-6)
    assert out.result.total_profit > 0.0


def test_optimizer_refinement_never_loses(monkeypatch):
    pool = PoolState(1e4, 2.8e7, 0.0005)
    fine = optimize_attack(POS5, pool, STD)
    monkeypatch.setattr(oevsim.attack, "_COARSE_POINTS", 48)
    coarse = optimize_attack(POS5, pool, STD)
    assert fine.result.total_profit >= coarse.result.total_profit * (1 - 1e-9)
    assert coarse.result.total_profit > 0.0


@pytest.fixture
def attack_sizes(monkeypatch):
    """The size of each ``attack_profit`` call the attack module makes."""
    sizes = []
    attack_profit = oevsim.attack.attack_profit
    monkeypatch.setattr(oevsim.attack, "attack_profit",
                        lambda *args: sizes.append(args[0]) or attack_profit(*args))
    return sizes


def test_golden_section_steps_build_no_attack_result(attack_sizes):
    # The search compares floats; only the returned size is an attack_profit call.
    cfg = load_config(BUNDLED_ATTACK)
    position, pool = cfg.state_at()
    out = optimize_attack(position, pool, cfg.risk, (cfg.attack.delta_min, cfg.attack.delta_max),
                          cfg.convention)
    assert out.coarse_points > 0
    assert attack_sizes == [out.delta]


def test_critical_fee_builds_one_attack_result_per_probe(attack_sizes):
    cfg = load_config(BUNDLED_ATTACK)
    position, pool = cfg.state_at()
    res = critical_fee(position, pool, cfg.risk, cfg.attack.fee_low, cfg.attack.fee_high,
                       cfg.convention)
    assert len(attack_sizes) == len(res.trace) > 0


def test_optimize_attack_through_near_equal_exhaustion_bounds():
    # Near delta = 39.445 the collateral bound and the debt-exhaustion bound
    # agree to about 3e-11 and HF is 0/0 at the end of the marginal run: its
    # health-factor residual of -5.27e-06 is cancellation noise, so the root
    # sits inside the exhaustion window and the polynomial check applies.
    pos, pool, risk, _ = named_state("cause_b")[1]
    out = optimize_attack(pos, pool, risk)
    assert out.result.feasible and math.isfinite(out.result.total_profit)


def test_optimizer_empty_range_returns_zero_attack():
    out = optimize_attack(POS5, POOL5, STD, delta_range=(0.0, 0.0))
    assert out.delta == 0.0 and out.result.total_profit == 0.0


README_POOL = PoolState(10_000.0, 28_000_000.0, 0.0)  # POOL5 without its fee


@pytest.mark.parametrize("pool", [POOL5, README_POOL], ids=["30bps", "no_fee"])
@pytest.mark.parametrize("delta_min", [-5.0, 0.0, 5000.0, 1e12],
                         ids=["negative", "zero", "inside", "above_ceiling"])
def test_optimizer_records_the_bounds_and_interval_it_searched(pool, delta_min):
    out = optimize_attack(POS5, pool, STD, delta_range=(delta_min, math.inf))
    assert out.bounds == delta_bounds(POS5, pool, STD)
    assert out.search_lo == max(0.0, delta_min)
    assert (out.search_lo > out.search_hi) == (delta_min == 1e12)


def test_optimizer_on_a_zero_width_range_evaluates_that_size(monkeypatch):
    brackets = []
    golden_max = oevsim.attack.golden_max
    monkeypatch.setattr(oevsim.attack, "golden_max", lambda f, lo, hi, tol:
                        brackets.append((lo, hi)) or golden_max(f, lo, hi, tol))
    out = optimize_attack(POS5, README_POOL, STD, delta_range=(5000.0, 5000.0))
    assert brackets == [(5000.0, 5000.0)]
    assert out.delta == 5000.0
    assert out.result.total_profit == attack_profit(5000.0, POS5, README_POOL, STD).total_profit > 0


@pytest.mark.parametrize("name", ["seeded", "a1", "a2", "a3", "bundled"])
def test_the_golden_pass_prices_no_coarse_size_again(monkeypatch, name):
    """Each search prices 0 first, then golden steps; no step repeats a size of its batch."""
    grids, priced = [], []
    batch, total = oevsim.attack.attack_profit_batch, oevsim.attack._sandwich_total
    monkeypatch.setattr(oevsim.attack, "attack_profit_batch",
                        lambda grid, *args: grids.append(grid.tolist()) or batch(grid, *args))
    monkeypatch.setattr(oevsim.attack, "_sandwich_total",
                        lambda delta, *args: priced.append(delta) or total(delta, *args))
    if name == "seeded":
        conventions = itertools.cycle(RepayConvention)
        states = [(i.position, i.pool, i.params, next(conventions))
                  for i in random_instances(30, seed=23)]
    elif name == "bundled":
        cfg = load_config(BUNDLED_ATTACK)
        states = [(*cfg.state_at(), cfg.risk, cfg.convention)]
    else:
        states = [named_state(name)[1]]
    golden = 0
    for position, pool, params, convention in states:
        grids.clear()
        priced.clear()
        optimize_attack(position, pool, params, convention=convention)
        if grids:
            assert priced[0] == 0.0
            assert not set(priced[1:]) & set(grids[0])
            golden += len(priced) > 1
    assert golden > 0


def test_optimizer_returns_the_zero_attack_when_every_coarse_size_reverts():
    # The range is the top 0.1 % under the no-revert ceiling, which counts all
    # the collateral as sold into the pool; at a 6 % fee the fee gate sells none
    # of it, so the buy-back reverts at every coarse size.
    pool = PoolState(1e4, 2.8e7, 0.06)
    out = optimize_attack(POS5, pool, STD, delta_range=(1e4 / 0.06 * 1.001, math.inf))
    assert out.delta == 0.0 and out.coarse_points == 512
    assert out.best_positive_profit == -math.inf


def test_critical_fee_requires_sign_change():
    # Interval entirely above bonus parity: liquidation itself never pays.
    parity = STD.bonus / (1.0 + STD.bonus)
    with pytest.raises(NoThresholdError):
        critical_fee(POS5, POOL5, STD, parity, min(parity * 1.5, 0.2))
    # Degenerate position: nothing to liquidate at any fee.
    with pytest.raises(NoThresholdError):
        critical_fee(LoanPosition(0.0, 32_000.0), POOL5, STD, 0.0, 0.003)


def test_critical_fee_refuses_a_non_monotone_profile(non_monotone_fee_profile):
    with pytest.raises(NonMonotoneFeeProfileError,
                       match="recovered after turning non-positive") as err:
        critical_fee(POS5, POOL5, STD, 0.0, 0.003)
    assert isinstance(err.value, NoThresholdError)
    assert [p for _, p in err.value.probes] == [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]
    assert "non-positive [g(0)=1, g(0.0005)=1, g(0.001)=0, " in str(err.value)


def test_critical_fee_probes_evenly_from_a_positive_low_end(monkeypatch):
    # A profile positive below 25 bps, on [10, 40] bps: the seven opening probes
    # split the interval into sixths from its low end, then the bisection starts.
    def optimize_attack(position, pool, params, convention):
        return SimpleNamespace(best_positive_profit=1.0 if pool.fee < 0.0025 else 0.0)

    monkeypatch.setattr(oevsim.attack, "optimize_attack", optimize_attack)
    fee_low, fee_high = 0.001, 0.004
    res = critical_fee(POS5, POOL5, STD, fee_low, fee_high)
    probes = [fee for fee, _ in res.trace[:7]]
    assert probes == pytest.approx([fee_low + (fee_high - fee_low) * i / 6 for i in range(7)],
                                   rel=1e-15)
    assert res.bracket[0] < 0.0025 <= res.fee_star == res.bracket[1]


def test_critical_fee_trace_brackets_result():
    res = critical_fee(POS5, POOL5, STD, 0.0, 0.003)
    lo, hi = res.bracket
    assert lo < res.fee_star <= hi
    positives = [f for f, v in res.trace if v > 0.0]
    nonpositives = [f for f, v in res.trace if v <= 0.0]
    assert max(positives) < res.fee_star <= min(nonpositives)
    assert hi - lo <= 1e-5


# ROADMAP item 1's reproducers: a profitable spike at a binding switch falls
# between two coarse points of the attack search.  Each entry is a narrow
# range around the spike and a size inside it.
SPIKES = {"A1": ((51.0, 54.0), 52.3647), "A2": ((214957.0, 221845.0), 216735.0),
          "A3": ((94.0, 97.0), 95.417)}

missed_spike = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the coarse grid misses a spike at a binding switch")


@missed_spike
@pytest.mark.parametrize("name", sorted(SPIKES))
def test_a_full_search_finds_what_a_narrow_one_does(name):
    position, pool, risk, convention = named_state(name.lower())[1]
    full = optimize_attack(position, pool, risk, convention=convention)
    narrow = optimize_attack(position, pool, risk, SPIKES[name][0], convention)
    best = narrow.best_positive_profit
    assert full.best_positive_profit >= best - 1e-9 * abs(best)


@missed_spike
@pytest.mark.parametrize("name", sorted(SPIKES))
def test_the_attack_command_finds_the_spike(capsys, name):
    assert main(["attack", str(named_state(name.lower())[0])]) == 0
    total = next(line.split()[-1] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  total profit"))
    assert float(total) > 0.0


@missed_spike
@pytest.mark.parametrize("name", sorted(SPIKES))
def test_the_spike_is_unprofitable_at_the_critical_fee(name):
    cfg = load_config(named_state(name.lower())[0])
    position, pool = cfg.state_at()
    res = critical_fee(position, pool, cfg.risk, cfg.attack.fee_low, cfg.attack.fee_high,
                       cfg.convention)
    at_fee = PoolState(pool.reserve_collateral, pool.reserve_debt, res.fee_star)
    spike = attack_profit(SPIKES[name][1], position, at_fee, cfg.risk, cfg.convention)
    assert spike.total_profit <= 1e-12 * pool.reserve_debt


@pytest.mark.parametrize("name", [*sorted(SPIKES), "bundled"])
def test_best_positive_profit_does_not_rise_with_the_fee(name):
    cfg = load_config(BUNDLED_ATTACK if name == "bundled" else named_state(name.lower())[0])
    position, pool = cfg.state_at()
    pools = [PoolState(pool.reserve_collateral, pool.reserve_debt, float(fee))
             for fee in np.linspace(0.0, 0.006, 13)]
    best = [optimize_attack(position, at_fee, cfg.risk, convention=cfg.convention)
            .best_positive_profit for at_fee in pools]
    assert all(later <= earlier for earlier, later in zip(best, best[1:])), best
