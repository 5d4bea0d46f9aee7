"""The batch path gives the scalar path's bits.

``attack_profit_batch``, ``best_strategy_batch`` (through it) and
``run_liquidation_batch`` are compared row by row with loops of the scalar
calls: ``.hex()`` of every profit, cost, the initial health factor, the bad
debt and the post-pool reserves, and the flags and both bindings.  Rows the
masks cannot settle go to the scalar ``bound_closing``; the bundled attack
grid needs none, and a row whose self-check fails makes the batch raise as
the scalar call does.  ``cli.run_sweep``, one batch call per sweep, is
compared with rows built point by point from the scalar calls.
"""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

import oevsim.lending
from oevsim.amm import PoolState
from oevsim.attack import (
    GUARD_BAND,
    _coarse_grid,
    attack_profit,
    attack_profit_batch,
    delta_bounds,
    optimize_attack,
)
from oevsim.cli import main, run_sweep
from oevsim.config import load_config, parse_config
from oevsim.engine import best_strategy, run_liquidation, run_liquidation_batch
from oevsim.lending import (
    DEFAULT_CONVENTION,
    LoanPosition,
    RecoveryRootError,
    RepayConvention,
    RiskParams,
    bound_collateral,
    debt_exhaustion_bound,
)
from oevsim.oracles import random_instances

BUNDLED = Path(__file__).resolve().parent.parent / "scenarios" / "attack_delta_sweep.yaml"
FEES_BPS = (0.0, 1.0, 5.0, 30.0, 100.0)
CONVENTIONS = list(RepayConvention)

# Cause B of the recovery-root self-check: at this size the collateral and
# debt-exhaustion bounds of the post-front state nearly tie.
CAUSE_B = (LoanPosition(0.009783424003038013, 0.0001522178433067494),
           PoolState(48.579849532452165, 2.506480705390799, 1e-4),
           RiskParams(0.5521458022613934, 0.01, 0.8520760834790868, 0.4688723566652169))
CAUSE_B_DELTA = float.fromhex("0x1.3b904db4b9ed5p+5")  # 39.44546071236042


def hx(value) -> str:
    return float(value).hex()


def search_hi(position, pool, params) -> float:
    bounds = delta_bounds(position, pool, params)
    return min(bounds.baddebt_cap, bounds.no_revert * (1.0 - GUARD_BAND))


def probe_deltas(position, pool, params, coarse_points) -> list[float]:
    """0, the trigger -/+ 1e-9, the coarse grid and sizes past the no-revert ceiling."""
    bounds = delta_bounds(position, pool, params)
    deltas = [0.0]
    if 0.0 < bounds.trigger < math.inf:
        deltas += [bounds.trigger * (1.0 - 1e-9), bounds.trigger, bounds.trigger * (1.0 + 1e-9)]
    hi = search_hi(position, pool, params)
    if 0.0 < hi < math.inf:
        deltas += _coarse_grid(bounds, 0.0, hi, coarse_points)
    if math.isfinite(bounds.no_revert):
        deltas += [bounds.no_revert * 1.01, bounds.no_revert * 10.0]
    else:
        deltas += [1e3 * pool.reserve_collateral]
    return deltas


def assert_attack_rows_match(deltas, position, pool, params, convention) -> None:
    batch = attack_profit_batch(deltas, position.collateral, position.debt,
                                pool.reserve_collateral, pool.reserve_debt, pool.fee,
                                params, convention)
    liq_cols = batch.liquidation
    for i, delta in enumerate(deltas):
        res = attack_profit(delta, position, pool, params, convention)
        liq = res.liquidation
        assert bool(batch.feasible[i]) is res.feasible, delta
        assert hx(batch.front_proceeds[i]) == hx(res.front_proceeds), delta
        if res.feasible:
            assert hx(batch.buyback_cost[i]) == hx(res.buyback_cost), delta
            assert hx(batch.total_profit[i]) == hx(res.total_profit), delta
        else:
            assert math.isnan(batch.buyback_cost[i]) and math.isnan(batch.total_profit[i])
        assert bool(batch.triggered[i]) is res.triggered
        assert_liquidation_row_matches(liq_cols, i, liq)


def assert_liquidation_row_matches(cols, i, res) -> None:
    """Row ``i`` of a LiquidationBatch against a scalar LiquidationResult."""
    for name in ("pi_liq", "pi_last", "pi_tot", "hf_initial", "bad_debt"):
        assert hx(getattr(cols, name)[i]) == hx(getattr(res, name)), name
    assert cols.binding[i] is res.binding
    assert cols.last_binding[i] is res.last_binding
    assert hx(cols.post_reserve_collateral[i]) == hx(res.post_pool.reserve_collateral)
    assert hx(cols.post_reserve_debt[i]) == hx(res.post_pool.reserve_debt)


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.value)
def test_attack_batch_matches_scalar_on_random_instances(seed, convention):
    for inst in random_instances(12, seed=seed, fees_bps=FEES_BPS, hf_range=(0.3, 1.5)):
        deltas = probe_deltas(inst.position, inst.pool, inst.params, coarse_points=24)
        assert_attack_rows_match(deltas, inst.position, inst.pool, inst.params, convention)


@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.value)
def test_attack_batch_matches_scalar_on_the_bundled_grid(convention):
    position, pool = load_config(BUNDLED).state_at()
    params = load_config(BUNDLED).risk
    deltas = probe_deltas(position, pool, params, coarse_points=512)
    assert_attack_rows_match(deltas, position, pool, params, convention)


def tied_states():
    """Collateral bound within 1e-12..1e-6 of the debt-exhaustion bound."""
    params = RiskParams(0.85, 0.05, 0.8, 0.5)
    for fee in (0.0, 0.003, 0.01):
        pool = PoolState(1000.0, 2e6, fee)
        for rel in (-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6):
            probe = LoanPosition(1.0, 1e4)
            x_b = debt_exhaustion_bound(probe, pool, params.bonus)
            position = LoanPosition(x_b * (1.0 + params.bonus) * (1.0 + rel), 1e4)
            assert bound_collateral(position, params.bonus) == pytest.approx(x_b, rel=2e-6)
            yield position, pool, params


def tiny_states():
    """Debts of 1e-16..1e-9 of a deep pool's debt reserve, HF 0.3..1.1."""
    params = RiskParams(0.9, 0.08, 0.4, 0.3)
    for fee in (0.0, 0.0013, 0.01):
        pool = PoolState(7.7e8, 2.4e8, fee)
        for scale in (1e-16, 1e-12, 1e-9):
            for hf0 in (0.3, 0.95, 1.1):
                debt = pool.reserve_debt * scale
                coll = hf0 * debt * pool.reserve_collateral / (params.haircut * pool.reserve_debt)
                yield LoanPosition(coll, debt), pool, params


def underwater_states():
    """Initial health factors of 0.002..0.05."""
    params = RiskParams(0.8, 0.1, 0.05, 0.5)
    for fee in (0.0, 0.0005, 0.01):
        pool = PoolState(5e4, 1e8, fee)
        for hf0 in (0.002, 0.01, 0.05):
            debt = 1e6
            coll = hf0 * debt * pool.reserve_collateral / (params.haircut * pool.reserve_debt)
            yield LoanPosition(coll, debt), pool, params


def large_states():
    """Debts of 1-5% of the debt reserve, where both recovery roots can be candidates."""
    params = RiskParams(0.8474198040351798, 0.09069497950069005, 0.623742000162547,
                        0.5884093475742838)
    for fee in (0.003, 0.004963713595178917):
        pool = PoolState(622316.7196125885, 77888841.53274588, fee)
        for share in (0.01, 0.0346592, 0.05):
            for hf0 in (0.9, 1.2, 1.5):
                debt = pool.reserve_debt * share
                coll = hf0 * debt * pool.reserve_collateral / (params.haircut * pool.reserve_debt)
                yield LoanPosition(coll, debt), pool, params


# Near-tie states whose marginal run ends on the debt-exhaustion bound
# (Binding.DEBT), as (position, pool, risk) fields.
DEBT_BOUND = (
    ((0.015355528703694497, 46.10668670947561),
     (509593.7502896663, 1636258678.0963778, 0.003060822851639204),
     (0.5965343397936747, 0.0693717735232655, 0.8571006390196689, 0.3850636894960152)),
    ((5.21240875361676e-06, 0.0007274224617887763),
     (5.456464513559346, 825.0329647502535, 0.003838489180928896),
     (0.6080621126537888, 0.08345608036819871, 0.7440738667023388, 0.8509237231045589)),
    ((2.2092480842855038e-06, 2.0449598377143114e-09),
     (11.290235741990355, 0.011424255075323866, 0.0),
     (0.518742583688175, 0.09316193359699798, 0.15912704438560826, 0.20742539027801277)),
)


def debt_and_empty_states():
    """Runs that end on the debt bound, and empty positions with and without the fee gate."""
    for position, pool, risk in DEBT_BOUND:
        yield LoanPosition(*position), PoolState(*pool), RiskParams(*risk)
    params = RiskParams(0.85, 0.05, 0.8, 0.5)
    for fee in (0.0, 0.003, 0.06):
        for position in (LoanPosition(0.0, 1e4), LoanPosition(5.0, 0.0), LoanPosition(0.0, 0.0)):
            yield position, PoolState(1000.0, 2e6, fee), params


@pytest.mark.parametrize("states", [tied_states, tiny_states, underwater_states, large_states,
                                    debt_and_empty_states],
                         ids=["tie", "tiny", "underwater", "large", "debt_and_empty"])
@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.value)
def test_attack_batch_matches_scalar_on_edge_states(states, convention):
    for position, pool, params in states():
        deltas = probe_deltas(position, pool, params, coarse_points=16)
        assert_attack_rows_match(deltas, position, pool, params, convention)


@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.value)
def test_run_liquidation_batch_matches_scalar_per_threshold_pair(convention):
    instances = random_instances(40, seed=21, fees_bps=FEES_BPS, hf_range=(0.01, 1.2))
    cf = np.array([0.6, 0.8, 1.0, 0.05] * 10)
    kappa = np.array([1.0, 0.5, 0.2, 0.05, 0.9] * 8)
    batch = run_liquidation_batch(
        [i.position.collateral for i in instances], [i.position.debt for i in instances],
        [i.pool.reserve_collateral for i in instances], [i.pool.reserve_debt for i in instances],
        [i.pool.fee for i in instances], instances[0].params, cf, kappa, convention)
    for k, inst in enumerate(instances):
        res = run_liquidation(inst.position, inst.pool, instances[0].params, float(cf[k]),
                              float(kappa[k]), convention)
        assert_liquidation_row_matches(batch, k, res)


def test_batch_raises_where_the_scalar_self_check_raises():
    position, pool, params = CAUSE_B
    with pytest.raises(RecoveryRootError):
        attack_profit(CAUSE_B_DELTA, position, pool, params)
    with pytest.raises(RecoveryRootError) as raised:
        attack_profit_batch([0.0, 1.0, CAUSE_B_DELTA, 50.0], position.collateral, position.debt,
                            pool.reserve_collateral, pool.reserve_debt, pool.fee, params)
    assert raised.value.position == position
    assert raised.value.convention is RepayConvention.EXECUTION_VALUE


def test_batch_raises_where_a_scalar_pool_is_invalid():
    # An infinite sale leaves a debt reserve of 0, which PoolState rejects.
    position, pool = LoanPosition(5.0, 0.0), PoolState(1000.0, 2e6, 0.0)
    params = RiskParams(0.85, 0.05, 0.8, 0.5)
    with pytest.raises(ValueError, match="reserve_debt must be > 0"):
        attack_profit(math.inf, position, pool, params)
    with pytest.raises(ValueError, match="reserve_debt must be > 0"):
        attack_profit_batch([1.0, math.inf], position.collateral, position.debt,
                            pool.reserve_collateral, pool.reserve_debt, pool.fee, params)


def test_bundled_attack_grid_needs_no_scalar_fallback(monkeypatch):
    position, pool = load_config(BUNDLED).state_at()
    params = load_config(BUNDLED).risk
    grid = _coarse_grid(delta_bounds(position, pool, params), 0.0,
                        search_hi(position, pool, params), 512)
    assert len(grid) == 514

    def fallback(*args, **kwargs):
        raise AssertionError("a grid row went to the scalar bound_closing")

    monkeypatch.setattr(oevsim.lending, "bound_closing", fallback)
    for convention in CONVENTIONS:
        batch = attack_profit_batch(grid, position.collateral, position.debt,
                                    pool.reserve_collateral, pool.reserve_debt, pool.fee,
                                    params, convention)
        assert batch.feasible.all()


def test_optimize_attack_returns_the_scalar_result_of_the_best_grid_point():
    position, pool = load_config(BUNDLED).state_at()
    params = load_config(BUNDLED).risk
    out = optimize_attack(position, pool, params)
    again = attack_profit(out.delta, position, pool, params)
    assert out.result == again


# Sweeps of a debt worth 5% of the pool's debt reserve, with a health factor
# of 0.986 (collateral form) or 0.75 at the base price of 2000: the price
# axis crosses the closing factor and 1, the fee axis crosses bonus parity
# (1 - 1/1.05, about 4.76%), and the delta axis runs past the no-revert
# ceiling (about 3.5e5) into reverting buy-backs.
SWEEPS = {
    "price": {"axis": "price", "start": 1000.0, "stop": 3000.0, "steps": 41},
    "pool_scale": {"axis": "pool_scale", "start": 0.05, "stop": 50.0, "steps": 25,
                   "spacing": "log"},
    "fee": {"axis": "fee", "start": 0.0, "stop": 0.08, "steps": 25},
    "delta": {"axis": "delta", "start": 0.0, "stop": 1.0e6, "steps": 25},
}
MODE_AXES = [("liquidation", "price"), ("liquidation", "pool_scale"), ("liquidation", "fee"),
             ("attack", "price"), ("attack", "pool_scale"), ("attack", "fee"),
             ("attack", "delta")]


def sweep_scenario(mode, axis, convention, position_form, pool_form) -> dict:
    pool = ({"reserve_collateral": 1000.0, "reserve_debt": 2.0e6} if pool_form == "reserves"
            else {"liquidity": 2.0e9, "price": 2000.0})
    position = ({"debt": 1.0e5, "collateral": 58.0} if position_form == "collateral"
                else {"debt": 1.0e5, "initial_health_factor": 0.75})
    return {
        "mode": mode, "convention": convention.value, "pool": {**pool, "fee": 0.003},
        "position": position,
        "risk": {"haircut": 0.85, "bonus": 0.05, "closing_factor": 0.8, "max_liq_fraction": 0.5},
        "sweep": SWEEPS[axis], "attack": {"delta_min": 30.0},
    }


def reference_rows(cfg) -> list[list]:
    """run_sweep's rows, built point by point from the scalar calls."""
    axis, rows = cfg.sweep.axis, []
    for value in cfg.sweep.values():
        key = {"price": "price", "pool_scale": "scale", "fee": "fee"}.get(axis)
        position, pool = cfg.state_at(**({key: value} if key else {}))
        if cfg.mode == "liquidation":
            res, strat = best_strategy(position, pool, cfg.risk, cfg.convention)
            rows.append([axis, value, res.hf_initial, res.pi_liq, res.pi_last, res.pi_tot,
                         res.binding.value, res.last_binding.value, strat.value, res.bad_debt])
            continue
        delta = value if axis == "delta" else cfg.attack.delta_min
        bounds = delta_bounds(position, pool, cfg.risk)
        res = attack_profit(delta, position, pool, cfg.risk, cfg.convention)
        rows.append([axis, value, res.delta, res.front_proceeds, res.liq_profit,
                     res.buyback_cost, res.total_profit, res.feasible, res.triggered,
                     bounds.trigger, bounds.baddebt_cap, bounds.no_revert])
    return rows


def comparable(row: list) -> list:
    """Types and values of a row: repr for floats (bits, signed zeros), the value otherwise."""
    return [(type(v), repr(v) if isinstance(v, float) else v) for v in row]


@pytest.mark.parametrize("pool_form", ["reserves", "liquidity"])
@pytest.mark.parametrize("position_form", ["collateral", "initial_health_factor"])
@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.value)
@pytest.mark.parametrize("mode,axis", MODE_AXES)
def test_sweep_rows_match_scalar_calls(mode, axis, convention, position_form, pool_form):
    cfg = parse_config(sweep_scenario(mode, axis, convention, position_form, pool_form))
    _, rows = run_sweep(cfg)
    want = reference_rows(cfg)
    assert [comparable(r) for r in rows] == [comparable(r) for r in want]
    if axis == "delta":
        assert {r[7] for r in rows} == {True, False}


def test_sweep_scenarios_reach_the_fee_gate_both_strategies_and_three_closing_caps():
    def column(axis, position_form, index):
        cfg = parse_config(sweep_scenario("liquidation", axis, DEFAULT_CONVENTION, position_form,
                                          "reserves"))
        return {row[index] for row in run_sweep(cfg)[1]}

    assert "fee_gate" in column("fee", "initial_health_factor", 6)
    assert column("fee", "collateral", 7) == {"none", "kappa_cap", "interior_max"}
    assert column("price", "collateral", 8) == {"cf_full", "one_kappa"}


def test_attack_sweep_csv_leaves_reverting_rows_empty(tmp_path):
    scenario = sweep_scenario("attack", "delta", DEFAULT_CONVENTION, "collateral", "reserves")
    path, out = tmp_path / "sweep.yaml", tmp_path / "sweep.csv"
    path.write_text(yaml.safe_dump(scenario))
    assert main(["sweep", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    assert "nan" not in text
    header, *lines = [line.split(",") for line in text.splitlines()]
    cost, total, feasible = (header.index(k) for k in ("buyback_cost", "total_profit", "feasible"))
    reverting = [line for line in lines if line[feasible] == "false"]
    assert reverting and all(line[cost] == line[total] == "" for line in reverting)
    assert all(line[cost] and line[total] for line in lines if line[feasible] == "true")
