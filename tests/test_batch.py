"""The batch path gives the scalar path's bits.

``attack_profit_batch``, ``best_strategy_batch`` (through it) and
``run_liquidation_batch`` are compared row by row with loops of the scalar
calls: ``.hex()`` of every profit, cost, the initial health factor, the bad
debt and the post-pool reserves, and the flags and both bindings.  Rows the
masks cannot settle go to the scalar ``bound_closing``; the bundled attack
grid needs none, and a row whose self-check fails makes the batch raise as
the scalar call does.  ``cli.run_sweep``, one batch call per sweep, is
compared with rows built point by point from the scalar calls, and
``delta_bounds_batch`` with the scalar float formulas it replaced.
"""

import functools
import itertools
import math
import random

import numpy as np
import pytest
import yaml

import oevsim.attack
import oevsim.lending
from oevsim._numerics import float_columns
from oevsim.amm import PoolState
from oevsim.attack import (
    GUARD_BAND,
    _coarse_grid,
    attack_profit,
    attack_profit_batch,
    delta_bounds,
    delta_bounds_batch,
    optimize_attack,
)
from oevsim.cli import main, run_sweep
from oevsim.config import load_config, parse_config
from oevsim.engine import (
    LastBinding,
    best_strategy,
    best_strategy_batch,
    run_liquidation,
    run_liquidation_batch,
)
from oevsim.lending import (
    DEFAULT_CONVENTION,
    LoanPosition,
    RecoveryRootError,
    RepayConvention,
    RiskParams,
    _x_collateral,
    bound_closing_batch,
    compute_bounds,
)
from oevsim.oracles import random_instances

from conftest import BUNDLED_ATTACK, STD, closing_bound, edge, edge_objects, named_state

FEES_BPS = (0.0, 1.0, 5.0, 30.0, 100.0)
CONVENTIONS = list(RepayConvention)

# The attack size at which cause B's post-front bounds nearly tie.
CAUSE_B_DELTA = float.fromhex("0x1.3b904db4b9ed5p+5")  # 39.44546071236042
SHORT_OF_WINDOW = named_state("short_of_window")[1]
# The bundled attack scenario's position, pool and risk parameters.
_BUNDLED = load_config(BUNDLED_ATTACK)
BUNDLED_STATE = (*_BUNDLED.state_at(), _BUNDLED.risk)


def hx(value) -> str:
    return float(value).hex()


def delta_bounds_reference(position, pool, params) -> tuple[float, float, float]:
    """The trigger, bad-debt cap and no-revert ceiling as scalar float formulas.

    The cap squares with a float's ``** 2``, which is libm ``pow``.
    """
    a0, b0, g = pool.reserve_collateral, pool.reserve_debt, pool.fee
    c, b = position.collateral, position.debt
    trigger = (math.inf if b == 0.0 else
               max(0.0, (math.sqrt(params.haircut * c * a0 * b0 / b) - a0) / (1.0 - g)))
    den = b * (1.0 - g) ** 2 * (1.0 + params.bonus)
    cap = math.inf if den == 0.0 else max(0.0, a0 * b0 / den - a0 / (1.0 - g))
    no_revert = math.inf if g == 0.0 else (a0 + (1.0 - g) * c) / g
    return trigger, cap, no_revert


# Doubles whose product x*x (numpy's x**2) is one ulp away from libm pow(x, 2).
SQUARES_APART = [float.fromhex(h) for h in ("0x1.c6f59452b5c02p-1", "0x1.fca4a5264cf14p-1",
                                            "0x1.b9b651e8ac460p-5")]


def test_float_power_squares_as_libm_pow():
    # The batch path squares with np.float_power to get a float's ** 2 bits.
    # A numpy whose float_power stops calling libm pow fails here by name.
    rng = np.random.default_rng(17)
    draws = rng.uniform(0.5, 1.0, 10_000) * np.exp2(rng.integers(-40, 40, 10_000))
    x = [*SQUARES_APART, *draws.tolist()]
    want = [hx(v ** 2) for v in x]
    assert [hx(v) for v in np.float_power(np.array(x), 2.0)] == want
    assert all(hx(v * v) != w for v, w in zip(SQUARES_APART, want))
    assert sum(hx(v * v) != w for v, w in zip(x, want)) > len(SQUARES_APART)


def test_delta_bounds_batch_matches_the_scalar_formulas():
    rng = np.random.default_rng(23)
    n = 2000
    c, b = 10.0 ** rng.uniform(-12, 12, n), 10.0 ** rng.uniform(-12, 12, n)
    a0, b0 = 10.0 ** rng.uniform(-6, 12, n), 10.0 ** rng.uniform(-6, 12, n)
    fee = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 0.1, n))
    # Edge rows: zero debt, zero fee, zero collateral, a subnormal debt whose
    # cap denominator underflows to 0, and fees whose 1 - fee is a square apart.
    edges = [(5.0, 0.0, 1e3, 2e6, 0.003), (5.0, 1e4, 1e3, 2e6, 0.0), (0.0, 1e4, 1e3, 2e6, 0.003),
             (1.0, 5e-324, 1.0, 1.0, 0.5), (0.0, 0.0, 1.0, 1.0, 0.0),
             *((6.0, 1e4, 1e3, 2e6, 1.0 - x) for x in SQUARES_APART[:2])]
    cols = [np.concatenate([col, edge]) for col, edge in zip((c, b, a0, b0, fee), zip(*edges))]
    for params in (STD, RiskParams(0.31, 0.0, 0.5, 1.0), RiskParams(1.0, 0.17, 1.0, 0.2)):
        got = delta_bounds_batch(*cols, params)
        rows = [(LoanPosition(ci, bi), PoolState(ai, bri, gi))
                for ci, bi, ai, bri, gi in zip(*(col.tolist() for col in cols))]
        want = [delta_bounds_reference(position, pool, params) for position, pool in rows]
        assert [[hx(v) for v in col] for col in got] == [[hx(v) for v in col] for col in zip(*want)]
        for position, pool in rows[-len(edges):]:
            assert tuple(delta_bounds(position, pool, params)) == \
                delta_bounds_reference(position, pool, params)


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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oevsim.attack, "_COARSE_POINTS", coarse_points)
            deltas += _coarse_grid(bounds, 0.0, hi).tolist()
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
    position, pool, params = BUNDLED_STATE
    deltas = probe_deltas(position, pool, params, coarse_points=512)
    assert_attack_rows_match(deltas, position, pool, params, convention)


def edge_family(family: str, n: int = 27) -> list:
    """The first ``n`` states of one ``perfbench/edge.py`` family on a seed of its own."""
    rng = random.Random(f"tests:test_batch:{family}")
    draws = (edge.draw_state(rng) for _ in itertools.count())
    return [edge_objects(s) for _, s in itertools.islice((d for d in draws if d[0] == family), n)]


def tie_states() -> list:
    """The tie family: collateral bounds within 1e-6 of the debt bound, one exactly on it."""
    states = edge_family("tie")
    gaps = [abs(_x_collateral(position.collateral, params.bonus)
                / compute_bounds(position, pool, params, 1.0, 1.0)[0].x_debt_full - 1.0)
            for position, pool, params in states]
    assert max(gaps) <= 1e-6 and min(gaps) == 0.0
    return states


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
    params = STD
    for fee in (0.0, 0.003, 0.06):
        for position in (LoanPosition(0.0, 1e4), LoanPosition(5.0, 0.0), LoanPosition(0.0, 0.0)):
            yield position, PoolState(1000.0, 2e6, fee), params


@pytest.mark.parametrize("states", [tie_states, *(functools.partial(edge_family, family)
                                                  for family in ("tiny", "underwater")),
                                    large_states, debt_and_empty_states],
                         ids=["tie", "tiny", "underwater", "large", "debt_and_empty"])
@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.value)
def test_attack_batch_matches_scalar_on_edge_states(states, convention):
    for position, pool, params in states():
        deltas = probe_deltas(position, pool, params, coarse_points=16)
        assert_attack_rows_match(deltas, position, pool, params, convention)


@pytest.mark.parametrize("closing_factor, max_liq_fraction",
                         [(0.05, 1.0), (0.6, 0.9), (0.8, 0.5), (1.0, 0.05)])
@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.value)
def test_run_liquidation_batch_matches_scalar_per_threshold_pair(closing_factor, max_liq_fraction,
                                                                 convention):
    instances = random_instances(40, seed=21, fees_bps=FEES_BPS, hf_range=(0.01, 1.2))
    base = instances[0].params
    params = RiskParams(base.haircut, base.bonus, closing_factor, max_liq_fraction)
    halves = run_liquidation_batch(
        [i.position.collateral for i in instances], [i.position.debt for i in instances],
        [i.pool.reserve_collateral for i in instances], [i.pool.reserve_debt for i in instances],
        [i.pool.fee for i in instances], params, convention)
    for batch, (cf_target, kappa) in zip(halves, [(closing_factor, 1.0), (1.0, max_liq_fraction)]):
        for k, inst in enumerate(instances):
            res = run_liquidation(inst.position, inst.pool, params, cf_target, kappa, convention)
            assert_liquidation_row_matches(batch, k, res)


def test_a_kappa_cap_equal_to_the_interior_optimum_binds_in_both_paths():
    position, pool, params, convention = named_state("kappa_tie")[1]
    res = run_liquidation(position, pool, params, 1.0, params.max_liq_fraction, convention)
    _, capped = run_liquidation_batch(position.collateral, position.debt, pool.reserve_collateral,
                                      pool.reserve_debt, pool.fee, params, convention)
    assert res.last_binding is LastBinding.KAPPA_CAP
    assert_liquidation_row_matches(capped, 0, res)


@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.value)
def test_batch_matches_scalar_at_the_cause_b_size(convention):
    position, pool, params, _ = named_state("cause_b")[1]
    assert_attack_rows_match([0.0, 1.0, CAUSE_B_DELTA, 50.0], position, pool, params, convention)


@pytest.mark.usefixtures("broken_health_factor_check")
def test_batch_raises_where_the_scalar_self_check_raises():
    position, pool, params, _ = SHORT_OF_WINDOW
    with pytest.raises(RecoveryRootError):
        attack_profit(0.0, position, pool, params)
    with pytest.raises(RecoveryRootError) as raised:
        attack_profit_batch([1.0, 0.0, 2.0], position.collateral, position.debt,
                            pool.reserve_collateral, pool.reserve_debt, pool.fee, params)
    assert raised.value.position == position
    assert raised.value.convention is RepayConvention.EXECUTION_VALUE


@pytest.mark.usefixtures("broken_polynomial_check")
def test_batch_raises_where_the_scalar_polynomial_self_check_raises():
    position, pool, params, _ = named_state("at_exhaustion")[1]
    with pytest.raises(RecoveryRootError) as want:
        best_strategy(position, pool, params)
    with pytest.raises(RecoveryRootError) as got:
        best_strategy_batch(position.collateral, position.debt, pool.reserve_collateral,
                            pool.reserve_debt, pool.fee, params)
    assert want.value.check == got.value.check == "polynomial self-check"
    assert str(got.value) == str(want.value)


def test_refine_takes_no_debt_exhaustion_pole_for_a_crossing(monkeypatch):
    # The health factor goes to +inf as a run repays the whole debt, and
    # stays +inf past that point, so the gap's jump there is no crossing.
    # Shifted up by 1.0, the health factor never comes down to cf_target 1.0.
    position, pool, params, _ = SHORT_OF_WINDOW
    args = (position, pool, params.haircut, params.bonus, 1.0)
    assert closing_bound(*args).x == 7.813165449634398e-07
    hf_after = oevsim.lending._hf_after
    monkeypatch.setattr(oevsim.lending, "_hf_after", lambda *a: hf_after(*a) + 1.0)
    with pytest.raises(RecoveryRootError) as raised:
        closing_bound(*args)
    assert raised.value.check == "self-check"
    assert raised.value.residual == pytest.approx(1.0, abs=1e-8)
    columns = [np.array([v]) for v in (position.collateral, position.debt,
                                       pool.reserve_collateral, pool.reserve_debt, pool.fee, 1.0)]
    with pytest.raises(RecoveryRootError):
        bound_closing_batch(*columns[:5], params.haircut, params.bonus, columns[5],
                            DEFAULT_CONVENTION)


def test_bound_closing_batch_builds_no_state_for_its_fallback_rows(monkeypatch):
    # SHORT_OF_WINDOW's root takes the refine and the second row is debt-free,
    # so both rows go to the scalar bound_closing, on the rows' floats.
    position, pool, params, _ = SHORT_OF_WINDOW
    c, b, a, b_res, fee = (np.array([v, w]) for v, w in zip(
        (position.collateral, position.debt, pool.reserve_collateral, pool.reserve_debt, pool.fee),
        (5.0, 0.0, 1000.0, 2e6, 0.003)))
    bound_closing, solved, built = oevsim.lending.bound_closing, [], []
    monkeypatch.setattr(oevsim.lending, "bound_closing",
                        lambda *args: solved.append(args) or bound_closing(*args))
    for cls in (LoanPosition, PoolState):
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
    x = bound_closing_batch(c, b, a, b_res, fee, params.haircut, params.bonus, np.ones(2),
                            DEFAULT_CONVENTION)
    assert x.tolist() == [7.813165449634398e-07, math.inf]
    assert len(solved) == 2
    assert built == []


def test_batch_raises_where_a_scalar_pool_is_invalid():
    # An infinite sale leaves a debt reserve of 0, which PoolState rejects.
    position, pool = LoanPosition(5.0, 0.0), PoolState(1000.0, 2e6, 0.0)
    params = STD
    with pytest.raises(ValueError, match="reserve_debt must be > 0"):
        attack_profit(math.inf, position, pool, params)
    with pytest.raises(ValueError, match="reserve_debt must be > 0"):
        attack_profit_batch([1.0, math.inf], position.collateral, position.debt,
                            pool.reserve_collateral, pool.reserve_debt, pool.fee, params)


def test_bundled_attack_grid_needs_no_scalar_fallback(monkeypatch):
    position, pool, params = BUNDLED_STATE
    grid = _coarse_grid(delta_bounds(position, pool, params), 0.0,
                        search_hi(position, pool, params))
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
    position, pool, params = BUNDLED_STATE
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


def reference_state(cfg, value: float) -> tuple[LoanPosition, PoolState]:
    """The state at one sweep value, from the scenario's fields with math.sqrt."""
    axis, spec = cfg.sweep.axis, cfg.pool
    price = value if axis == "price" else None
    s = value if axis == "pool_scale" else 1.0
    fee = value if axis == "fee" else spec.fee
    if spec.liquidity is not None:
        p = spec.price if price is None else price
        a0, b0 = math.sqrt(spec.liquidity / p), math.sqrt(spec.liquidity * p)
    else:
        a0, b0 = spec.reserve_collateral, spec.reserve_debt
        if price is not None:
            k = a0 * b0
            a0, b0 = math.sqrt(k / price), math.sqrt(k * price)
    pool = PoolState(a0 * s, b0 * s, fee)
    position = cfg.position
    if position.collateral is not None:
        return LoanPosition(position.collateral, position.debt), pool
    c = (position.initial_health_factor * position.debt * pool.reserve_collateral
         / (cfg.risk.haircut * pool.reserve_debt))
    return LoanPosition(c, position.debt), pool


def reference_rows(cfg) -> list[list]:
    """run_sweep's rows, built point by point from the scalar calls."""
    axis, rows = cfg.sweep.axis, []
    for value in cfg.sweep.values():
        position, pool = reference_state(cfg, value)
        if cfg.mode == "liquidation":
            res, strat = best_strategy(position, pool, cfg.risk, cfg.convention)
            rows.append([axis, value, res.hf_initial, res.pi_liq, res.pi_last, res.pi_tot,
                         res.binding.value, res.last_binding.value, strat.value, res.bad_debt])
            continue
        delta = value if axis == "delta" else cfg.attack.delta_min
        res = attack_profit(delta, position, pool, cfg.risk, cfg.convention)
        rows.append([axis, value, res.delta, res.front_proceeds, res.liq_profit,
                     res.buyback_cost, res.total_profit, res.feasible, res.triggered,
                     *delta_bounds_reference(position, pool, cfg.risk)])
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
    rows = [list(row) for row in zip(*run_sweep(cfg)[1])]
    want = reference_rows(cfg)
    assert [comparable(r) for r in rows] == [comparable(r) for r in want]
    if axis == "delta":
        assert {r[7] for r in rows} == {True, False}


def states_of(columns) -> list[tuple[LoanPosition, PoolState]]:
    """Each row of state columns as a position and a pool."""
    return [(LoanPosition(c, d), PoolState(a, b, g))
            for c, d, a, b, g in zip(*(col.tolist() for col in columns))]


@pytest.mark.parametrize("pool_form", ["reserves", "liquidity"])
@pytest.mark.parametrize("position_form", ["collateral", "initial_health_factor"])
@pytest.mark.parametrize("spacing", ["linear", "log"])
@pytest.mark.parametrize("axis, start, stop", [("price", 1000.0, 3000.0),
                                               ("pool_scale", 0.05, 50.0), ("fee", 1e-4, 0.08)])
def test_sweep_columns_carry_the_scalar_states_bits(axis, start, stop, spacing, position_form,
                                                    pool_form):
    doc = sweep_scenario("liquidation", axis, DEFAULT_CONVENTION, position_form, pool_form)
    doc["sweep"] = {"axis": axis, "start": start, "stop": stop, "steps": 37, "spacing": spacing}
    cfg = parse_config(doc)
    values = cfg.sweep.values()
    want = [reference_state(cfg, v) for v in values]
    columns = cfg.columns(values)
    fields = [[pos.collateral for pos, _ in want], [pos.debt for pos, _ in want],
              [pool.reserve_collateral for _, pool in want],
              [pool.reserve_debt for _, pool in want], [pool.fee for _, pool in want]]
    assert [[hx(v) for v in col] for col in columns] == [[hx(v) for v in col] for col in fields]
    assert states_of(columns) == want
    assert [states_of(cfg.columns([v]))[0] for v in values[::9]] == want[::9]


SPECIAL = np.array([-0.0, math.nan, math.inf, -math.inf])
COLUMN_CASES = {
    "scalars": (1.5, -0.0, math.nan, math.inf, -math.inf),
    "zero_d": tuple(np.asarray(v) for v in SPECIAL),
    "length_n": (SPECIAL, SPECIAL[::-1], np.arange(4.0)),
    "mixed": (2.0, np.asarray(-0.0), SPECIAL, np.array([math.nan]), [1, 2, 3, 4]),
    "length_1": (np.array([-0.0]), np.array([math.inf]), 3.0),
}


@pytest.mark.parametrize("values", COLUMN_CASES.values(), ids=COLUMN_CASES.keys())
def test_float_columns_give_the_broadcast_arrays_bits(values):
    want = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in values))
    for rows in (None, len(want[0])):
        got = float_columns(*values, rows=rows)
        assert [(col.dtype, col.shape, col.tobytes()) for col in got] == \
            [(col.dtype, col.shape, col.tobytes()) for col in want]


@pytest.mark.parametrize("values, rows", [((np.zeros(2), np.zeros(3)), None),
                                          ((1.0, np.zeros(3)), 2), ((np.zeros(2),), 3)])
def test_float_columns_reject_columns_of_another_length(values, rows):
    with pytest.raises(ValueError):
        float_columns(*values, rows=rows)


def test_sweep_scenarios_reach_the_fee_gate_both_strategies_and_three_closing_caps():
    def column(axis, position_form, index):
        cfg = parse_config(sweep_scenario("liquidation", axis, DEFAULT_CONVENTION, position_form,
                                          "reserves"))
        return set(run_sweep(cfg)[1][index])

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
