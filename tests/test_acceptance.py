"""End-to-end acceptance suite.

One test per acceptance criterion, each at its stated tolerance, each
printing a single pass/fail line with the measured values (run with
``pytest -s tests/test_acceptance.py`` to see the lines as they happen).
"""

import math
import random
import time

from oevsim import (
    Binding,
    InsufficientReservesError,
    LoanPosition,
    PoolState,
    RepayConvention,
    attack_profit,
    critical_fee,
    delta_bounds,
    dp_oracle,
    health_factor,
    hf_monotonicity_check,
    integral_oracle,
    run_liquidation,
    simulate_liquidation_sequence,
    subadditivity_check,
)
from oevsim._numerics import halve
from oevsim.cli import reproduce_ex1, reproduce_ex3
from oevsim.engine import _interior, _run_profit, _shot_profit
from oevsim.lending import _x_collateral, trade_multiplier
from oevsim.oracles import random_instances

from conftest import POOL5, POS5, STD, pool_at


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def liquidation_value(pool: PoolState, collateral: float) -> float:
    """Large-attack profit limit in a fee-free pool: B0*c/(A0 + c)."""
    return pool.reserve_debt * collateral / (pool.reserve_collateral + collateral)


def _within(tol_x: float):
    """Stop test for ``halve``: a bracket at most tol_x * max(1, |lo|, |hi|) wide."""
    return lambda lo, hi: hi - lo <= tol_x * max(1.0, abs(lo), abs(hi))


def test_criterion_01_price_regime_switch():
    t0 = time.monotonic()
    position = LoanPosition(6.0, 10_000.0)

    # Profit is identically zero once the health factor reaches 1.
    rows = list(zip(*reproduce_ex3()[1]))
    gate_ok = all((row[4] == 0.0) == (row[1] >= 1.0) for row in rows)

    # The regime change of the liquidation run: collateral-bound below the
    # switch price, health-recovery-bound above it.
    def collateral_bound_at(p: float) -> bool:
        pool = pool_at(p)
        seq = simulate_liquidation_sequence(
            position, pool, STD, cf_target=1.0, kappa=0.5,
            convention=RepayConvention.SPOT_PRICE,
        )
        return seq.terminator == "collateral"

    assert collateral_bound_at(1700.0) and not collateral_bound_at(1900.0)
    lo, hi = halve(collateral_bound_at, 1700.0, 1900.0, _within(1e-10), 200)
    p_switch = 0.5 * (lo + hi)
    pool_hi = pool_at(hi)
    tag_after = simulate_liquidation_sequence(
        position, pool_hi, STD, 1.0, 0.5, RepayConvention.SPOT_PRICE
    ).terminator

    # Closed-form bound triple of the engine, for the record: its own
    # collateral -> recovery switch sits a few price units higher.
    def engine_collateral_bound(p: float) -> bool:
        pool = pool_at(p)
        return run_liquidation(position, pool, STD, 1.0, 0.5).binding is Binding.COLLATERAL

    assert engine_collateral_bound(1700.0) and not engine_collateral_bound(1900.0)
    elo, ehi = halve(engine_collateral_bound, 1700.0, 1900.0, _within(1e-10), 200)
    elapsed = time.monotonic() - t0

    ok = gate_ok and abs(p_switch - 1756.76) <= 0.5 and tag_after == "closing_factor" and elapsed < 10.0
    report(1, ok, f"switch at p={p_switch:.3f} (target 1756.76 +/- 0.5, tag '{tag_after}'), "
                  f"closed-form bound switch at p={0.5 * (elo + ehi):.3f}, "
                  f"zero-profit gate holds on {len(rows)} rows, {elapsed:.1f}s")
    assert gate_ok
    assert abs(p_switch - 1756.76) <= 0.5
    assert tag_after == "closing_factor"
    assert elapsed < 10.0


def test_criterion_02_fee_deterrence_all_sizes():
    t0 = time.monotonic()
    bounds = delta_bounds(POS5, POOL5, STD)
    cap, ceiling = bounds.baddebt_cap, bounds.no_revert
    hi = 0.999 * cap
    lo = hi * 1e-8
    n_grid = 2000
    ratio = (hi / lo) ** (1.0 / (n_grid - 1))

    worst = -math.inf
    n_feasible = 0
    for i in range(n_grid):
        delta = lo * ratio**i
        res = attack_profit(delta, POS5, POOL5, STD)
        if res.feasible:
            n_feasible += 1
            worst = max(worst, res.total_profit)
        else:
            assert delta >= ceiling * (1.0 - 1e-9)  # only the revert region is infeasible
    elapsed = time.monotonic() - t0

    ok = worst < 0.0 and n_feasible > 0 and elapsed < 30.0
    report(2, ok, f"max profit over {n_feasible}/{n_grid} feasible sizes = {worst:.4f} (< 0), "
                  f"{elapsed:.1f}s")
    assert worst < 0.0
    assert n_feasible > 1000
    assert elapsed < 30.0


def test_criterion_03_critical_fee_level():
    t0 = time.monotonic()
    res = critical_fee(POS5, POOL5, STD, 0.0, 0.003)
    elapsed = time.monotonic() - t0
    bps = res.fee_star * 1e4
    ok = 16.0 <= bps <= 18.0 and elapsed < 120.0
    report(3, ok, f"critical fee = {bps:.3f} bps (target [16, 18]), {elapsed:.1f}s")
    assert 16.0 <= bps <= 18.0
    assert elapsed < 120.0


def test_criterion_04_no_revert_ceiling_matches_formula():
    rng = random.Random(440)
    worst = 0.0
    for _ in range(100):
        fee = rng.choice((5e-4, 17e-4, 30e-4, 1e-2))
        a0 = 10.0 ** rng.uniform(3.0, 7.0)
        b0 = a0 * 10.0 ** rng.uniform(0.0, 4.0)
        coll = a0 * 10.0 ** rng.uniform(-4.0, -0.5)
        pool = PoolState(a0, b0, fee)
        formula = (a0 + (1.0 - fee) * coll) / fee

        def executes(delta: float) -> bool:
            _, pool1 = pool.sell_collateral(delta)
            _, pool2 = pool1.sell_collateral(coll)  # full collateral liquidated
            try:
                pool2.buy_collateral_exact(delta)
            except InsufficientReservesError:
                return False
            return True

        assert executes(0.0) and not executes(1.5 * formula)
        lo, hi = halve(executes, 0.0, 1.5 * formula, _within(1e-10), 200)
        boundary = 0.5 * (lo + hi)
        worst = max(worst, abs(boundary - formula) / formula)
    ok = worst <= 1e-6
    report(4, ok, f"worst relative gap numeric-vs-formula over 100 instances = {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_05_limiting_profit_both_regimes():
    # Zero fee: the huge attack realizes the liquidation value of the collateral.
    worst_rel = 0.0
    for inst in random_instances(20, seed=550, fees_bps=(0.0,), bonuses=(0.05, 0.10)):
        pool, position = inst.pool, inst.position
        limit = liquidation_value(pool, position.collateral)
        res = attack_profit(1e6 * pool.reserve_collateral, position, pool, inst.params)
        worst_rel = max(worst_rel, abs(res.total_profit - limit) / limit)
    ok_zero = worst_rel <= 0.01

    # Positive fee: profit collapses as the attack approaches the ceiling.
    min_margin = math.inf
    for inst in random_instances(20, seed=551, fees_bps=(5.0, 17.0, 30.0, 100.0),
                                 bonuses=(0.05, 0.10)):
        pool, position = inst.pool, inst.position
        params = inst.params
        ceiling = delta_bounds(position, pool, params).no_revert
        near = attack_profit(0.99 * ceiling, position, pool, params)
        nearer = attack_profit(0.9999 * ceiling, position, pool, params)
        assert near.feasible and nearer.feasible
        liq_value = liquidation_value(pool, position.collateral)
        min_margin = min(min_margin, (near.total_profit - nearer.total_profit) / (10.0 * liq_value))
    ok_pos = min_margin >= 1.0

    report(5, ok_zero and ok_pos,
           f"zero-fee worst relative gap = {worst_rel:.2e} (<= 1e-2); "
           f"divergence margin >= {min_margin:.3g}x the required drop")
    assert ok_zero
    assert ok_pos



def test_criterion_06_dp_oracle_agreement():
    instances = random_instances(100, seed=660, feasible_only=True)
    worst = 0.0
    for inst in instances:
        closed = run_liquidation(
            inst.position, inst.pool, inst.params, inst.cf_target, inst.kappa
        ).pi_tot
        approx = dp_oracle(
            inst.position, inst.pool, inst.params, inst.cf_target, inst.kappa, 10_000
        )
        worst = max(worst, abs(closed - approx) / max(1.0, abs(closed)))
    ok_tol = worst <= 1e-3

    # Error shrinks monotonically as the grid doubles from 1e2 to 1e4.
    grids = (100, 200, 400, 800, 1600, 3200, 6400, 12800)
    monotone = True
    for inst in instances[:12]:
        closed = run_liquidation(
            inst.position, inst.pool, inst.params, inst.cf_target, inst.kappa
        ).pi_tot
        errs = [
            abs(closed - dp_oracle(inst.position, inst.pool, inst.params,
                                   inst.cf_target, inst.kappa, g))
            for g in grids
        ]
        slack = 1e-11 * max(1.0, abs(closed))
        if not all(a >= b - slack for a, b in zip(errs, errs[1:])):
            monotone = False
    ok = ok_tol and monotone
    report(6, ok, f"worst relative gap at grid 1e4 = {worst:.2e} (<= 1e-3) over 100 instances; "
                  f"error monotone under grid doubling: {monotone}")
    assert ok_tol
    assert monotone


def test_criterion_07_closed_form_equals_quadrature():
    worst = 0.0
    rng = random.Random(770)
    for inst in random_instances(100, seed=771):
        x = rng.uniform(0.1, 0.95) * _x_collateral(inst.position.collateral, inst.params.bonus)
        pool = inst.pool
        closed = _run_profit(pool.reserve_collateral, pool.reserve_debt,
                             trade_multiplier(pool.fee, inst.params.bonus), x)
        quad = integral_oracle(inst.pool, x, inst.params.bonus)
        denom = max(abs(closed), abs(quad), 1e-12)
        worst = max(worst, abs(closed - quad) / denom)
    ok = worst <= 1e-9
    report(7, ok, f"worst relative gap closed-form vs quadrature = {worst:.2e} (<= 1e-9)")
    assert worst <= 1e-9


def test_criterion_08_split_inequalities():
    rng = random.Random(880)
    instances = random_instances(250, seed=881)

    sub_checked = sub_bad = 0
    while sub_checked < 10_000:
        inst = instances[sub_checked % len(instances)]
        cap = _x_collateral(inst.position.collateral, inst.params.bonus)
        x1 = rng.uniform(0.0, 0.7) * cap
        x2 = rng.uniform(0.0, 0.7) * (cap - x1)
        _, _, holds = subadditivity_check(inst.pool, inst.params.bonus, x1, x2)
        sub_bad += 0 if holds else 1
        sub_checked += 1

    hf_checked = hf_bad = 0
    i = 0
    while hf_checked < 10_000:
        # About 15,000 draws give the 10,000 checks; a fault that skips every draw fails here.
        assert i < 100_000, f"criterion 08: {i} draws gave only {hf_checked} hf-dominance checks"
        inst = instances[i % len(instances)]
        i += 1
        pos, pool, params = inst.position, inst.pool, inst.params
        if health_factor(pos, pool, params.haircut) > inst.cf_target:
            continue
        cap = _x_collateral(pos.collateral, params.bonus)
        x1 = rng.uniform(0.0, 0.35) * cap
        x2 = rng.uniform(0.0, 0.35) * cap
        if pos.debt - (x1 + x2) * pool.spot_price() <= 0.0:
            continue
        _, _, holds = hf_monotonicity_check(pos, pool, params.haircut, params.bonus, x1, x2)
        hf_bad += 0 if holds else 1
        hf_checked += 1

    ok = sub_bad == 0 and hf_bad == 0
    report(8, ok, f"subadditivity {sub_checked - sub_bad}/{sub_checked}, "
                  f"hf-dominance {hf_checked - hf_bad}/{hf_checked} (zero violations required)")
    assert sub_bad == 0
    assert hf_bad == 0


def test_criterion_09_interior_maximum_stationarity():
    worst = 0.0
    n = 0
    for inst in random_instances(200, seed=990, feasible_only=True):
        a, b_res = inst.pool.reserve_collateral, inst.pool.reserve_debt
        u = trade_multiplier(inst.pool.fee, inst.params.bonus)
        x_opt = _interior(a, u, math.sqrt) if u > 1.0 else 0.0
        if x_opt <= 0.0:
            continue
        h = 1e-5 * x_opt
        fd = (_shot_profit(a, b_res, u, x_opt + h)
              - _shot_profit(a, b_res, u, x_opt - h)) / (2.0 * h)
        scale = _shot_profit(a, b_res, u, x_opt) / x_opt
        worst = max(worst, abs(fd) / scale)
        n += 1
        if n == 100:
            break
    ok = n == 100 and worst <= 1e-6
    report(9, ok, f"worst |central difference| / profit scale = {worst:.2e} (<= 1e-6) on {n} instances")
    assert n == 100
    assert worst <= 1e-6


def test_criterion_10_fee_gate_soundness():
    instances = random_instances(60, seed=1010, fees_bps=(0.0,), bonuses=(0.05, 0.10))
    above_ok = True
    below_positive = 0
    below_live = 0
    for inst in instances:
        parity = inst.params.bonus / (1.0 + inst.params.bonus)
        shape = (inst.pool.reserve_collateral, inst.pool.reserve_debt)
        for fee in (parity, parity * 1.0001, min(parity + 0.01, 0.99), 0.3):
            res = run_liquidation(
                inst.position, PoolState(*shape, fee), inst.params, inst.cf_target, inst.kappa
            )
            if res.pi_tot != 0.0:
                above_ok = False
        res = run_liquidation(
            inst.position, PoolState(*shape, parity * (1.0 - 1e-3)),
            inst.params, inst.cf_target, inst.kappa,
        )
        hf0 = health_factor(inst.position, PoolState(*shape, 0.0), inst.params.haircut)
        if hf0 < inst.cf_target and res.x_liq > 0.0:
            below_live += 1
            if res.pi_tot > 0.0:
                below_positive += 1
    ok = above_ok and below_live >= 20 and below_positive == below_live
    report(10, ok, f"zero profit at/above bonus parity on all {len(instances)} instances; "
                   f"positive profit just below parity on {below_positive}/{below_live} live ones")
    assert above_ok
    assert below_live >= 20
    assert below_positive == below_live


def test_criterion_11_deep_pools_favor_full_liquidation():
    rows = list(zip(*reproduce_ex1()[1]))
    mid = math.sqrt(0.05 * 100.0)  # geometric midpoint of the sweep
    deep = [(s, full, capped) for s, full, capped in rows if s >= mid]
    violations = [(s, full, capped) for s, full, capped in deep if full < capped]
    ok = not violations and len(deep) >= 50
    report(11, ok, f"L(cf,1) >= L(1,kappa) on all {len(deep)} deep-pool points "
                   f"(s >= {mid:.2f}); violations: {len(violations)}")
    assert len(deep) >= 50
    assert not violations
