"""Position state, liquidation bounds and the repayment conventions."""

import math
import re
import sys

import pytest

from oevsim import (
    LoanPosition,
    PoolState,
    RepayConvention,
    RiskParams,
    DEFAULT_CONVENTION,
    compute_bounds,
    health_factor,
    run_liquidation,
)
from oevsim._numerics import bisect_root
from oevsim.lending import _repay, _repay_total, _traj_factor, trade_multiplier
from oevsim.oracles import random_instances

from conftest import STD, closing_bound, hf_marginal, pool_at


def bounds(pos, pool, bonus, kappa=1.0, convention=DEFAULT_CONVENTION):
    """compute_bounds at the recovery target 1 under STD's haircut and the given bonus."""
    return compute_bounds(pos, pool, RiskParams(STD.haircut, bonus, 0.8, 0.5), 1.0, kappa,
                          convention)[0]


def test_health_factor_examples():
    pool = pool_at(2000.0)
    assert health_factor(LoanPosition(6.0, 10_000.0), pool, 0.85) == pytest.approx(1.02)
    assert health_factor(LoanPosition(1.0, 0.0), pool, 0.85) == math.inf
    # boundary: haircut*B*c == A*b  ->  HF == 1
    c = pool.reserve_collateral * 10_000.0 / (0.85 * pool.reserve_debt)
    assert health_factor(LoanPosition(c, 10_000.0), pool, 0.85) == pytest.approx(1.0, rel=1e-14)


def test_bound_collateral_examples():
    pool = PoolState(1000.0, 2_000_000.0, 0.0)
    assert bounds(LoanPosition(20.12, 1.0), pool, 0.05).x_collateral == pytest.approx(
        19.161904761904765)
    assert bounds(LoanPosition(0.0, 1.0), pool, 0.05).x_collateral == 0.0
    assert bounds(LoanPosition(7.5, 1.0), pool, 0.0).x_collateral == 7.5


def test_bound_debt_examples():
    pos = LoanPosition(6.0, 10_000.0)
    pool = PoolState(1000.0, 2_000_000.0, 0.0)
    assert bounds(pos, pool, 0.05).x_debt_kappa == pytest.approx(1e7 / (2e6 - 10_500.0),
                                                                 rel=1e-14)
    assert bounds(LoanPosition(6.0, 0.0), pool, 0.05).x_debt_kappa == 0.0
    # kappa*b*(1-fee)*(1+bonus) >= B: the pool cannot absorb the repayment
    shallow = PoolState(1000.0, 500.0, 0.0)
    assert bounds(LoanPosition(6.0, 10_000.0), shallow, 0.05).x_debt_kappa == math.inf


def test_bound_debt_kappa_versus_full():
    pos = LoanPosition(6.0, 10_000.0)
    pool = PoolState(1000.0, 2_000_000.0, 0.003)
    for conv in RepayConvention:
        b = bounds(pos, pool, 0.05, 0.5, conv)
        assert b.x_debt_kappa <= b.x_debt_full
    # kappa = 1 single shot equals the run's exhaustion point (default convention)
    b = bounds(pos, pool, 0.05)
    assert b.x_debt_kappa == pytest.approx(b.x_debt_full, rel=1e-14)


# cf_target is checked first, so its rows carry a kappa out of range too.
@pytest.mark.parametrize("cf_target, kappa, bad", [
    (1.0, 0.0, "kappa"), (1.0, 1.5, "kappa"), (1.0, math.nan, "kappa"),
    (0.0, 1.5, "cf_target"), (1.5, 1.5, "cf_target"), (math.nan, 1.5, "cf_target"),
])
def test_compute_bounds_rejects_kappa_out_of_range(cf_target, kappa, bad):
    got = {"cf_target": cf_target, "kappa": kappa}[bad]
    with pytest.raises(ValueError, match=re.escape(f"{bad} must lie in (0, 1], got {got}")):
        compute_bounds(LoanPosition(6.0, 10_000.0), pool_at(1800.0), STD, cf_target, kappa)


def test_bound_closing_defining_property():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(1800.0)
    cb = closing_bound(pos, pool, 0.85, 0.05, cf_target=1.0)
    assert math.isfinite(cb.x)
    hf = hf_marginal(pos, pool, 0.85, 0.05, cb.x)
    assert hf == pytest.approx(1.0, abs=1e-9)


def test_bound_closing_no_recovery_is_infinite():
    # Deep underwater at a low price: health cannot climb back to 1.
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(900.0)
    cb = closing_bound(pos, pool, 0.85, 0.05, cf_target=1.0)
    b = bounds(pos, pool, 0.05)
    assert cb.x > min(b.x_collateral, b.x_debt_full)  # cannot bind before collateral/debt run out


def test_bound_closing_of_a_debt_free_position_is_none():
    cb = closing_bound(LoanPosition(5.0, 0.0), pool_at(1800.0, fee=0.003), 0.85, 0.05, 1.0)
    assert (cb.x, cb.branch) == (math.inf, "none")


def test_bound_closing_solves_the_linear_equation_when_the_lead_is_zero():
    # At fee 0 and bonus 0.5, u = 1.5 and B = u*b, so the curvature m*B*u - b*u**2
    # is exactly 0, and the root is -offset/linear, about 32000/600.
    pos, pool = LoanPosition(200.0, 2.0), PoolState(100.0, 3.0, 0.0)
    cb = closing_bound(pos, pool, 0.8, 0.5, cf_target=0.8)
    assert cb.branch == "linear"
    assert cb.x == pytest.approx(160.0 / 3.0, rel=1e-15)
    assert hf_marginal(pos, pool, 0.8, 0.5, cb.x) == pytest.approx(0.8, rel=1e-15)


def test_recovery_root_at_a_small_exhausted_share_takes_the_polynomial_check():
    """The root leaves 3.7e-11 of the debt and 4.4e-11 of the collateral.

    Both shares lie between epsilon*1e-9 and epsilon/1e-9, the exhaustion
    share, so the root counts as an exhaustion point and is checked on the
    polynomial; refined on the health factor instead, it moves by three ulps.
    """
    spot = RepayConvention.SPOT_PRICE
    pos = LoanPosition(63.796344289587026, 1814.4438728938323)
    pool = PoolState(37104.443824160466, 1156807.2968581007, 0.006683070963504107)
    haircut, bonus = 0.7756375479550072, 0.09432483935774388
    x = closing_bound(pos, pool, haircut, bonus, 1.0, spot).x
    u, m = trade_multiplier(pool.fee, bonus), _traj_factor(pool.fee, spot)
    repaid = _repay_total(pool.reserve_collateral, pool.reserve_debt, x, u, m)
    low, high = sys.float_info.epsilon * 1e-9, sys.float_info.epsilon / 1e-9
    assert low < (pos.debt - repaid) / pos.debt < high
    assert low < (pos.collateral - x * (1.0 + bonus)) / pos.collateral < high
    assert x.hex() == "0x1.d2612be01142bp+5"
    params = RiskParams(haircut, bonus, 0.5302754743086606, 0.5365533988135535)
    res = run_liquidation(pos, pool, params, 1.0, params.max_liq_fraction, spot)
    assert res.pi_tot.hex() == "0x1.3bc12b02cfe40p+7"


def test_bisect_root_returns_an_exact_endpoint_and_needs_a_sign_change():
    assert bisect_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert bisect_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0
    with pytest.raises(ValueError, match=r"^no sign change on \[-1\.0, 1\.0\]: f\(lo\)=2\.0"):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_trajectory_hf_strictly_increasing_when_trade_profitable():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(1800.0)  # u = 1.05 > 1
    b = bounds(pos, pool, 0.05)
    hi = min(b.x_collateral, b.x_debt_full)
    xs = [hi * i / 400.0 for i in range(400)]
    vals = [hf_marginal(pos, pool, 0.85, 0.05, x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("convention", list(RepayConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("price", [1500.0, 2000.0], ids=["gate_open", "gate_shut"])
def test_compute_bounds_returns_the_health_factor_its_gate_read(convention, price):
    pos, pool = LoanPosition(6.0, 10_000.0), pool_at(price, fee=0.003)
    bounds, hf = compute_bounds(pos, pool, STD, 1.0, 0.5, convention)
    assert hf.hex() == health_factor(pos, pool, STD.haircut).hex()
    assert (bounds.x_closing == 0.0) == (hf > 1.0) == (price == 2000.0)
    res = run_liquidation(pos, pool, STD, 1.0, 0.5, convention)
    assert (res.bounds, res.hf_initial) == (bounds, hf)


def test_binding_bound_invariant_under_state_scaling():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(1800.0)
    base, _ = compute_bounds(pos, pool, STD, cf_target=1.0, kappa=0.5)
    for s in (0.01, 3.0, 250.0):
        scaled, _ = compute_bounds(
            LoanPosition(pos.collateral * s, pos.debt * s),
            PoolState(pool.reserve_collateral * s, pool.reserve_debt * s, pool.fee),
            STD, cf_target=1.0, kappa=0.5,
        )
        for name in ("x_collateral", "x_debt_full", "x_debt_kappa", "x_closing"):
            v0, v1 = getattr(base, name), getattr(scaled, name)
            if math.isinf(v0):
                assert math.isinf(v1)
            else:
                assert v1 == pytest.approx(v0 * s, rel=1e-9)


def test_single_write_down_matches_marginal_run_total():
    # One EXECUTION_VALUE write-down of size x is what a run of many small
    # spot-priced liquidations summing to x repays in total: the run lands
    # far closer to it than one spot-priced write-down of size x does.
    steps = 1000
    for inst in random_instances(20, seed=55):
        pos, pool, params = inst.position, inst.pool, inst.params
        b = bounds(pos, pool, params.bonus)
        x = 0.5 * min(b.x_collateral, b.x_debt_kappa)
        if not (math.isfinite(x) and x > 0.0):
            continue
        run, repaid = pool, 0.0
        for _ in range(steps):
            repaid += _repay(run.reserve_collateral, run.reserve_debt, x / steps,
                             trade_multiplier(run.fee, params.bonus), 1.0,
                             RepayConvention.SPOT_PRICE)
            run = run.sell_collateral(x / steps * (1.0 + params.bonus))[1]
        single, spot = (_repay(pool.reserve_collateral, pool.reserve_debt, x,
                               trade_multiplier(pool.fee, params.bonus),
                               _traj_factor(pool.fee, convention), convention)
                        for convention in (RepayConvention.EXECUTION_VALUE,
                                           RepayConvention.SPOT_PRICE))
        assert abs(repaid - single) <= 0.01 * abs(spot - single)


def test_repay_conventions_ordering():
    pool = PoolState(1000.0, 2_000_000.0, 0.003)
    x = 2.0
    spot, execv, per_bonus = (
        _repay(pool.reserve_collateral, pool.reserve_debt, x, trade_multiplier(pool.fee, 0.05),
               _traj_factor(pool.fee, convention), convention)
        for convention in (RepayConvention.SPOT_PRICE, RepayConvention.EXECUTION_VALUE,
                           RepayConvention.EXECUTION_PER_BONUS))
    assert spot > execv > per_bonus
    assert per_bonus == pytest.approx((1.0 - pool.fee) * execv, rel=1e-14)


def test_param_validation():
    with pytest.raises(ValueError):
        RiskParams(0.0, 0.05, 0.8, 0.5)
    with pytest.raises(ValueError):
        RiskParams(0.85, -0.1, 0.8, 0.5)
    with pytest.raises(ValueError):
        RiskParams(0.85, 0.05, 1.2, 0.5)
    with pytest.raises(ValueError):
        RiskParams(0.85, 0.05, 0.8, 0.0)
    with pytest.raises(ValueError, match="collateral must be >= 0, got"):
        LoanPosition(-1.0, 0.0)


@pytest.mark.parametrize("build, match", [
    (lambda: LoanPosition(math.nan, 1.0), "collateral must be >= 0, got"),
    (lambda: LoanPosition(1.0, math.nan), "debt must be >= 0, got"),
    (lambda: RiskParams(0.85, math.nan, 0.8, 0.5), "bonus must be >= 0, got"),
], ids=["collateral", "debt", "bonus"])
def test_param_validation_rejects_nan(build, match):
    with pytest.raises(ValueError, match=match):
        build()
