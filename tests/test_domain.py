"""The documented domain: every state returns finite numbers or raises a documented error.

The edge-state properties run the benchmark's generator ``perfbench/edge.py``
(bounds that nearly tie, positions tiny next to the pool, health factors far
below the target, and general states), with this module's own checks.  The
full-range property draws its own states over [1e-300, 1e300]; the named
states are files in ``tests/scenarios/``.  Every record the package returns
is immutable.
"""

import math
import re
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oevsim import (
    Binding,
    LastBinding,
    LoanPosition,
    PoolState,
    RecoveryRootError,
    RepayConvention,
    RiskParams,
    attack_profit,
    best_strategy,
    compute_bounds,
    critical_fee,
    delta_bounds,
    hf_monotonicity_check,
    integral_oracle,
    optimize_attack,
    run_liquidation,
    simulate_liquidation_sequence,
    subadditivity_check,
)
from oevsim.attack import NoThresholdError, _sandwich_total, attack_profit_batch
from oevsim.engine import _search_floats, best_strategy_batch
from oevsim.lending import _x_collateral

from conftest import POOL5, POS5, STD, closing_bound, edge, edge_objects, named_state

SHORT_OF_WINDOW = named_state("short_of_window")[1]
R1 = named_state("r1")[1]


def lerp(r: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * r


def edge_state(rng):
    """(position, pool, params, attack size) of one ``perfbench/edge.py`` state."""
    _, state = edge.draw_state(rng)
    return (*edge_objects(state), edge.draw_delta(rng, state))


# Each example runs the benchmark's generator on a random stream that hypothesis draws.
EDGE_STATES = st.randoms(use_true_random=False).map(edge_state)


def pool_kept(before: PoolState, after: PoolState) -> bool:
    k0 = before.reserve_collateral * before.reserve_debt
    return abs(after.reserve_collateral * after.reserve_debt - k0) <= 1e-12 * k0


def assert_liquidation_in_domain(res, position: LoanPosition, pool: PoolState) -> None:
    assert math.isfinite(res.pi_tot) and res.pi_tot >= 0.0
    assert res.pi_tot == res.pi_liq + res.pi_last
    # A closing trade follows only a run stopped by a recovery bound strictly below the others.
    if res.last_binding is not LastBinding.NONE:
        assert res.binding is Binding.CLOSING_FACTOR
        bounds = res.bounds
        assert bounds.x_closing < min(bounds.x_collateral, bounds.x_debt_full)
    assert res.post_position.collateral <= position.collateral
    assert res.post_position.debt <= position.debt
    assert pool_kept(pool, res.post_pool)


@settings(max_examples=250, deadline=None)
@given(EDGE_STATES)
# Bounds 1e-11 apart, so the recovery root sits near the 0/0 point of the
# health factor: with the exhaustion window at 1e-12 its self-check failed.
@example((LoanPosition(1.0500000110355002e-08, 1.0000000000000001e-11), PoolState(1.0, 0.001, 0.0),
          RiskParams(0.5, 0.05, 0.05, 0.05), 0.000999999999))
# A near tie whose root leaves 2.5e-7 of the debt, just outside the
# exhaustion window: its self-check failed while the refine's first bracket
# was 1e-12*max(root, 1) wide.
@example((*SHORT_OF_WINDOW[:3], 0.0))
def test_edge_states_stay_in_the_domain(state):
    position, pool, params, delta = state
    liq, _ = best_strategy(position, pool, params)
    assert_liquidation_in_domain(liq, position, pool)

    res = attack_profit(delta, position, pool, params)
    assert math.isfinite(res.front_proceeds) and res.front_proceeds >= 0.0
    assert_liquidation_in_domain(res.liquidation, position, res.pool_after_front)
    assert pool_kept(pool, res.pool_after_front) and pool_kept(pool, res.pool_after_liq)
    if res.feasible:
        assert res.total_profit == res.front_proceeds + res.liq_profit - res.buyback_cost
    else:
        assert res.total_profit is None


def attack_total(delta, position, pool, params, convention):
    """``attack_profit(...).total_profit``, or -inf where the buy-back reverts."""
    res = attack_profit(delta, position, pool, params, convention)
    return res.total_profit if res.feasible else -math.inf


def float_total(delta, position, pool, params, convention):
    c, fee = position.collateral, pool.fee
    return _sandwich_total(delta, c, position.debt, pool.reserve_collateral, pool.reserve_debt,
                           fee, convention, _search_floats(c, fee, params, convention))


def outcome(total, *args):
    """The total as hex, or the type of the error it raised."""
    try:
        return total(*args).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


@settings(max_examples=120, deadline=None)
@given(EDGE_STATES, st.sampled_from(list(RepayConvention)))
def test_golden_section_steps_have_the_bits_of_attack_profit(state, convention):
    # optimize_attack's golden-section steps read the total from the float path.
    position, pool, params, delta = state
    ceiling = delta_bounds(position, pool, params).no_revert
    sizes = [0.0, delta] + [scale * k for scale in (ceiling, pool.reserve_collateral)
                            if math.isfinite(scale) for k in (0.5, 1.0 - 1e-12, 1.0, 1.5)]
    for size in sizes:
        args = (size, position, pool, params, convention)
        assert outcome(float_total, *args) == outcome(attack_total, *args), size


@pytest.mark.usefixtures("broken_health_factor_check")
def test_golden_section_steps_raise_the_recovery_root_error_of_attack_profit():
    position, pool, params, _ = SHORT_OF_WINDOW
    args = (0.0, position, pool, params, RepayConvention.EXECUTION_VALUE)
    with pytest.raises(RecoveryRootError) as want:
        attack_total(*args)
    with pytest.raises(RecoveryRootError) as got:
        float_total(*args)
    assert got.value.args == want.value.args


# A*b underflows to 0 although both constructors accept the state.
UNDERFLOW_POOL = PoolState(1e-300, 2e6, 0.003)


@pytest.mark.parametrize("position", [LoanPosition(6.0, 1e-320), LoanPosition(0.0, 1e-320)],
                         ids=["collateral", "no_collateral"])
def test_underflowing_health_factor_raises_one_value_error(position):
    params = STD
    pool = UNDERFLOW_POOL
    match = "health factor undefined: reserve_collateral \\* debt underflows to 0"
    with pytest.raises(ValueError, match=match):
        best_strategy(position, pool, params)
    with pytest.raises(ValueError, match=match):
        best_strategy_batch([1.0, position.collateral], [1.0, position.debt],
                            [1.0, pool.reserve_collateral], [1.0, pool.reserve_debt],
                            pool.fee, params)
    with pytest.raises(ValueError, match=match):
        simulate_liquidation_sequence(position, pool, params, params.closing_factor,
                                      params.max_liq_fraction)


def test_kappa_error_comes_before_the_underflow_error():
    position = LoanPosition(6.0, 1e-320)
    for call in (compute_bounds, run_liquidation):
        with pytest.raises(ValueError, match="kappa must lie in"):
            call(position, UNDERFLOW_POOL, STD, 1.0, 1.5)


def test_subnormal_root_refine_terminates():
    position, pool, params, _ = named_state("subnormal_root")[1]

    def stop(signum, frame):
        raise TimeoutError("the recovery-root refine did not terminate")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        liq, _ = best_strategy(position, pool, params)
        batch, _ = best_strategy_batch([1.0, position.collateral], [0.5, position.debt],
                                       [1.0, pool.reserve_collateral],
                                       [1.0, pool.reserve_debt], pool.fee, params)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert_liquidation_in_domain(liq, position, pool)
    assert batch.pi_tot[1] == liq.pi_tot


# The recovery bound squares A + x*u: at this depth the square overflows,
# which libm pow raised as OverflowError.
OVERFLOWING_SQUARE = (LoanPosition(0.9 * 1e-120 * 1e160 / (0.85 * 1e-100), 1e-120),
                      PoolState(1e160, 1e-100, 0.003), STD)
# Here the square underflows to 0, which the price divided by.
UNDERFLOWING_SQUARE = (LoanPosition(5.40968013807e-312, 0.0001702831402522715),
                       PoolState(5.521961965644144e-190, 1.329511478343834e+118, 0.01),
                       RiskParams(0.566, 0.148, 0.391, 0.303))


def strategy_batch(position, pool, params):
    return best_strategy_batch([1.0, position.collateral], [1.0, position.debt],
                               [1.0, pool.reserve_collateral], [1.0, pool.reserve_debt],
                               pool.fee, params)


def test_overflowing_square_divides_twice():
    position, pool, params = OVERFLOWING_SQUARE
    liq, _ = best_strategy(position, pool, params)
    assert liq.pi_tot == 4.5215697674418605e-122
    assert_liquidation_in_domain(liq, position, pool)
    batch, _ = strategy_batch(position, pool, params)
    assert batch.pi_tot[1] == liq.pi_tot
    assert attack_profit(0.0, position, pool, params).liq_profit == liq.pi_tot


def test_underflowing_square_raises_one_value_error():
    position, pool, params = UNDERFLOWING_SQUARE
    match = r"health factor undefined: \(reserve_collateral \+ x\*u\)\*\*2 underflows to 0"
    with pytest.raises(ValueError, match=match):
        best_strategy(position, pool, params)
    with pytest.raises(ValueError, match=match):
        strategy_batch(position, pool, params)
    with pytest.raises(ValueError, match=match):
        attack_profit(0.0, position, pool, params)


# R1's recovery discriminant overflows to inf (tests/scenarios/r1.yaml): it has
# no recovery root, and the collateral bound binds.
def test_overflowing_discriminant_batch_matches_scalar():
    position, pool, risk, convention = R1
    liq, strategy = best_strategy(position, pool, risk, convention)
    assert liq.binding is Binding.COLLATERAL
    assert liq.bounds.x_closing > liq.bounds.x_collateral
    assert liq.pi_tot.hex() == "0x1.587fb2f681156p-296"
    batch, strategies = best_strategy_batch([position.collateral], [position.debt],
                                            [pool.reserve_collateral], [pool.reserve_debt],
                                            pool.fee, risk, convention)
    assert float(batch.pi_tot[0]).hex() == liq.pi_tot.hex() and strategies[0] == strategy


@pytest.mark.xfail(strict=True, reason="critical_fee's profit floor is 1e-12 of the debt reserve, "
                                        "7.4e37 here, so the +1.06e-89 probes read as not profitable")
def test_critical_fee_takes_a_positive_low_end_probe_for_profitable():
    position, pool, risk, convention = R1
    try:
        critical_fee(position, pool, risk, 0.0, 0.003, convention)
    except NoThresholdError as err:
        low_end = str(err).startswith("attack is not profitable at the low end")
        assert not (low_end and err.probes[0][1] > 0.0), err.probes


def test_overflowing_discriminant_without_a_linear_term_cannot_bind():
    # lead*offset overflows while linear is exactly 0, so |linear| cannot be
    # taken out of the square root.  The true root, about 2**299, lies far
    # past the collateral bound 1.
    position, pool = LoanPosition(1.0, 2.0 ** 698), PoolState(2.0 ** 300, 2.0 ** 700, 0.0)
    bound = closing_bound(position, pool, 0.5, 0.0, 1.0, RepayConvention.SPOT_PRICE)
    assert bound.x > _x_collateral(position.collateral, 0.0)


# A liquidatable position (HF 0.85*1500*6/1e4 = 0.765) in a pool at 1500.
INPUT_POSITION, INPUT_POOL = LoanPosition(6.0, 10_000.0), PoolState(1e6, 1.5e9, 0.003)
INPUT_ROW = (6.0, 10_000.0, 1e6, 1.5e9, 0.003, STD)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: critical_fee(INPUT_POSITION, INPUT_POOL, STD, 0.003, 0.003),
                 "need 0 <= fee_low < fee_high < 1, got [0.003, 0.003]", id="critical_fee"),
    # A probe at fee 1 would raise PoolState's fee error instead.
    pytest.param(lambda: critical_fee(INPUT_POSITION, INPUT_POOL, STD, 0.0, 1.0),
                 "need 0 <= fee_low < fee_high < 1, got [0.0, 1.0]", id="critical_fee_high_one"),
    pytest.param(lambda: attack_profit_batch([1.0, -2.0], *INPUT_ROW),
                 "attack size must be >= 0, got -2.0", id="attack_profit_batch"),
    pytest.param(lambda: run_liquidation(INPUT_POSITION, INPUT_POOL, STD, 0.0, 0.5),
                 "cf_target must lie in (0, 1], got 0.0", id="run_liquidation_cf_zero"),
    pytest.param(lambda: run_liquidation(INPUT_POSITION, INPUT_POOL, STD, 1.5, 0.5),
                 "cf_target must lie in (0, 1], got 1.5", id="run_liquidation_cf_high"),
    pytest.param(lambda: integral_oracle(INPUT_POOL, -1.0, 0.05),
                 "x_liq must be >= 0, got -1.0", id="integral_oracle"),
    pytest.param(lambda: subadditivity_check(INPUT_POOL, 0.05, 1.0, -1.0),
                 "split sizes must be >= 0", id="subadditivity_check"),
    pytest.param(lambda: hf_monotonicity_check(INPUT_POSITION, INPUT_POOL, 0.85, 0.05, 4.0, 4.0),
                 "split repays more than the outstanding debt", id="hf_monotonicity_check"),
    # The lump repays exactly the debt, 2 * 2048, and leaves no health factor to divide by.
    pytest.param(lambda: hf_monotonicity_check(LoanPosition(100.0, 4096.0),
                                               PoolState(1024.0, 2097152.0, 0.0), 0.85, 0.25,
                                               1.0, 1.0),
                 "split repays more than the outstanding debt",
                 id="hf_monotonicity_check_exact_debt"),
    # (4 + 4) * 1.05 collateral claimed from 6, against a debt the split does not repay.
    pytest.param(lambda: hf_monotonicity_check(LoanPosition(6.0, 1e6), INPUT_POOL, 0.85, 0.05,
                                               4.0, 4.0),
                 "split claims more collateral than the position holds",
                 id="hf_monotonicity_check_collateral"),
])
def test_documented_input_errors_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Each record type the package returns: the call that returns one, and one of its fields.
RESULTS = {
    "BoundSet": (lambda: compute_bounds(INPUT_POSITION, INPUT_POOL, STD, 1.0, 0.5)[0],
                 "x_closing"),
    "LiquidationResult": (lambda: run_liquidation(INPUT_POSITION, INPUT_POOL, STD, 1.0, 0.5),
                          "pi_tot"),
    "LiquidationBatch": (lambda: best_strategy_batch(*INPUT_ROW)[0], "pi_tot"),
    "DeltaBounds": (lambda: delta_bounds(INPUT_POSITION, INPUT_POOL, STD), "trigger"),
    "AttackResult": (lambda: attack_profit(1.0, INPUT_POSITION, INPUT_POOL, STD), "total_profit"),
    "AttackBatch": (lambda: attack_profit_batch([1.0], *INPUT_ROW), "total_profit"),
    "OptimizeOutcome": (lambda: optimize_attack(INPUT_POSITION, INPUT_POOL, STD), "result"),
    "CriticalFeeResult": (lambda: critical_fee(POS5, POOL5, STD, 0.0015, 0.002), "fee_star"),
    "SequenceOutcome": (lambda: simulate_liquidation_sequence(INPUT_POSITION, INPUT_POOL, STD,
                                                              1.0, 0.5), "profit"),
}


@pytest.mark.parametrize("record", RESULTS)
def test_results_are_immutable(record):
    call, field = RESULTS[record]
    result = call()
    assert type(result).__name__ == record
    with pytest.raises(AttributeError):
        setattr(result, field, getattr(result, field))


@st.composite
def full_range_states(draw):
    """(position, pool, params, attack size, convention) with c, b, A and B log-uniform
    in [1e-300, 1e300] and the attack size log-uniform within 1e±3 of A."""
    (r_c, r_b, r_a, r_r, r_delta, r_free, r_fee, r_bonus, r_haircut, r_cf,
     r_kappa) = draw(st.tuples(*[st.floats(0.0, 1.0)] * 11))
    c, b, a0, b0 = (10.0 ** lerp(r, -300.0, 300.0) for r in (r_c, r_b, r_a, r_r))
    fee = 0.0 if r_free < 0.2 else 10.0 ** lerp(r_fee, 0.0, 2.0) / 1e4
    params = RiskParams(lerp(r_haircut, 0.5, 0.95), lerp(r_bonus, 0.05, 0.15),
                        lerp(r_cf, 0.05, 1.0), lerp(r_kappa, 0.05, 1.0))
    return (LoanPosition(c, b), PoolState(a0, b0, fee), params,
            a0 * 10.0 ** lerp(r_delta, -3.0, 3.0), draw(st.sampled_from(list(RepayConvention))))


def returned_or_raised(call):
    """``call()``, or the type and text of the error it raised, which is never a
    position check: the engine and the walk compute only valid positions."""
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        assert not re.match("(collateral|debt) must be >= 0", str(exc)), exc
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(full_range_states())
def test_scalar_and_batch_paths_return_or_raise_alike_at_full_float_range(state):
    position, pool, params, delta, convention = state
    row = (position.collateral, position.debt, pool.reserve_collateral, pool.reserve_debt,
           pool.fee, params, convention)

    def scalar_strategy():
        liq, strategy = best_strategy(position, pool, params, convention)
        return liq.pi_tot.hex(), strategy

    def batch_strategy():
        liq, strategies = best_strategy_batch(*row)
        return float(liq.pi_tot[0]).hex(), strategies[0]

    def scalar_attack():
        res = attack_profit(delta, position, pool, params, convention)
        return res.feasible, res.total_profit.hex() if res.feasible else None

    def batch_attack():
        res = attack_profit_batch(delta, *row)
        feasible = bool(res.feasible[0])
        return feasible, float(res.total_profit[0]).hex() if feasible else None

    assert returned_or_raised(scalar_strategy) == returned_or_raised(batch_strategy)
    assert returned_or_raised(scalar_attack) == returned_or_raised(batch_attack)
    cap = _x_collateral(position.collateral, params.bonus)
    for step_limit in (math.inf, cap / 200.0):  # greedy, and a fine walk ending on the crossing
        returned_or_raised(lambda: simulate_liquidation_sequence(
            position, pool, params, params.closing_factor, params.max_liq_fraction, convention,
            step_limit, max_steps=1_000))


# amm._sell forms b*a_eff and a*b before it divides by the new reserve, so
# these sales overflow to inf proceeds: the first pool's reserve product is
# inf, the second's is finite (parse_config accepts that scenario).  ROADMAP
# item 16's guards in amm._sell and amm._buy, which take the other operation
# order only where a product overflows, are the planned mend.
@pytest.mark.xfail(strict=True, reason="amm._sell overflows before it divides (ROADMAP item 16)")
@pytest.mark.parametrize("delta, position, pool, params, convention", [
    pytest.param(1e297, LoanPosition(1e-300, 1e-300), PoolState(1e300, 1e300, 0.0),
                 RiskParams(0.5, 0.05, 0.05, 0.05), RepayConvention.SPOT_PRICE,
                 id="reserve_product_overflows"),
    pytest.param(1e12, LoanPosition(2e-10, 1e290), PoolState(1.0, 1e300, 0.0),
                 STD, RepayConvention.EXECUTION_VALUE,
                 id="reserve_product_finite"),
])
def test_attack_profit_is_finite_or_raises_where_a_sale_overflows(delta, position, pool, params,
                                                                  convention):
    try:
        res = attack_profit(delta, position, pool, params, convention)
    except (ValueError, ArithmeticError):
        return
    assert math.isfinite(res.front_proceeds) and math.isfinite(res.liq_profit)
    for value in (res.buyback_cost, res.total_profit):
        assert value is None or math.isfinite(value)
