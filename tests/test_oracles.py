"""Oracle machinery: DP convergence, quadrature, inequality suites, generator."""

import math

import numpy as np
import pytest

from oevsim import (
    LoanPosition,
    PoolState,
    RepayConvention,
    compute_bounds,
    dp_oracle,
    health_factor,
    hf_monotonicity_check,
    integral_oracle,
    run_liquidation,
    simulate_liquidation_sequence,
    subadditivity_check,
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
from oevsim.oracles import (
    _EXHAUST_EPS,
    Instance,
    SequenceOutcome,
    _debt_reserves,
    _trade,
    random_instances,
)

from conftest import STD, leaves, named_state, pool_at


@pytest.mark.parametrize("grid_n", [1e4, 100.0])
def test_a_float_grid_gives_the_bits_of_its_integer(grid_n):
    for inst in random_instances(3, 1000, feasible_only=True):
        args = (inst.position, inst.pool, inst.params, inst.cf_target, inst.kappa)
        assert dp_oracle(*args, grid_n).hex() == dp_oracle(*args, int(grid_n)).hex()


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


def test_zero_fee_zero_bonus_marginal_run_is_profitless():
    # Degenerate economics: the marginal run nets exactly nothing, as does a run of size 0.
    pool = PoolState(1000.0, 2_000_000.0, 0.0)
    assert _run_profit(pool.reserve_collateral, pool.reserve_debt,
                       trade_multiplier(pool.fee, 0.0), 4.0) == 0.0
    assert integral_oracle(pool, 4.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert integral_oracle(pool, 0.0, 0.05) == 0.0


def test_hf_monotonicity_zero_split_and_chain():
    pos = LoanPosition(6.0, 10_000.0)
    pool = pool_at(1500.0)
    hf_lump, hf_seq, holds = hf_monotonicity_check(pos, pool, 0.85, 0.05, 1.0, 0.0)
    assert holds
    assert hf_lump == pytest.approx(hf_seq, rel=1e-15)


def test_hf_monotonicity_split_that_claims_all_the_collateral():
    # (1 + 1) * 1.25 claims exactly the collateral 2.5, so both health factors are 0.
    pos, pool = LoanPosition(2.5, 1e6), PoolState(1000.0, 2e6, 0.0)
    assert hf_monotonicity_check(pos, pool, 0.85, 0.25, 1.0, 1.0) == (0.0, 0.0, True)


def test_sequence_simulator_gate_and_terminators():
    pos = LoanPosition(6.0, 10_000.0)
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


def test_a_walk_that_starts_at_the_gate_transacts():
    # The health factor equals cf_target exactly, and the gate is open at equality.
    position, pool, params, _ = named_state("at_the_gate")[1]
    assert health_factor(position, pool, params.haircut) == 1.0
    walk = simulate_liquidation_sequence(position, pool, params, 1.0, params.max_liq_fraction)
    assert (walk.terminator, walk.steps) == ("collateral", 5)


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


def test_random_instances_gives_up_when_the_fee_filter_rejects_every_draw():
    # 100 bps lies above 0.9 of bonus parity at a 1 % bonus.
    with pytest.raises(RuntimeError, match="^instance generator rejected too many draws$"):
        random_instances(1, 0, fees_bps=(100.0,), bonuses=(0.01,), feasible_only=True)


def test_dp_oracle_rejects_grid_below_two():
    with pytest.raises(ValueError):
        dp_oracle(LoanPosition(6.0, 10_000.0), pool_at(1500.0), STD, 1.0, 0.5, 1)


def walk_reference(position, pool, params, cf_target, kappa, convention, step_limit, max_steps,
                   products=None):
    """simulate_liquidation_sequence as one scalar transaction per loop iteration.

    A ``products`` list receives the pool's reserve product ``a*r`` at entry and
    after each transaction.
    """
    theta, ell, fee = params.haircut, params.bonus, pool.fee
    c_eps = _EXHAUST_EPS * max(position.collateral, 1.0)
    b_eps = _EXHAUST_EPS * max(position.debt, 1.0)
    one_plus = 1.0 + ell
    spot = convention is RepayConvention.SPOT_PRICE
    u, m = trade_multiplier(fee, ell), _traj_factor(fee, convention)
    fine = step_limit < math.inf

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
    if products is not None:
        products.append(a * r)
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
        crossing = fine and step[5] > cf_target
        if crossing:
            x, _ = halve(lambda size: not step_at(c, b, a, r, size)[5] > cf_target, 0.0, x,
                         lambda lo, hi: hi - lo <= 1e-15 * max(1.0, hi), 200)
            step = step_at(c, b, a, r, x)
        if x > 0.0:
            dpi, c, b, a, r, hf = step
            profit += dpi
            cum_x += x
            steps += 1
            if products is not None:
                products.append(a * r)
        if crossing:
            term = "closing_factor"
            break
    return SequenceOutcome(profit, term, steps, cum_x, LoanPosition(c, b), PoolState(a, r, fee))


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


def test_elementwise_products_and_quotients_round_as_floats():
    # The walk's columns, its debt reserves among them, rest on numpy rounding
    # each float64 * and / as a Python float does: on normal operands, on
    # subnormal operands and results, and on results that overflow to inf.
    rng = np.random.default_rng(37)
    # Binary exponent ranges of x and y: normal, x mostly subnormal, x near overflow.
    for exponents in [((-60, 60), (-60, 60)), ((-1073, -990), (-60, 60)),
                      ((960, 1023), (-60, 60))]:
        x, y = (rng.uniform(1.0, 2.0, 3000) * np.exp2(rng.integers(*bounds, 3000))
                for bounds in exponents)
        with np.errstate(all="ignore"):
            got = (x * y, x / y, y / x, x[0] / y)
        xs, ys = x.tolist(), y.tolist()
        want = ([p * q for p, q in zip(xs, ys)], [p / q for p, q in zip(xs, ys)],
                [q / p for p, q in zip(xs, ys)], [xs[0] / q for q in ys])
        for col, ref in zip(got, want):
            assert [v.hex() for v in col.tolist()] == [v.hex() for v in ref]


def reserve_loop(a_col, r):
    """The debt reserves after each collateral reserve of a_col, one float step at a time."""
    a_list, r_list = a_col.tolist(), [r]
    for a_pre, a_post in zip(a_list, a_list[1:]):
        r_list.append(a_pre * r_list[-1] / a_post)
    return r_list


def seeded_draw(seed):
    """A collateral reserve, a per-step inflow and a debt reserve as random states draw them."""
    rng = np.random.default_rng(seed)
    return tuple((10.0 ** rng.uniform(3.0, 7.0, 3) * [1.0, 1e-5, 100.0]).tolist())


@pytest.mark.parametrize("draw, moves_at", [
    (seeded_draw(1), None),
    (seeded_draw(19), 1),
    (seeded_draw(53), 147),
    # Row 198's product feeds the last reserve.
    (seeded_draw(12419), 198),
    # a*r overflows to inf, and so does every reserve.
    ((1e200, 1e195, 1e200), None),
    # The collateral reserve reaches inf at row 107: the reserve there is 0, its
    # product NaN, and every reserve after it NaN.
    ((1e308, 7.5e305, 1.0), 107),
], ids=["never", "row_1", "mid_column", "last_product", "product_overflows",
        "column_reaches_inf"])
def test_the_debt_reserve_column_matches_the_float_loop(draw, moves_at):
    a0, inflow, r = draw
    with np.errstate(all="ignore"):
        # The collateral reserves of 199 equal sales, as the walk's chunks form them.
        a_col = np.add.accumulate(np.r_[a0, np.full(199, inflow)])
        got = _debt_reserves(a_col, r)
    want = reserve_loop(a_col, r)
    products = [a * q for a, q in zip(a_col.tolist(), want)]
    assert next((k for k, p in enumerate(products) if not p == products[0]), None) == moves_at
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


# Four feasible states.  In steps of cap/20000, GATE_WALK crosses the gate after about
# 16,000 of them, and DRAIN_WALK never shuts it and runs out of collateral; the pool's
# reserve product a*r moves on many of their rows.  REPEAT_DRAIN runs out of
# collateral and REPEAT_GATE crosses the gate with a product that never moves.
_WALKS = random_instances(15, seed=77, feasible_only=True)
DRAIN_WALK, GATE_WALK, REPEAT_DRAIN, REPEAT_GATE = (_WALKS[i] for i in (0, 5, 2, 14))


def walk_pair(inst, convention, step_limit, max_steps, cf_target=None, kappa=None):
    """The walk and its reference, which ends on the crossing when the step is finite."""
    args = (inst.position, inst.pool, inst.params,
            inst.cf_target if cf_target is None else cf_target,
            inst.kappa if kappa is None else kappa, convention, step_limit)
    return (simulate_liquidation_sequence(*args, max_steps=max_steps),
            walk_reference(*args, max_steps))


def span(inst):
    return _x_collateral(inst.position.collateral, inst.params.bonus)


@pytest.mark.parametrize("convention", list(RepayConvention), ids=lambda c: c.value)
def test_long_walks_match_the_scalar_walk(convention):
    got, want = walk_pair(GATE_WALK, convention, span(GATE_WALK) / 20_000, 40_000)
    assert list(leaves(got)) == list(leaves(want))
    assert got.terminator == "closing_factor" and got.steps > 16_000


@pytest.mark.parametrize("convention", list(RepayConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("case", ["collateral", "closing_factor"])
def test_walks_whose_reserve_product_never_moves_match_the_scalar_walk(convention, case):
    # Each chunk's debt reserves are then one division, with no loop.
    inst = {"collateral": REPEAT_DRAIN, "closing_factor": REPEAT_GATE}[case]
    args = (inst.position, inst.pool, inst.params, inst.cf_target, inst.kappa, convention,
            span(inst) / 20_000)
    products = []
    want = walk_reference(*args, 40_000, products)
    got = simulate_liquidation_sequence(*args, max_steps=40_000)
    assert list(leaves(got)) == list(leaves(want))
    assert got.terminator == case and got.steps > 5_000
    assert len(products) == want.steps + 1 and set(products) == {products[0]}


@pytest.mark.parametrize("convention", [RepayConvention.EXECUTION_VALUE,
                                        RepayConvention.EXECUTION_PER_BONUS],
                         ids=lambda c: c.value)
def test_a_chunk_with_no_plain_row_hands_the_step_to_the_scalar_walk(convention):
    # In steps of x_closing/8.5 the first chunk starts after 8 plain steps, and
    # its first row already crosses the gate.
    inst = GATE_WALK
    bounds, _ = compute_bounds(inst.position, inst.pool, inst.params, inst.cf_target, 1.0,
                               convention)
    got, want = walk_pair(inst, convention, bounds.x_closing / 8.5, 40_000, kappa=1.0)
    assert list(leaves(got)) == list(leaves(want))
    assert got.terminator == "closing_factor" and got.steps == 9


@pytest.mark.parametrize("convention", list(RepayConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("max_steps", [1025, 2100, 4097])
def test_a_step_budget_inside_a_run_matches_the_scalar_walk(convention, max_steps):
    got, want = walk_pair(DRAIN_WALK, convention, span(DRAIN_WALK) / 20_000, max_steps)
    assert list(leaves(got)) == list(leaves(want))
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
    got, want = walk_pair(DRAIN_WALK, convention, share * cap0, 40_000, kappa=kappa)
    assert list(leaves(got)) == list(leaves(want))
    assert got.cumulative_x < got.steps * share * cap0 * (1.0 - 1e-3)


@pytest.mark.parametrize("step_limit", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_a_step_limit_that_is_not_positive_stalls_the_walk(step_limit):
    # A step of that size makes no progress; the walk ends before its first one.
    inst = GATE_WALK
    assert health_factor(inst.position, inst.pool, inst.params.haircut) <= inst.cf_target
    got = simulate_liquidation_sequence(inst.position, inst.pool, inst.params, inst.cf_target,
                                        inst.kappa, step_limit=step_limit)
    assert (got.terminator, got.steps, got.profit, got.cumulative_x) == ("stalled", 0, 0.0, 0.0)
    assert got.post_position is inst.position and got.post_pool is inst.pool


@pytest.mark.parametrize("convention", list(RepayConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("case", ["over_gate", "collateral", "debt"])
def test_walk_ends_match_the_scalar_walk(convention, case):
    # GATE_WALK's finite steps end on the gate crossing, and with a gate that
    # never shuts it repays the whole debt.
    inst, cf_target = {"over_gate": (GATE_WALK, None), "collateral": (DRAIN_WALK, None),
                       "debt": (GATE_WALK, math.inf)}[case]
    got, want = walk_pair(inst, convention, span(inst) / 5_000, 40_000, cf_target=cf_target)
    assert list(leaves(got)) == list(leaves(want))
    assert got.terminator == {"over_gate": "closing_factor"}.get(case, case)
    assert got.steps > 4_000
    if case == "over_gate":
        assert health_factor(got.post_position, got.post_pool, inst.params.haircut) <= inst.cf_target

