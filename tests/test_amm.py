"""CPMM mechanics: quoted examples, swap invariants, fee effects."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oevsim import InsufficientReservesError, PoolState, ReserveUnderflowError

reserves = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False)
fees = st.floats(min_value=0.0, max_value=0.2, exclude_max=False)


def test_spot_price_examples():
    assert PoolState(1000.0, 2_000_000.0, 0.003).spot_price() == 2000.0
    assert PoolState(123.45, 123.45, 0.01).spot_price() == 1.0
    assert PoolState(10_000.0, 28_000_000.0).spot_price() == 2800.0


def test_sell_zero_is_noop_identity():
    pool = PoolState(1000.0, 2_000_000.0, 0.003)
    out, new = pool.sell_collateral(0.0)
    assert out == 0.0
    assert new is pool


def test_sell_no_fee_halves_reserve():
    # Doubling the collateral reserve must withdraw half the debt reserve.
    pool = PoolState(1000.0, 2_000_000.0, 0.0)
    out, new = pool.sell_collateral(1000.0)
    assert out == pytest.approx(1_000_000.0, rel=1e-15)
    assert new.reserve_collateral == pytest.approx(2000.0)


def test_sell_with_fee_matches_exact_rational_arithmetic():
    pool = PoolState(1000.0, 2_000_000.0, 0.003)
    out, new = pool.sell_collateral(100.0)
    a, b, g, amt = map(Fraction, (1000, 2_000_000, Fraction(3, 1000), 100))
    expected = b * amt * (1 - g) / (a + amt * (1 - g))
    assert out == pytest.approx(float(expected), rel=1e-12)
    assert new.reserve_collateral == pytest.approx(float(a + amt * (1 - g)), rel=1e-14)


def test_buy_zero_is_noop():
    pool = PoolState(1000.0, 2_000_000.0, 0.003)
    cost, new = pool.buy_collateral_exact(0.0)
    assert cost == 0.0 and new is pool


def test_buy_cost_blows_up_toward_reserve():
    pool = PoolState(1000.0, 2_000_000.0, 0.003)
    c1, _ = pool.buy_collateral_exact(0.999 * 1000.0)
    c2, _ = pool.buy_collateral_exact(0.9999 * 1000.0)
    assert c2 > c1 > pool.reserve_debt  # already far beyond the whole debt reserve


def test_buy_substitution_example():
    b = 2e9 / 1006.0
    pool = PoolState(1006.0, b, 0.0)
    cost, _ = pool.buy_collateral_exact(6.0)
    assert cost == pytest.approx(6.0 * b / 1000.0, rel=1e-14)


def test_buy_at_or_above_reserve_reverts():
    pool = PoolState(1000.0, 2_000_000.0, 0.001)
    with pytest.raises(InsufficientReservesError):
        pool.buy_collateral_exact(1000.0)
    with pytest.raises(InsufficientReservesError):
        pool.buy_collateral_exact(1001.0)


def test_buy_that_underflows_the_debt_reserve_raises():
    # A*B = 1e-400 underflows to 0, so the debt reserve after the buy is 0.
    with pytest.raises(ReserveUnderflowError, match=r"^reserve_debt must be > 0, got 0\.0$"):
        PoolState(1e-200, 1e-200).buy_collateral_exact(5e-201)


def test_negative_amounts_rejected():
    pool = PoolState(10.0, 10.0)
    with pytest.raises(ValueError):
        pool.sell_collateral(-1.0)
    with pytest.raises(ValueError):
        pool.buy_collateral_exact(-1.0)


def test_state_validation():
    with pytest.raises(ValueError):
        PoolState(0.0, 1.0)
    with pytest.raises(ValueError):
        PoolState(1.0, -1.0)
    with pytest.raises(ValueError):
        PoolState(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PoolState(1.0, 1.0, -0.1)


@given(a=reserves, b=reserves, fee=fees, amt=st.floats(min_value=0.0, max_value=1e9))
@settings(max_examples=300, deadline=None)
def test_product_preserved_by_sell(a, b, fee, amt):
    pool = PoolState(a, b, fee)
    _, new = pool.sell_collateral(amt)
    k = pool.reserve_collateral * pool.reserve_debt
    assert abs(new.reserve_collateral * new.reserve_debt - k) <= 1e-12 * k


@given(a=reserves, b=reserves, fee=fees, frac=st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=300, deadline=None)
def test_product_preserved_by_buy(a, b, fee, frac):
    pool = PoolState(a, b, fee)
    _, new = pool.buy_collateral_exact(frac * a)
    k = pool.reserve_collateral * pool.reserve_debt
    assert abs(new.reserve_collateral * new.reserve_debt - k) <= 1e-12 * k


def test_output_strictly_decreasing_in_fee():
    outs = [
        PoolState(1000.0, 2_000_000.0, g).sell_collateral(50.0)[0]
        for g in (0.0, 0.001, 0.003, 0.01, 0.03)
    ]
    assert all(x > y for x, y in zip(outs, outs[1:]))


@pytest.mark.parametrize("fee", [0.0, 0.003, 0.01])
def test_round_trip_cost(fee):
    pool = PoolState(1000.0, 2_000_000.0, fee)
    received, mid = pool.sell_collateral(25.0)
    paid, _ = mid.buy_collateral_exact(25.0)
    if fee == 0.0:
        assert paid == pytest.approx(received, rel=1e-12)
    else:
        assert paid > received


def test_price_moves_in_trade_direction():
    pool = PoolState(1000.0, 2_000_000.0, 0.003)
    _, after_sell = pool.sell_collateral(10.0)
    assert after_sell.spot_price() < pool.spot_price()
    _, after_buy = pool.buy_collateral_exact(10.0)
    assert after_buy.spot_price() > pool.spot_price()
