"""Fee-aware constant-product market maker.

The pool holds two reserves, a risky/collateral token and a debt asset
(stablecoin), and quotes the spot price ``reserve_debt / reserve_collateral``.
Swaps follow the Uniswap-v2 rule: the fee ``gamma`` is charged on the
incoming asset, so only ``(1 - gamma)`` of it enters the reserves, and the
product of the reserves is preserved exactly by every swap.

Selling ``a`` collateral returns

    out = B * a * (1 - gamma) / (A + a * (1 - gamma))

and buying exactly ``d`` collateral costs

    cost = B * d / ((1 - gamma) * (A - d))

which requires ``d < A``; asking for the entire reserve (or more) models a
reverting transaction.

All operations are pure: they return a new ``PoolState`` and never mutate.
"""

from __future__ import annotations

from dataclasses import dataclass


class InsufficientReservesError(ValueError):
    """Requested buy amount meets or exceeds the pool's collateral reserve."""


class ReserveUnderflowError(ValueError):
    """A computed pool reserve is not > 0: it underflowed to 0 or is NaN.

    Raised where a swap or liquidation leg leaves such a reserve, for
    instance a liquidation sale of a huge position into a tiny pool.  The
    message is the one :class:`PoolState` gives for that reserve, such as
    ``reserve_debt must be > 0, got 0.0``.
    """


@dataclass(frozen=True)
class PoolState:
    """Immutable CPMM state: reserves of both assets plus the swap fee."""

    reserve_collateral: float
    reserve_debt: float
    fee: float = 0.0

    def __post_init__(self) -> None:
        if not (self.reserve_collateral > 0.0 and self.reserve_debt > 0.0):
            _check_reserves(self.reserve_collateral, self.reserve_debt, ValueError)
        if not 0.0 <= self.fee < 1.0:
            raise ValueError(f"fee must lie in [0, 1), got {self.fee}")

    def spot_price(self) -> float:
        """Debt asset per unit collateral: reserve_debt / reserve_collateral."""
        return self.reserve_debt / self.reserve_collateral

    def sell_collateral(self, amount_in: float) -> tuple[float, "PoolState"]:
        """Swap ``amount_in`` collateral for debt asset.

        Returns ``(amount_out, new_pool)``.  The fee is levied on the incoming
        collateral, so the reserves move to ``A + a*(1-fee)`` and ``A*B / (A +
        a*(1-fee))``; the product is preserved by construction.  A zero-size
        swap is a no-op returning the pool unchanged.
        """
        out, new_a, new_b = _sale(self.reserve_collateral, self.reserve_debt, self.fee, amount_in)
        return out, self if amount_in == 0.0 else PoolState(new_a, new_b, self.fee)

    def buy_collateral_exact(self, amount_out: float) -> tuple[float, "PoolState"]:
        """Buy exactly ``amount_out`` collateral, paying in the debt asset.

        Returns ``(cost, new_pool)`` with ``cost = B*d / ((1-fee)*(A-d))``.
        The fee is charged on the incoming debt asset, so the new reserves are
        ``A - d`` and ``A*B / (A - d)`` and the product is again preserved.

        Raises :class:`InsufficientReservesError` when ``amount_out`` is not
        strictly below the collateral reserve; that request could never
        execute on chain and is treated as a reverting transaction.
        """
        cost, new_a, new_b = _purchase(self.reserve_collateral, self.reserve_debt, self.fee,
                                       amount_out)
        return cost, self if amount_out == 0.0 else PoolState(new_a, new_b, self.fee)


# Number-level swap legs, shared by the PoolState methods, the engine's pool
# update and the batch path (engine.run_liquidation_batch,
# attack.attack_profit_batch): each takes floats or numpy arrays and keeps
# one expression order, so every path gives the same bits.

def _sell(a, b, fee, amount_in):
    """Proceeds and reserves (A + a_eff, A*B / (A + a_eff)) of a sale, a_eff = amount*(1 - fee).

    With ``fee=0`` it is the pool absorbing ``amount_in`` net collateral:
    multiplying by 1.0 is exact.
    """
    a_eff = amount_in * (1.0 - fee)
    new_a = a + a_eff
    # B*a_eff/new_a instead of B - new_b: same algebra, no cancellation
    # when the swap is small relative to the reserves.
    return b * a_eff / new_a, new_a, a * b / new_a


def _check_reserves(a, b, error=ReserveUnderflowError) -> None:
    """Raise ``error`` unless both reserves are > 0 (a reserve that underflowed to 0 or is NaN)."""
    if not a > 0.0:
        raise error(f"reserve_collateral must be > 0, got {a}")
    if not b > 0.0:
        raise error(f"reserve_debt must be > 0, got {b}")


def _require_reserves(a, b, rows) -> None:
    """:func:`_check_reserves` on the first of ``rows`` whose computed reserves are not > 0."""
    bad = rows & ~((a > 0.0) & (b > 0.0))
    if bad.any():
        i = int(bad.argmax())
        _check_reserves(float(a[i]), float(b[i]))


def _sale(a, b, fee, amount_in):
    """:meth:`PoolState.sell_collateral` over floats: proceeds and post reserves.

    A zero size leaves the reserves as they are; post reserves that are not
    > 0 raise :class:`ReserveUnderflowError`.
    """
    if amount_in < 0.0:
        raise ValueError(f"swap input must be >= 0, got {amount_in}")
    if amount_in == 0.0:
        return 0.0, a, b
    out, new_a, new_b = _sell(a, b, fee, amount_in)
    if not (new_a > 0.0 and new_b > 0.0):
        _check_reserves(new_a, new_b)
    return out, new_a, new_b


def _purchase(a, b, fee, amount_out):
    """:meth:`PoolState.buy_collateral_exact` over floats: cost and post reserves."""
    if amount_out < 0.0:
        raise ValueError(f"buy amount must be >= 0, got {amount_out}")
    if amount_out == 0.0:
        return 0.0, a, b
    if amount_out >= a:
        raise InsufficientReservesError(f"cannot buy {amount_out} with only {a} in reserve")
    cost, new_a, new_b = _buy(a, b, fee, amount_out)
    if not (new_a > 0.0 and new_b > 0.0):
        _check_reserves(new_a, new_b)
    return cost, new_a, new_b


def _buy(a, b, fee, amount_out):
    """Cost and reserves of buying exactly ``amount_out < A`` collateral."""
    new_a = a - amount_out
    return b * amount_out / ((1.0 - fee) * new_a), new_a, a * b / new_a
