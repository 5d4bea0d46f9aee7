"""Lending-protocol position state: health factor and liquidation bounds.

A position holds ``c`` collateral tokens against ``b`` units of debt asset.
With the CPMM quoting the spot price ``B/A``, the health factor is

    HF = haircut * B * c / (A * b)

and the position is liquidatable once HF falls to or below the active
threshold (1, or the closing factor for a full liquidation).

A liquidation of size ``x`` hands the liquidator ``x * (1 + bonus)``
collateral, which is sold into the pool (fee on the way in), while the
borrower's debt is written down by a repayment amount ``beta(x)``.  How
``beta`` is priced is a protocol convention; three variants are supported
(:class:`RepayConvention`), and every bound below is derived from the
selected convention so that the closed forms, the post-state updates and
the brute-force simulators all describe the same process.

Three bounds cap any liquidation run from a given state:

* ``x_collateral = c / (1 + bonus)`` -- the borrower runs out of collateral;
* a debt bound -- the repayment cannot exceed (a fraction ``kappa`` of) the
  outstanding debt; the per-transaction cap and the exhaustion point of a
  run of many small liquidations are both provided;
* a recovery bound ``x_closing`` -- the trade size at which the position's
  health factor climbs back to the threshold, obtained as the smallest
  non-negative root of a quadratic (see :func:`bound_closing`).

Everything here is pure and immutable, hence thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .amm import PoolState

# Tolerance for the root self-check in bound_closing.
_ROOT_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class LoanPosition:
    """Borrower state at the lending protocol: collateral tokens and debt owed."""

    collateral: float
    debt: float

    def __post_init__(self) -> None:
        if self.collateral < 0.0:
            raise ValueError(f"collateral must be >= 0, got {self.collateral}")
        if self.debt < 0.0:
            raise ValueError(f"debt must be >= 0, got {self.debt}")


@dataclass(frozen=True)
class RiskParams:
    """Protocol risk parameters.

    haircut           fraction of collateral market value counted toward safety
    bonus             extra collateral paid to the liquidator per unit repaid
    closing_factor    HF threshold below which the whole debt may be liquidated
    max_liq_fraction  fraction of debt repayable in one transaction when
                      closing_factor <= HF <= 1
    """

    haircut: float
    bonus: float
    closing_factor: float
    max_liq_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.haircut <= 1.0:
            raise ValueError(f"haircut must lie in (0, 1], got {self.haircut}")
        if self.bonus < 0.0:
            raise ValueError(f"bonus must be >= 0, got {self.bonus}")
        if not 0.0 < self.closing_factor <= 1.0:
            raise ValueError(f"closing_factor must lie in (0, 1], got {self.closing_factor}")
        if not 0.0 < self.max_liq_fraction <= 1.0:
            raise ValueError(f"max_liq_fraction must lie in (0, 1], got {self.max_liq_fraction}")


class RepayConvention(Enum):
    """How the debt write-down beta(x) of a single liquidation is priced.

    SPOT_PRICE          beta(x) = B*x/A, the pre-trade spot value of x units.
    EXECUTION_VALUE     beta(x) = B*x/(A + x*u), x units at the gross average
                        execution price of the accompanying swap, where
                        u = (1-fee)*(1+bonus).  This is the amount a run of
                        many marginal liquidations repays in total, whichever
                        of the three conventions prices the individual steps,
                        so it is the internally consistent default.
    EXECUTION_PER_BONUS beta(x) = y/(1+bonus): the swap proceeds of the
                        x*(1+bonus) collateral, net of the bonus share, i.e.
                        (1-fee)*B*x/(A + x*u).
    """

    SPOT_PRICE = "spot_price"
    EXECUTION_VALUE = "execution_value"
    EXECUTION_PER_BONUS = "execution_per_bonus"


DEFAULT_CONVENTION = RepayConvention.EXECUTION_VALUE


def trade_multiplier(fee: float, bonus: float) -> float:
    """u = (1-fee)*(1+bonus): collateral entering the pool per unit liquidated."""
    return (1.0 - fee) * (1.0 + bonus)


def _traj_factor(fee: float, convention: RepayConvention) -> float:
    """Multiplier m such that a marginal run up to x repays m*B*x/(A + x*u).

    Per-step SPOT_PRICE and EXECUTION_VALUE repayments both integrate to the
    m = 1 expression (the execution-value write-down telescopes exactly);
    EXECUTION_PER_BONUS scales the whole trajectory by (1-fee).
    """
    return (1.0 - fee) if convention is RepayConvention.EXECUTION_PER_BONUS else 1.0


def health_factor(position: LoanPosition, pool: PoolState, haircut: float) -> float:
    """haircut * B * c / (A * b); +inf for a debt-free position."""
    if position.debt == 0.0:
        return math.inf
    return haircut * pool.reserve_debt * position.collateral / (
        pool.reserve_collateral * position.debt
    )


def bound_collateral(position: LoanPosition, bonus: float) -> float:
    """Largest liquidation the collateral can pay for: c / (1 + bonus)."""
    if bonus < 0.0:
        raise ValueError(f"bonus must be >= 0, got {bonus}")
    return position.collateral / (1.0 + bonus)


def repay_amount(
    pool: PoolState,
    x: float,
    bonus: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> float:
    """Debt write-down beta(x) of one transaction of size x from this pool state."""
    if x == 0.0:
        return 0.0
    if convention is RepayConvention.SPOT_PRICE:
        return pool.reserve_debt * x / pool.reserve_collateral
    return marginal_repay_total(pool, x, bonus, convention)


def marginal_repay_total(
    pool: PoolState,
    x: float,
    bonus: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> float:
    """Total debt repaid by a run of marginal liquidations summing to x.

    Equals m*B*x/(A + x*u) with m from the active convention; the individual
    step sizes do not matter in the limit.  Under EXECUTION_VALUE and
    EXECUTION_PER_BONUS it is also the write-down of a single transaction.
    """
    a, b_res = pool.reserve_collateral, pool.reserve_debt
    u = trade_multiplier(pool.fee, bonus)
    m = _traj_factor(pool.fee, convention)
    return m * b_res * x / (a + x * u)


def _debt_cap(debt: float, pool: PoolState, bonus: float, m: float) -> float:
    """Solve m*B*x/(A + x*u) = debt: debt*A / (m*B - debt*u).

    +inf when the denominator is not positive (the pool lacks the debt-asset
    depth to ever absorb that repayment, so the cap never binds); 0 for zero
    debt.
    """
    den = m * pool.reserve_debt - debt * trade_multiplier(pool.fee, bonus)
    if den <= 0.0:
        return math.inf
    return debt * pool.reserve_collateral / den


def bound_debt(
    position: LoanPosition,
    pool: PoolState,
    kappa: float,
    bonus: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> float:
    """Per-transaction cap: largest single x with beta(x) <= kappa * debt.

    kappa*b*A/B under SPOT_PRICE; otherwise beta has the trajectory form
    m*B*x/(A + x*u) and the cap is :func:`_debt_cap` of kappa*b.
    """
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    kb = kappa * position.debt
    if convention is RepayConvention.SPOT_PRICE:
        return kb * pool.reserve_collateral / pool.reserve_debt
    return _debt_cap(kb, pool, bonus, _traj_factor(pool.fee, convention))


def debt_exhaustion_bound(
    position: LoanPosition,
    pool: PoolState,
    bonus: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> float:
    """Cumulative size at which a marginal run has repaid the entire debt.

    Solves m*B*x/(A + x*u) = b with :func:`_debt_cap`; +inf when the pool
    lacks the debt-asset depth to ever absorb full repayment.
    """
    return _debt_cap(position.debt, pool, bonus, _traj_factor(pool.fee, convention))


def hf_after_marginal(
    position: LoanPosition,
    pool: PoolState,
    haircut: float,
    bonus: float,
    x: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> float:
    """Health factor after a marginal liquidation run of cumulative size x.

    Collateral falls by x*(1+bonus), the pool absorbs x*u collateral, the
    marked price becomes B*A/(A + x*u)**2 and the position's debt falls by
    the trajectory repayment m*B*x/(A + x*u).
    """
    a, b_res = pool.reserve_collateral, pool.reserve_debt
    u = trade_multiplier(pool.fee, bonus)
    remaining = position.debt - marginal_repay_total(pool, x, bonus, convention)
    if remaining == 0.0:
        return math.inf
    price = b_res * a / (a + x * u) ** 2
    return haircut * (position.collateral - x * (1.0 + bonus)) * price / remaining


@dataclass(frozen=True)
class ClosingBound:
    """Recovery bound and the solver branch that produced it.

    ``x`` is +inf when no non-negative real root exists (the health factor
    never recovers to the target).  ``branch`` records whether the quadratic,
    its linear degeneration, or no root ("none") produced the value.
    """

    x: float
    branch: str


def bound_closing(
    position: LoanPosition,
    pool: PoolState,
    haircut: float,
    bonus: float,
    cf_target: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> ClosingBound:
    """Smallest non-negative x with hf_after_marginal(x) == cf_target.

    The defining equation reduces to

        cf * curvature * x**2 - linear * x - offset = 0

    with  curvature = m*B*u - b*u**2,
          linear    = cf*(2*A*b*u - m*B*A) + haircut*B*A*(1+bonus),
          offset    = cf*b*A**2 - haircut*B*A*c,
          u = (1-fee)*(1+bonus),  m the convention's trajectory factor.

    Among the real roots the smallest non-negative one that is an actual
    crossing inside [0, min(collateral bound, debt-exhaustion bound)] is
    preferred; if no root falls in that range the smallest non-negative
    root is reported as-is (it cannot bind then).  Roots down to
    -1e-12*min(A/u, collateral bound) are rounding noise around 0 and count
    as 0; scaling that tolerance to the position, not only to the pool,
    keeps a tiny position in a deep pool from taking a truly negative root
    for 0.  The returned root is polished by two Newton steps and verified
    against the defining equation to 1e-9.
    """
    a, b_res = pool.reserve_collateral, pool.reserve_debt
    c = position.collateral
    b = position.debt
    if b <= 0.0:
        return ClosingBound(math.inf, "none")
    u = trade_multiplier(pool.fee, bonus)
    m = _traj_factor(pool.fee, convention)
    cf = cf_target

    linear = cf * (2.0 * a * b * u - m * b_res * a) + haircut * b_res * a * (1.0 + bonus)
    curvature = m * b_res * u - b * u * u
    offset = cf * b * a * a - haircut * b_res * a * c

    lead = cf * curvature
    roots: list[float]
    if lead == 0.0:
        branch = "linear"
        roots = [-offset / linear] if linear != 0.0 else []
    else:
        branch = "quadratic"
        disc = linear * linear + 4.0 * lead * offset
        if disc < 0.0:
            return ClosingBound(math.inf, "none")
        # Citardauq split keeps both roots accurate when linear dominates.
        sq = math.sqrt(disc)
        q = -0.5 * (-linear + math.copysign(sq, -linear))
        roots = [q / lead]
        if q != 0.0:
            roots.append(-offset / q)

    def poly(x: float) -> float:
        return (lead * x - linear) * x - offset

    def poly_deriv(x: float) -> float:
        return 2.0 * lead * x - linear

    x_c = bound_collateral(position, bonus)
    tol = 1e-12 * min(a / max(u, 1e-300), x_c)
    candidates = sorted(max(r, 0.0) for r in roots if math.isfinite(r) and r >= -tol)
    if not candidates:
        return ClosingBound(math.inf, "none")

    in_range_cap = min(x_c, debt_exhaustion_bound(position, pool, bonus, convention))
    in_range = [r for r in candidates if r <= in_range_cap * (1.0 + 1e-12)]
    root = in_range[0] if in_range else candidates[0]

    for _ in range(2):  # Newton polish against float cancellation
        d = poly_deriv(root)
        if d == 0.0:
            break
        step = poly(root) / d
        if not math.isfinite(step):
            break
        root -= step
    root = max(root, 0.0)

    root = _refine_and_verify_closing_root(position, pool, haircut, bonus, cf, convention, root, poly)
    return ClosingBound(root, branch)


def _refine_and_verify_closing_root(position, pool, haircut, bonus, cf, convention, root, poly):
    """Defining-property self-check: the returned root must satisfy HF == cf.

    The polynomial's coefficients can lose digits in extreme states, so
    when the residual of the defining equation exceeds the tolerance the
    root is re-bisected on the health-factor gap itself; a root no nearby
    sign change brackets must meet the tolerance as it is.
    """
    remaining = position.debt - marginal_repay_total(pool, root, bonus, convention)
    if remaining <= 1e-12 * position.debt:
        # Root sits at (or beyond) debt exhaustion where HF is singular; fall
        # back to the polynomial residual at a matching scale.
        scale = abs(poly(0.0)) + abs(poly(2.0 * root + 1.0)) + 1.0
        if abs(poly(root)) > 1e-7 * scale:
            raise ArithmeticError("recovery-bound root failed its polynomial self-check")
        return root

    tol = _ROOT_CHECK_TOL * max(1.0, cf)

    def gap(x: float) -> float:
        return hf_after_marginal(position, pool, haircut, bonus, x, convention) - cf

    res = gap(root)
    if abs(res) > 0.5 * tol:
        width = max(root, 1.0) * 1e-12
        while width <= 0.25 * max(root, 1.0):
            lo, hi = max(root - width, 0.0), root + width
            glo, ghi = gap(lo), gap(hi)
            if (glo > 0.0) != (ghi > 0.0):
                while hi - lo > math.ulp(hi):
                    mid = 0.5 * (lo + hi)
                    gm = gap(mid)
                    if gm == 0.0:
                        return mid
                    if (gm > 0.0) == (glo > 0.0):
                        lo, glo = mid, gm
                    else:
                        hi = mid
                # Crossing bracketed to one ulp: the defining property holds
                # to the representable limit even if HF is too steep for the
                # residual itself to reach the tolerance.
                return 0.5 * (lo + hi)
            width *= 8.0
    if abs(res) > tol:
        raise ArithmeticError(
            f"recovery-bound root failed its self-check: residual={res!r} target={cf!r}"
        )
    return root


@dataclass(frozen=True)
class BoundSet:
    """The three liquidation bounds of a state.

    x_debt_full is the cumulative bound of a marginal run (full repayment,
    kappa circumvented by many small transactions); x_debt_kappa is the
    single-transaction cap at the given kappa.  Both are +inf when they
    cannot bind.
    """

    x_collateral: float
    x_debt_full: float
    x_debt_kappa: float
    x_closing: float


def compute_bounds(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    cf_target: float,
    kappa: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> BoundSet:
    """Evaluate all bounds of the current state against a given threshold pair."""
    return BoundSet(
        x_collateral=bound_collateral(position, params.bonus),
        x_debt_full=debt_exhaustion_bound(position, pool, params.bonus, convention),
        x_debt_kappa=bound_debt(position, pool, kappa, params.bonus, convention),
        x_closing=bound_closing(position, pool, params.haircut, params.bonus, cf_target,
                                convention).x,
    )
