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
  outstanding debt; :func:`compute_bounds` reports both the per-transaction
  cap and the exhaustion point of a run of many small liquidations;
* a recovery bound ``x_closing`` -- the trade size at which the position's
  health factor climbs back to the threshold, obtained as the smallest
  non-negative root of a quadratic (see :func:`bound_closing`).

Everything here is pure and immutable, hence thread-safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._numerics import halve, pmax, pmin
from .amm import PoolState

# Tolerance for the health-factor self-check in bound_closing: absolute, as
# every cf_target lies in (0, 1].
_ROOT_CHECK_TOL = 1e-9
# Share of the debt or the collateral left below which a recovery root counts
# as an exhaustion point: the cancellation in what is left then costs the
# health factor more relative accuracy than _ROOT_CHECK_TOL.
_EXHAUSTED = sys.float_info.epsilon / _ROOT_CHECK_TOL


@dataclass(frozen=True)
class LoanPosition:
    """Borrower state at the lending protocol: collateral tokens and debt owed."""

    collateral: float
    debt: float

    def __post_init__(self) -> None:
        if not self.collateral >= 0.0:
            raise ValueError(f"collateral must be >= 0, got {self.collateral}")
        if not self.debt >= 0.0:
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
        if not self.bonus >= 0.0:
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
    """haircut * B * c / (A * b); +inf for a debt-free position.

    Raises ValueError when ``A * b`` underflows to 0 for a positive debt.
    """
    return _health(haircut, pool.reserve_collateral, pool.reserve_debt,
                   position.collateral, position.debt)


def hf_after_marginal(a, b_res, c, b, u, m, haircut, bonus, x):
    """Health factor after a marginal liquidation run of cumulative size x.

    Collateral falls by x*(1+bonus), the pool absorbs x*u collateral, the
    marked price becomes B*A/(A + x*u)**2 and the position's debt falls by
    the trajectory repayment m*B*x/(A + x*u).  ``u`` and ``m`` are the
    state's trade multiplier and trajectory factor.  +inf once the run has
    repaid the whole debt, as for any debt-free position.
    """
    remaining = b - _repay_total(a, b_res, x, u, m)
    if remaining <= 0.0:
        return math.inf
    return _hf_after(a, b_res, c, haircut, bonus, x, u, remaining)


# ---------------------------------------------------------------------------
# Number-level formulas.  Each takes floats or numpy arrays, so the scalar
# functions and the batch path (bound_closing_batch, engine.run_liquidation_batch)
# share one copy and one expression order, hence the same bits; only the
# branch selection is written twice, as ``if`` and as masks.
# ---------------------------------------------------------------------------

def _hf(haircut, a, b_res, c, b):
    return haircut * b_res * c / (a * b)


def _health(haircut, a, b_res, c, b):
    """:func:`health_factor` over floats."""
    if b == 0.0:
        return math.inf
    if a * b == 0.0:
        raise ValueError(f"health factor undefined: reserve_collateral * debt underflows to 0 "
                         f"({a!r} * {b!r})")
    return _hf(haircut, a, b_res, c, b)


def _x_collateral(c, bonus):
    return c / (1.0 + bonus)


def _repay_total(a, b_res, x, u, m):
    """Debt repaid by a marginal run of cumulative size x, whatever its step sizes."""
    return m * b_res * x / (a + x * u)


def _repay(a, b_res, x, u, m, convention):
    """Write-down beta(x) of one transaction: B*x/A under SPOT_PRICE, else the trajectory total.

    ``u`` and ``m`` are the state's trade multiplier and trajectory factor.
    """
    if convention is RepayConvention.SPOT_PRICE:
        return b_res * x / a
    return _repay_total(a, b_res, x, u, m)


def _debt_cap(debt, a, b_res, u, m):
    """Solve m*B*x/(A + x*u) = debt: debt*A / (m*B - debt*u).

    +inf when the denominator is not positive (the pool lacks the debt-asset
    depth to ever absorb that repayment, so the cap never binds); 0 for zero
    debt.
    """
    den = m * b_res - debt * u
    if isinstance(den, np.ndarray):
        return np.where(den <= 0.0, math.inf, debt * a / den)
    if den <= 0.0:
        return math.inf
    return debt * a / den


def _kappa_cap(kb, a, b_res, u, m, convention):
    """Largest single x with beta(x) <= kb: kb*A/B under SPOT_PRICE, else the debt cap of kb."""
    if convention is RepayConvention.SPOT_PRICE:
        return kb * a / b_res
    return _debt_cap(kb, a, b_res, u, m)


def _hf_after(a, b_res, c, haircut, bonus, x, u, remaining):
    """Health factor after a marginal run of size x that leaves ``remaining`` debt.

    The square is libm ``pow`` on both paths: ``** 2`` on a float and
    ``np.float_power`` on an array (numpy's ``** 2`` multiplies, which
    differs in the last bit).  Where the square overflows, the price divides
    by ``A + x*u`` twice; where a float square underflows to 0, the health
    factor is undefined and ValueError is raised.
    """
    w = a + x * u
    if isinstance(w, np.ndarray):
        square = np.float_power(w, 2.0)
        price = np.where(square == math.inf, b_res * a / w / w, b_res * a / square)
    else:
        try:
            square = w ** 2
        except OverflowError:
            square = math.inf
        if square == 0.0:
            raise ValueError(f"health factor undefined: (reserve_collateral + x*u)**2 underflows "
                             f"to 0 ({a!r} + {x!r} * {u!r})")
        price = b_res * a / w / w if square == math.inf else b_res * a / square
    return haircut * (c - x * (1.0 + bonus)) * price / remaining


def _closing_quadratic(a, b_res, c, b, u, m, haircut, bonus, cf):
    """(lead, linear, offset) of the recovery equation (lead*x - linear)*x - offset = 0."""
    linear = cf * (2.0 * a * b * u - m * b_res * a) + haircut * b_res * a * (1.0 + bonus)
    curvature = m * b_res * u - b * u * u
    offset = cf * b * a * a - haircut * b_res * a * c
    return cf * curvature, linear, offset


def _poly(quad, x):
    lead, linear, offset = quad
    return (lead * x - linear) * x - offset


def _poly_slope(quad, x):
    return 2.0 * quad[0] * x - quad[1]


def _discriminant(quad):
    lead, linear, offset = quad
    return linear * linear + 4.0 * lead * offset


def _citardauq(linear, sq, copysign):
    """q of the Citardauq split: the roots q/lead and -offset/q stay accurate."""
    return -0.5 * (-linear + copysign(sq, -linear))


def _root_floor(a, u, x_c):
    """Roots in [-floor, 0) are rounding noise around 0 and count as 0."""
    return 1e-12 * pmin(a / pmax(u, 1e-300), x_c)


def _poly_check(quad, root):
    """(residual, limit) of the polynomial self-check at a debt-exhaustion root."""
    scale = abs(_poly(quad, 0.0)) + abs(_poly(quad, 2.0 * root + 1.0)) + 1.0
    return abs(_poly(quad, root)), 1e-7 * scale


class RecoveryRootError(ArithmeticError):
    """A recovery-bound root failed its self-check (see :func:`bound_closing`).

    Carries what reproduces the failure: the position, the pool, the
    threshold ``cf_target`` and the convention, with the ``residual`` that
    failed: of the health-factor equation, or of the quadratic when the
    root sits at debt exhaustion (``check`` names which).
    """

    def __init__(self, check: str, position: LoanPosition, pool: PoolState,
                 cf_target: float, convention: RepayConvention, residual: float):
        # Every field goes into args: unpickling rebuilds the error as cls(*args).
        super().__init__(check, position, pool, cf_target, convention, residual)
        self.check, self.position, self.pool = check, position, pool
        self.cf_target, self.convention, self.residual = cf_target, convention, residual

    def __str__(self) -> str:
        return (f"recovery-bound root failed its {self.check}: residual={self.residual!r} "
                f"cf_target={self.cf_target!r} convention={self.convention.value} "
                f"{self.position} {self.pool}")


# bound_closing, hf_after_marginal and engine.final_tranche are the float rules
# themselves, with public names because the benchmark's tracer wraps them by
# name and reads ClosingBound.branch.
class ClosingBound(NamedTuple):
    """Recovery bound and the solver branch that produced it.

    ``x`` is +inf when no non-negative real root exists (the health factor
    never recovers to the target).  ``branch`` records whether the quadratic,
    its linear degeneration, or no root ("none") produced the value.
    """

    x: float
    branch: str


_NO_ROOT = ClosingBound(math.inf, "none")


def bound_closing(c, b, a, b_res, fee, u, m, haircut, bonus, cf, convention) -> ClosingBound:
    """Smallest non-negative x with hf_after_marginal(x) == cf, over floats.

    ``u`` and ``m`` are the trade multiplier and trajectory factor of ``fee``
    and ``convention``.  The defining equation reduces to

        cf * curvature * x**2 - linear * x - offset = 0

    with  curvature = m*B*u - b*u**2,
          linear    = cf*(2*A*b*u - m*B*A) + haircut*B*A*(1+bonus),
          offset    = cf*b*A**2 - haircut*B*A*c.

    The smallest non-negative real root is returned; when it lies above
    min(collateral bound, debt-exhaustion bound) it cannot bind.  Roots down to
    -1e-12*min(A/u, collateral bound) are rounding noise around 0 and count
    as 0; scaling that tolerance to the position, not only to the pool,
    keeps a tiny position in a deep pool from taking a truly negative root
    for 0.  Where ``linear*linear`` overflows, ``|linear|`` is taken out of
    the discriminant's square root.  The root, polished by two Newton steps,
    must satisfy HF == cf to 1e-9: the polynomial's coefficients can lose
    digits in extreme states, so a root whose residual exceeds the tolerance
    is re-bisected on the health-factor gap itself (:func:`hf_after_marginal`),
    and a root no nearby sign change brackets must meet the tolerance as it
    is, or :class:`RecoveryRootError` is raised.  A position and a pool are
    built only for that error.
    """
    if b <= 0.0:
        return _NO_ROOT
    quad = _closing_quadratic(a, b_res, c, b, u, m, haircut, bonus, cf)
    lead, linear, offset = quad

    roots: list[float]
    if lead == 0.0:
        branch = "linear"
        roots = [-offset / linear] if linear != 0.0 else []
    else:
        branch = "quadratic"
        # outer is 1.0, an exact factor, unless linear*linear overflows.
        disc, outer = _discriminant(quad), 1.0
        if disc == math.inf and linear != 0.0:
            disc, outer = 1.0 + 4.0 * lead * (offset / linear) / linear, abs(linear)
        if disc < 0.0:
            return _NO_ROOT
        q = _citardauq(linear, outer * math.sqrt(disc), math.copysign)
        roots = [q / lead]
        if q != 0.0:
            roots.append(-offset / q)

    # The smallest admissible root clamped at 0, the first of equals as min() picks it.
    floor = _root_floor(a, u, _x_collateral(c, bonus))
    root = math.inf
    for r in roots:
        if math.isfinite(r) and r >= -floor and max(r, 0.0) < root:
            root = max(r, 0.0)
    if root == math.inf:
        return _NO_ROOT

    for _ in range(2):  # Newton polish against float cancellation
        d = _poly_slope(quad, root)
        if d == 0.0:
            break
        step = _poly(quad, root) / d
        if not math.isfinite(step):
            break
        root -= step
    root = max(root, 0.0)

    remaining = b - _repay_total(a, b_res, root, u, m)
    if _exhausted(c, b, root, bonus, remaining):
        # Root sits at (or beyond) debt or collateral exhaustion, where HF
        # cannot be resolved to the tolerance; fall back to the polynomial
        # residual at a matching scale.
        residual, limit = _poly_check(quad, root)
        if residual > limit:
            raise RecoveryRootError("polynomial self-check", LoanPosition(c, b),
                                    PoolState(a, b_res, fee), cf, convention, residual)
        return ClosingBound(root, branch)

    # Not exhausted, so remaining is not <= 0: this is hf_after_marginal(root).
    res = _hf_after(a, b_res, c, haircut, bonus, root, u, remaining) - cf
    if abs(res) > 0.5 * _ROOT_CHECK_TOL:
        def gap(x: float) -> float:
            return hf_after_marginal(a, b_res, c, b, u, m, haircut, bonus, x) - cf

        # A bracket scaled to the root itself: one scaled to max(root, 1)
        # reaches past the exhaustion point of a root far below 1.  The ulp
        # floor keeps a subnormal root's width from underflowing to 0.
        scale = root if root > 0.0 else 1.0
        width = max(1e-12 * scale, math.ulp(scale))
        while width <= 0.25 * scale:
            lo, hi = max(root - width, 0.0), root + width
            glo, ghi = gap(lo), gap(hi)
            if (glo > 0.0) != (ghi > 0.0):
                def side(x: float) -> bool | None:
                    gx = gap(x)
                    return None if gx == 0.0 else (gx > 0.0) == (glo > 0.0)

                lo, hi = halve(side, lo, hi, lambda lo, hi: hi - lo <= math.ulp(hi))
                # Crossing bracketed to one ulp: the defining property holds
                # to the representable limit even if HF is too steep for the
                # residual itself to reach the tolerance.
                return ClosingBound(0.5 * (lo + hi), branch)
            width *= 8.0
    if abs(res) > _ROOT_CHECK_TOL:
        raise RecoveryRootError("self-check", LoanPosition(c, b), PoolState(a, b_res, fee), cf,
                                convention, res)
    return ClosingBound(root, branch)


def _exhausted(c, b, root, bonus, remaining):
    """Whether the root leaves at most the _EXHAUSTED share of the debt or the collateral."""
    return (remaining <= _EXHAUSTED * b) | (c - root * (1.0 + bonus) <= _EXHAUSTED * c)


def bound_closing_batch(c, b, a, b_res, fee, haircut, bonus, cf, convention):
    """:func:`bound_closing`'s ``x`` of every row, as one float64 array.

    ``c, b, a, b_res, fee, cf`` are the rows' position, pool and target, all
    arrays of one shape.  The quadratic, the root choice and the Newton
    polish run as masks over the scalar path's formulas.  A row the batch
    cannot settle is handed to :func:`bound_closing` itself, whose
    self-checks then run and may raise: the linear branch, a debt that is
    not positive, a discriminant that overflows, a debt-exhaustion root that
    fails the polynomial check, and a health-factor residual above half the
    tolerance, which the scalar path would refine.
    """
    with np.errstate(all="ignore"):
        u = trade_multiplier(fee, bonus)
        m = _traj_factor(fee, convention)
        quad = _closing_quadratic(a, b_res, c, b, u, m, haircut, bonus, cf)
        lead, linear, offset = quad
        disc = _discriminant(quad)
        q = _citardauq(linear, np.sqrt(disc), np.copysign)
        r1 = q / lead
        r2 = np.where(q != 0.0, -offset / q, np.nan)
        floor = _root_floor(a, u, _x_collateral(c, bonus))
        ok1 = np.isfinite(r1) & (r1 >= -floor)
        ok2 = np.isfinite(r2) & (r2 >= -floor)
        r1, r2 = pmax(r1, 0.0), pmax(r2, 0.0)
        # min() of the candidates: r2 only where it is one and smaller.
        root = np.where(ok2 & (~ok1 | (r2 < r1)), r2, r1)
        found = (lead != 0.0) & ~(disc < 0.0) & (ok1 | ok2)

        polish = found.copy()
        for _ in range(2):
            d = _poly_slope(quad, root)
            step = _poly(quad, root) / d
            polish &= (d != 0.0) & np.isfinite(step)
            root = np.where(polish, root - step, root)
        root = pmax(root, 0.0)

        remaining = b - _repay_total(a, b_res, root, u, m)
        residual, limit = _poly_check(quad, root)
        gap = _hf_after(a, b_res, c, haircut, bonus, root, u, remaining) - cf
        settled = np.where(_exhausted(c, b, root, bonus, remaining), ~(residual > limit),
                           abs(gap) <= 0.5 * _ROOT_CHECK_TOL)
        x = np.where(found, root, math.inf)
        fallback = (b <= 0.0) | (lead == 0.0) | (disc == math.inf) | (found & ~settled)
    for i in np.flatnonzero(fallback).tolist():
        f = float(fee[i])
        x[i] = bound_closing(float(c[i]), float(b[i]), float(a[i]), float(b_res[i]), f,
                             trade_multiplier(f, bonus), _traj_factor(f, convention), haircut,
                             bonus, float(cf[i]), convention).x
    return x


class BoundSet(NamedTuple):
    """The three liquidation bounds of a state.

    x_debt_full is the cumulative bound of a marginal run (full repayment,
    kappa circumvented by many small transactions); x_debt_kappa is the
    single-transaction cap at the given kappa.  Both are +inf when they
    cannot bind.  x_closing is 0 when the health gate is shut.
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
) -> tuple[BoundSet, float]:
    """All bounds of the current state against a threshold pair, and the health factor.

    Returns ``(bounds, hf)``, where ``hf`` is the health factor the gate read.
    A health factor above ``cf_target`` shuts the gate, and the recovery bound
    reports 0 instead of solving an ill-conditioned crossing above the
    threshold.  This is where the threshold pair is checked, cf_target first,
    then kappa, both before the health factor, so their errors come first; and
    the one place ``x_debt_kappa`` is computed (no run reads it).
    """
    if not 0.0 < cf_target <= 1.0:
        raise ValueError(f"cf_target must lie in (0, 1], got {cf_target}")
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    c, b, a, b_res, fee = (position.collateral, position.debt, pool.reserve_collateral,
                           pool.reserve_debt, pool.fee)
    haircut, bonus = params.haircut, params.bonus
    u, m = trade_multiplier(fee, bonus), _traj_factor(fee, convention)
    hf = _health(haircut, a, b_res, c, b)
    x_cf = _gated_closing(hf, c, b, a, b_res, fee, u, m, haircut, bonus, cf_target, convention)
    return BoundSet(_x_collateral(c, bonus), _debt_cap(b, a, b_res, u, m),
                    _kappa_cap(kappa * b, a, b_res, u, m, convention), x_cf), hf


def _gated_closing(hf, c, b, a, b_res, fee, u, m, haircut, bonus, cf, convention):
    """The recovery bound behind the health gate: 0 when ``hf`` is above ``cf``, else the
    root :func:`bound_closing` solves."""
    return 0.0 if hf > cf else bound_closing(c, b, a, b_res, fee, u, m, haircut, bonus, cf,
                                             convention)[0]
