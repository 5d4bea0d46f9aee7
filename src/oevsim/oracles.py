"""Brute-force oracles grounding the closed forms.

Nothing in this module trusts the engine's formulas.  Profits are rebuilt
from raw swap mechanics (sell the collateral, subtract the spot-priced
repayment), the liquidation run is simulated transaction by transaction,
the marginal-profit integral is evaluated by quadrature, and the two
split-inequalities (profit subadditivity, health-factor dominance of
sequential execution) are checked pointwise.

The discretized dynamic program :func:`dp_oracle` replays the optimal
structure -- many small transactions while the health gate stays open,
then a single numerically optimized closing trade -- and converges to the
engine's closed-form profit as the step count grows.

`verification_report` packages all suites into machine-readable records.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ._numerics import bisect_root, golden_max, halve
from .amm import PoolState, _require_reserves, _sale, _sell
from .engine import run_liquidation
from .lending import (
    DEFAULT_CONVENTION,
    LoanPosition,
    RepayConvention,
    RiskParams,
    _hf,
    _kappa_cap,
    _repay,
    _traj_factor,
    _x_collateral,
    compute_bounds,
    health_factor,
    hf_after_marginal,
    trade_multiplier,
)

_EXHAUST_EPS = 1e-11

# The walk runs plain steps as columns once this many scalar steps in a row
# were plain, in chunks that start at _CHUNK_MIN rows and double to _CHUNK_MAX
# while every row is plain (see simulate_liquidation_sequence).
_PLAIN_STEPS = 8
_CHUNK_MIN = 32
_CHUNK_MAX = 4096

# Defaults of the verification suites: DP grid size, engine-vs-DP relative
# tolerance and instance seed.
GRID_N = 10_000
TOL_REL = 1e-3
SEED = 20240811


def _trade(a, r, fee, x, bonus):
    """Profit and post reserves of one liquidation transaction priced purely through the AMM.

    Proceeds come from actually selling x*(1+bonus) into the pool; the
    protocol is repaid the pre-trade spot value B/A*x of the x units claimed.
    Takes floats or numpy arrays.  A float sale is :func:`~oevsim.amm._sale`, which
    owns the zero-size no-op and the checks (a negative size, a post reserve
    not > 0); array rows are all priced as they are, unchecked.
    """
    sale = _sell if isinstance(a, np.ndarray) or isinstance(x, np.ndarray) else _sale
    proceeds, a_n, r_n = sale(a, r, fee, x * (1.0 + bonus))
    return proceeds - r / a * x, a_n, r_n


def _debt_reserves(a_col: np.ndarray, r: float) -> np.ndarray:
    """The debt reserves ``r_k`` that follow ``r`` as the collateral reserve
    runs through ``a_col``, with the bits of the float loop
    ``r_{k+1} = a_k*r_k/a_{k+1}`` (``amm._sell``'s post reserve).

    The next reserve depends on ``r_k`` only through the product ``s = a_k*r_k``.
    While a row's product is still the first one, the next reserve is
    ``s/a_{k+1}``, so one division gives the column up to the first row whose
    product moved (NaN counts as moved), and the loop goes on from that row.
    Call it under ``np.errstate``: the rows may overflow.
    """
    s = a_col[0] * r
    r_col = np.empty(len(a_col))
    r_col[0] = r
    np.divide(s, a_col[1:], out=r_col[1:])
    same = a_col[:-1] * r_col[:-1] == s
    j = int(same.argmin())
    if not same[j]:
        a_list = a_col[j:].tolist()
        r_list = [float(r_col[j])]
        for a_pre, a_post in zip(a_list, a_list[1:]):
            r_list.append(a_pre * r_list[-1] / a_post)
        r_col[j:] = r_list
    return r_col


@dataclass(frozen=True)
class SequenceOutcome:
    """Trace summary of a simulated transaction-by-transaction liquidation."""

    profit: float
    terminator: str  # "closing_factor" | "debt" | "collateral" | "gate" | "steps" | "stalled"
    steps: int
    cumulative_x: float
    post_position: LoanPosition
    post_pool: PoolState


def simulate_liquidation_sequence(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    cf_target: float,
    kappa: float,
    convention: RepayConvention = DEFAULT_CONVENTION,
    step_limit: float = math.inf,
    max_steps: int = 200_000,
) -> SequenceOutcome:
    """Run liquidation transactions until a constraint closes the process.

    Each transaction takes ``min(step_limit, collateral remainder,
    single-transaction kappa cap)`` and is admissible while the current
    health factor sits at or below ``cf_target``.  With ``step_limit=inf``
    every transaction is maximal (the greedy transactional policy) and the
    walk takes the transaction that crosses the gate.  A finite
    ``step_limit`` approximates the marginal run, which ends on the
    crossing: a step whose post-state health factor would exceed the gate
    is cut, by bisection, to land on it (the caller optimizes the closing
    trade separately, as the dynamic program does).

    The terminator records which constraint ended the run: the health gate
    ("closing_factor"), debt exhausted, collateral exhausted, a gate that
    was already shut at entry ("gate"), the step budget ("steps"), or a
    transaction size that is not positive, as a ``step_limit`` <= 0 or NaN
    gives ("stalled").  With no transaction made, the post-state is the
    caller's ``position`` and ``pool`` objects.

    Runs of plain steps -- ``step_limit`` under both caps, leaving a state
    the walk goes on from with the gate open -- are computed as float64
    columns once the last ``_PLAIN_STEPS`` steps were plain.  The columns
    carry the bits of the one-step-at-a-time walk: collateral, debt, reserve
    ``a``, profit and cumulative size change by one addition per step, and
    ``np.add.accumulate`` adds one element at a time, in order, so each is
    one accumulate seeded with the current state.  The debt reserve
    ``a*r/a_next`` is one division while the product ``a*r`` repeats, and a
    float loop from the first row where it moved (:func:`_debt_reserves`).
    Everything else is pointwise, where numpy rounds each ``+ - * /`` as a
    Python float does.  A chunk ends at the row that exhausts the
    collateral, as no row after it is plain.  The first step that is not
    plain (a cap, a crossing, exhaustion, the budget) runs scalar, as does
    every greedy walk.
    """
    theta, ell, fee = params.haircut, params.bonus, pool.fee
    u, m = trade_multiplier(fee, ell), _traj_factor(fee, convention)
    c_eps = _EXHAUST_EPS * max(position.collateral, 1.0)
    b_eps = _EXHAUST_EPS * max(position.debt, 1.0)
    # The walk carries the state as floats (collateral c, debt b, reserves a
    # and r) and calls the number-level formulas that the LoanPosition and
    # PoolState functions call, so every step has their bits.  The swap checks
    # its reserves; the clamps keep c and b >= 0, and a NaN in either follows
    # a NaN size or a reserve that overflowed, so the returned LoanPosition
    # is the only position check.

    def _step(c: float, b: float, a: float, r: float, size: float):
        """(profit, post collateral and debt clamped at 0, post reserves, post HF)
        of one transaction; the HF is -inf once debt or collateral is exhausted,
        which is not a gate crossing."""
        dpi, a_n, r_n = _trade(a, r, fee, size, ell)
        c_n, b_n = c - size * (1.0 + ell), b - _repay(a, r, size, u, m, convention)
        c_next, b_next = max(c_n, 0.0), max(b_n, 0.0)
        if b_n <= b_eps or c_n <= c_eps:
            return dpi, c_next, b_next, a_n, r_n, -math.inf
        return dpi, c_next, b_next, a_n, r_n, _hf(theta, a_n, r_n, c_next, b_next)

    def _plain_run(n: int, c: float, b: float, a: float, r: float, profit: float,
                   cum_x: float):
        """How many of the next ``n`` steps are plain, and the state after them.

        A plain step takes ``step_limit`` under both caps and leaves a state
        that the walk goes on from with the gate open.  Returns ``(k, state)``:
        the first k steps are plain and ``state`` is (c, b, a, r, hf, profit,
        cum_x) after them, or None when k is 0.
        """
        amount = step_limit * (1.0 + ell)
        with np.errstate(all="ignore"):
            fixed = np.empty((3, n + 1))
            fixed[:, 0] = a, c, cum_x
            # a moves by amm._sell's net inflow, the same every step.
            fixed[:, 1:] = (amount * (1.0 - fee),), (-amount,), (step_limit,)
            a_col, c_col, x_col = np.add.accumulate(fixed, axis=1, out=fixed)
            # No step after the one that exhausts the collateral is plain, so
            # the columns end at that row.
            spent = c_col <= c_eps
            j = int(spent.argmax())
            if spent[j]:
                n = j
                a_col, c_col, x_col = fixed[:, :n + 1]
            r_col = _debt_reserves(a_col, r)
            a_pre, r_pre, a_post, r_post = a_col[:-1], r_col[:-1], a_col[1:], r_col[1:]
            # Debt falls by each step's write-down; profit rises as _step prices it.
            moved = np.empty((2, n + 1))
            moved[:, 0] = b, profit
            np.negative(_repay(a_pre, r_pre, step_limit, u, m, convention), out=moved[0, 1:])
            moved[1, 1:] = _trade(a_pre, r_pre, fee, step_limit, ell)[0]
            b_col, p_col = np.add.accumulate(moved, axis=1, out=moved)
            cap = _kappa_cap(kappa * b_col[:-1], a_pre, r_pre, u, m, convention)
            c_post, b_post = c_col[1:], b_col[1:]
            hf_post = _hf(theta, a_post, r_post, c_post, b_post)
            # c_post > c_eps keeps step_limit under the collateral cap, so only the
            # kappa cap is compared (a NaN cap goes to the scalar step); a_post > 0
            # holds as a only grows.
            plain = hf_post <= cf_target
            plain &= cap >= step_limit
            plain &= r_post > 0.0
            plain &= c_post > c_eps
            plain &= b_post > b_eps
        k = int(plain.argmin())
        if plain[k]:
            k = n
        if k == 0:
            return 0, None
        return k, (float(c_col[k]), float(b_col[k]), float(a_col[k]), float(r_col[k]),
                   float(hf_post[k - 1]), float(p_col[k]), float(x_col[k]))

    c, b = position.collateral, position.debt
    a, r = pool.reserve_collateral, pool.reserve_debt
    hf = health_factor(position, pool, theta)
    profit = 0.0
    cum_x = 0.0
    steps = 0
    # A fine walk runs the plain steps ahead as columns from step chunk_at on,
    # which is _PLAIN_STEPS after the last step that was not plain, and ends
    # on the gate crossing.
    fine = step_limit < math.inf
    chunk_at, chunk = _PLAIN_STEPS, _CHUNK_MIN
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
        if steps >= chunk_at and fine and max_steps - steps >= _CHUNK_MIN:
            # An int length: a float step budget leaves max_steps - steps a float.
            n = int(min(chunk, max_steps - steps))
            k, state = _plain_run(n, c, b, a, r, profit, cum_x)
            if k:
                c, b, a, r, hf, profit, cum_x = state
                steps += k
            if k == n:
                chunk = min(2 * chunk, _CHUNK_MAX)
                continue
            # The next step is not plain: the scalar step takes it.
            chunk_at, chunk = steps + 1 + _PLAIN_STEPS, _CHUNK_MIN
        x = min(step_limit, _x_collateral(c, ell),
                _kappa_cap(kappa * b, a, r, u, m, convention))
        if not x > 0.0:
            # Reached by a step_limit of 0, below 0 or NaN.  A size that is not
            # positive makes no progress, so without this exit the walk would loop forever.
            term = "stalled"
            break
        step = _step(c, b, a, r, x)
        crossing = fine and step[5] > cf_target
        if crossing:
            # Land exactly on the crossing with one bisected partial step,
            # so the walk's end state does not depend on the step phase.
            x, _ = halve(lambda size: not _step(c, b, a, r, size)[5] > cf_target, 0.0, x,
                         lambda lo, hi: hi - lo <= 1e-15 * max(1.0, hi), 200)
            step = _step(c, b, a, r, x)
        if x > 0.0:
            dpi, c, b, a, r, hf = step
            profit += dpi
            cum_x += x
            steps += 1
            if x != step_limit:
                chunk_at = steps + _PLAIN_STEPS
        if crossing:
            term = "closing_factor"
            break

    post = (position, pool) if steps == 0 else (LoanPosition(c, b), PoolState(a, r, fee))
    return SequenceOutcome(profit, term, steps, cum_x, *post)


def _best_closing_trade(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    kappa: float,
    convention: RepayConvention,
    grid_n: int,
) -> float:
    """Numerically maximize the profit of one final transaction.

    Dense scan plus golden-section refinement of the raw single-shot profit
    over [0, min(collateral remainder, kappa cap)]; no closed form is used.
    The position must hold debt and collateral, so that cap is positive and finite.
    """
    a, r = pool.reserve_collateral, pool.reserve_debt
    cap = min(_x_collateral(position.collateral, params.bonus),
              _kappa_cap(kappa * position.debt, a, r, trade_multiplier(pool.fee, params.bonus),
                         _traj_factor(pool.fee, convention), convention))

    def profit(x: float) -> float:
        return _trade(a, r, pool.fee, x, params.bonus)[0]

    # The scan prices every grid point at once, overflowing to inf and nan
    # silently, as Python floats do.
    n = int(max(64, min(1024, grid_n)))
    xs = np.linspace(0.0, cap, n + 1)
    with np.errstate(all="ignore"):
        vals, a_n, r_n = _trade(a, r, pool.fee, xs, params.bonus)
    _require_reserves(a_n, r_n, xs != 0.0)
    k = int(np.argmax(vals))
    lo = float(xs[max(k - 1, 0)])
    hi = float(xs[min(k + 1, n)])
    _, best = golden_max(profit, lo, hi, tol=1e-12)
    return max(0.0, best, float(vals[k]))


def dp_oracle(
    position: LoanPosition,
    pool: PoolState,
    params: RiskParams,
    cf_target: float,
    kappa: float,
    grid_n: int,
    convention: RepayConvention = DEFAULT_CONVENTION,
) -> float:
    """Discretized dynamic program for the liquidation value.

    Phase one walks the feasible interval in ``grid_n`` steps, re-applying
    every bound and the health gate before each transaction; a first coarse
    pass locates the span so the second pass spends its budget where the
    process actually runs.  Phase two, entered only if the gate is still
    open, takes one numerically optimized closing trade.  The value of not
    participating (zero) is always available: a shut gate or an empty side
    ends the walk before its first transaction.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    span_cap = _x_collateral(position.collateral, params.bonus)
    probe = simulate_liquidation_sequence(
        position, pool, params, cf_target, kappa, convention,
        step_limit=span_cap / grid_n, max_steps=grid_n + 8,
    )
    span = max(probe.cumulative_x, span_cap / grid_n)

    run = simulate_liquidation_sequence(
        position, pool, params, cf_target, kappa, convention,
        step_limit=span / grid_n, max_steps=4 * grid_n + 64,
    )
    total = run.profit
    end_pos, end_pool = run.post_position, run.post_pool
    if (
        end_pos.debt > 0.0
        and end_pos.collateral > 0.0
        and health_factor(end_pos, end_pool, params.haircut) <= cf_target
    ):
        total += _best_closing_trade(end_pos, end_pool, params, kappa, convention, grid_n)
    return max(0.0, total)


def integral_oracle(pool: PoolState, x_liq: float, bonus: float) -> float:
    """Marginal-run profit by quadrature of the per-slice integrand.

    The slice at cumulative size x nets (B - y(x)) * (u - 1) / (A + x*u) dx
    with y(x) the proceeds already extracted.  Composite midpoint at 2**14
    and 2**15 panels with one Richardson extrapolation step.
    """
    if x_liq < 0.0:
        raise ValueError(f"x_liq must be >= 0, got {x_liq}")
    if x_liq == 0.0:
        return 0.0
    a, b_res = pool.reserve_collateral, pool.reserve_debt
    u = trade_multiplier(pool.fee, bonus)

    def midpoint(n: int) -> float:
        h = x_liq / n
        x = np.arange(n, dtype=float)
        x += 0.5
        x *= h
        w = x * u
        w += a
        # f = (B - B*x*u/w) * (u - 1) / w in that order, in x's buffer.
        f = x
        f *= b_res
        f *= u
        f /= w
        np.subtract(b_res, f, out=f)
        f *= u - 1.0
        f /= w
        return float(np.sum(f) * h)

    coarse = midpoint(2**14)
    fine = midpoint(2**15)
    return (4.0 * fine - coarse) / 3.0


def subadditivity_check(
    pool: PoolState, bonus: float, x1: float, x2: float
) -> tuple[float, float, bool]:
    """Single shot of x1+x2 vs the same total split into two sequential shots.

    Returns (lhs, rhs, holds) where lhs is the lump profit, rhs the summed
    sequential profits (second shot priced from the post-first pool), and
    holds checks lhs <= rhs within 1e-12 of the profit scale.
    """
    if x1 < 0.0 or x2 < 0.0:
        raise ValueError("split sizes must be >= 0")
    a, r, fee = pool.reserve_collateral, pool.reserve_debt, pool.fee
    lhs = _trade(a, r, fee, x1 + x2, bonus)[0]
    p1, a_mid, r_mid = _trade(a, r, fee, x1, bonus)
    p2 = _trade(a_mid, r_mid, fee, x2, bonus)[0]
    rhs = p1 + p2
    slack = 1e-12 * max(1.0, abs(lhs), abs(rhs))
    return lhs, rhs, lhs <= rhs + slack


def hf_monotonicity_check(
    position: LoanPosition,
    pool: PoolState,
    haircut: float,
    bonus: float,
    x1: float,
    x2: float,
) -> tuple[float, float, bool]:
    """Sequential execution restores health no faster than a lump.

    Both health factors price the repayment legs at the pre-trade spot of
    each leg; the lump marks collateral at the post-first-leg price, the
    sequential variant at the post-second-leg price.  Selling only lowers
    the pool price, so the sequential denominator is larger and its
    numerator smaller, keeping HF(lump) >= HF(sequential).

    Returns (hf_lump, hf_sequential, holds) where holds checks that
    inequality within 1e-12 of the HF scale and the price chain
    B0/A0 >= B1/A1 >= B2/A2 behind it.  A split that overdraws the debt or
    the collateral raises ``ValueError``.
    """
    a0, b0 = pool.reserve_collateral, pool.reserve_debt
    u = trade_multiplier(pool.fee, bonus)
    c, b = position.collateral, position.debt
    a1 = a0 + x1 * u
    b1 = a0 * b0 / a1
    a2 = a1 + x2 * u
    b2 = a0 * b0 / a2

    p0, p1, p2 = b0 / a0, b1 / a1, b2 / a2
    chain_ok = p0 >= p1 * (1.0 - 1e-15) and p1 >= p2 * (1.0 - 1e-15)

    coll_left = c - (x1 + x2) * (1.0 + bonus)
    debt_lump = b - (x1 + x2) * p0
    debt_seq = b - x1 * p0 - x2 * p1
    if debt_lump <= 0.0 or debt_seq <= 0.0:
        raise ValueError("split repays more than the outstanding debt")
    if coll_left < 0.0:
        raise ValueError("split claims more collateral than the position holds")
    hf_lump = haircut * coll_left * p1 / debt_lump
    hf_seq = haircut * coll_left * p2 / debt_seq
    slack = 1e-12 * max(1.0, abs(hf_lump), abs(hf_seq))
    return hf_lump, hf_seq, chain_ok and hf_lump >= hf_seq - slack


# ---------------------------------------------------------------------------
# Random-instance machinery
# ---------------------------------------------------------------------------

FEE_GRID_BPS = (0.0, 5.0, 17.0, 30.0, 100.0)
BONUS_GRID = (0.0, 0.05, 0.10)


@dataclass(frozen=True)
class Instance:
    position: LoanPosition
    pool: PoolState
    params: RiskParams
    cf_target: float
    kappa: float

    def digest(self) -> str:
        """Stable short hash identifying the instance in reports."""
        import hashlib  # only verify hashes instances, so start-up does not load it

        payload = "|".join(
            format(v, ".17g")
            for v in (
                self.position.collateral, self.position.debt,
                self.pool.reserve_collateral, self.pool.reserve_debt, self.pool.fee,
                self.params.haircut, self.params.bonus,
                self.params.closing_factor, self.params.max_liq_fraction,
                self.cf_target, self.kappa,
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def random_instances(
    n: int,
    seed: int,
    fees_bps: tuple[float, ...] = FEE_GRID_BPS,
    bonuses: tuple[float, ...] = BONUS_GRID,
    hf_range: tuple[float, float] = (0.3, 1.2),
    feasible_only: bool = False,
) -> list[Instance]:
    """Seeded random system states.

    Pool depth is log-uniform over [1e3, 1e7] collateral units; price, debt
    and the target initial health factor fix the rest of the state.  Draws
    whose liquidation bounds nearly coincide (relative 1e-9) are rejected
    and resampled -- tie cases are exercised by dedicated tests, not by the
    random suites.  With ``feasible_only`` the draw is constrained to
    states where liquidation is live: HF at or below the gate with margin,
    and fee strictly below bonus parity.
    """
    rng = random.Random(seed)
    out: list[Instance] = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * max(n, 1):
            raise RuntimeError("instance generator rejected too many draws")
        fee = rng.choice(fees_bps) / 1e4
        bonus = rng.choice(bonuses)
        if feasible_only:
            bonus = rng.choice(tuple(b for b in bonuses if b > 0.0))
            if fee >= bonus / (1.0 + bonus) * 0.9:
                continue
        a0 = 10.0 ** rng.uniform(3.0, 7.0)
        price = 10.0 ** rng.uniform(0.0, 4.0)
        b0 = a0 * price
        haircut = rng.uniform(0.7, 0.95)
        closing = rng.uniform(0.6, 0.95)
        kappa = rng.uniform(0.2, 1.0)
        cf_target = closing if rng.random() < 0.5 else 1.0
        hf0 = rng.uniform(*hf_range)
        if feasible_only:
            hf0 = rng.uniform(hf_range[0], min(hf_range[1], cf_target * 0.995))
        debt = b0 * 10.0 ** rng.uniform(-4.0, math.log10(0.2))
        coll = hf0 * debt * a0 / (haircut * b0)
        position = LoanPosition(coll, debt)
        pool = PoolState(a0, b0, fee)
        params = RiskParams(haircut, bonus, closing, kappa)

        bounds, _ = compute_bounds(position, pool, params, cf_target, kappa)
        finite = [v for v in (bounds.x_collateral, bounds.x_debt_full, bounds.x_closing)
                  if math.isfinite(v)]
        tied = any(
            abs(p - q) <= 1e-9 * max(abs(p), abs(q), 1e-300)
            for i, p in enumerate(finite)
            for q in finite[i + 1 :]
        )
        if tied:
            continue
        out.append(Instance(position, pool, params, cf_target, kappa))
    return out


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------


def verification_report(
    n_instances: int = 100,
    seed: int = SEED,
    grid_n: int = GRID_N,
) -> list[dict]:
    """Run every oracle suite and return one record per check.

    Records are plain dicts (JSON-serializable) with the instance digest,
    the values compared and a pass flag, so callers can persist or pretty-
    print them as they like.  Every suite runs the default repayment
    convention; engine and DP agree when within TOL_REL of each other.
    """
    records: list[dict] = []

    def add(check: str, inst: Instance | None, passed: bool, **values) -> None:
        rec = {"check": check, "passed": bool(passed)}
        if inst is not None:
            rec["instance"] = inst.digest()
        rec.update(values)
        records.append(rec)

    feasible = random_instances(n_instances, seed, feasible_only=True)
    for inst in feasible:
        res = run_liquidation(inst.position, inst.pool, inst.params, inst.cf_target, inst.kappa)
        approx = dp_oracle(
            inst.position, inst.pool, inst.params, inst.cf_target, inst.kappa, grid_n
        )
        err = abs(res.pi_tot - approx) / max(1.0, abs(res.pi_tot))
        add("engine_vs_dp", inst, err <= TOL_REL, engine=res.pi_tot, dp=approx, rel_err=err)

        closed = res.pi_liq
        quad = integral_oracle(inst.pool, res.x_liq, inst.params.bonus)
        qerr = abs(closed - quad) / max(1e-300, abs(closed), abs(quad), 1.0e-12)
        add("integral_vs_closed_form", inst, qerr <= 1e-9, closed=closed, quadrature=quad, rel_err=qerr)

    rng = random.Random(seed + 1)
    general = random_instances(n_instances, seed + 2)
    for inst in general:
        x_c = _x_collateral(inst.position.collateral, inst.params.bonus)
        x1 = rng.uniform(0.0, 0.6) * x_c
        x2 = rng.uniform(0.0, 0.6) * (x_c - x1)
        lhs, rhs, holds = subadditivity_check(inst.pool, inst.params.bonus, x1, x2)
        add("profit_subadditivity", inst, holds, lhs=lhs, rhs=rhs)

        y1 = rng.uniform(0.0, 0.35) * x_c
        y2 = rng.uniform(0.0, 0.35) * x_c
        hf0 = health_factor(inst.position, inst.pool, inst.params.haircut)
        if (
            hf0 <= inst.cf_target
            and inst.position.debt - (y1 + y2) * inst.pool.spot_price() > 0.0
        ):
            hf_lump, hf_seq, holds = hf_monotonicity_check(
                inst.position, inst.pool, inst.params.haircut, inst.params.bonus, y1, y2
            )
            add("hf_sequential_dominance", inst, holds, hf_lump=hf_lump, hf_sequential=hf_seq)

    # Recovery bound vs an independent bisection: near-threshold states make
    # the recovery bound the binding one, so the crossing is observable.
    checked = 0
    while checked < n_instances:
        fee = rng.choice(FEE_GRID_BPS) / 1e4
        bonus = rng.choice(tuple(b for b in BONUS_GRID if b > 0.0))
        haircut = rng.uniform(0.7, 0.95)
        cf_target = rng.choice((rng.uniform(0.6, 0.95), 1.0))
        a0 = 10.0 ** rng.uniform(3.0, 7.0)
        b0 = a0 * 10.0 ** rng.uniform(0.0, 4.0)
        pool = PoolState(a0, b0, fee)
        debt = b0 * 10.0 ** rng.uniform(-4.0, -1.0)
        position = LoanPosition(
            cf_target * rng.uniform(0.90, 0.999) * debt * a0 / (haircut * b0), debt
        )
        inst = Instance(position, pool,
                        RiskParams(haircut, bonus, 0.8, 0.5), cf_target, 0.5)
        bounds, _ = compute_bounds(position, pool, inst.params, cf_target, inst.kappa)
        closed = bounds.x_closing
        # Below the collateral and debt-exhaustion bounds.
        hi = min(bounds.x_collateral, bounds.x_debt_full) * (1.0 - 1e-9)
        if not (math.isfinite(closed) and 0.0 < closed < hi):
            continue

        u, m = trade_multiplier(fee, bonus), _traj_factor(fee, DEFAULT_CONVENTION)

        def gap(x):
            return hf_after_marginal(a0, b0, position.collateral, debt, u, m, haircut, bonus,
                                     x) - cf_target

        if gap(hi) <= 0.0:
            continue
        root = bisect_root(gap, 0.0, hi, tol_x=1e-14)
        rerr = abs(root - closed) / max(abs(root), 1e-300)
        add("recovery_bound_vs_bisection", inst, rerr <= 1e-8,
            closed=closed, bisection=root, rel_err=rerr)
        checked += 1

    return records
