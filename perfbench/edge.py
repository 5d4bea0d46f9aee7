"""Seeded edge states for the ``edge_states`` workload, and their checks.

The generator covers the documented domain (positive reserves, fee in
[0, 1), collateral and debt >= 0, attack sizes up to the no-revert
ceiling) and is weighted toward the edges where the closed forms are
fragile: positions tiny next to the pool, health factors far below the
target, collateral and debt-exhaustion bounds that nearly coincide, and
closing factors down to 0.05.  Risk parameters follow observed protocol
settings (bonus 5-15 %, fees 1-100 bps; Qin et al., "An Empirical Study of
DeFi Liquidations", IMC 2021).

Unlike ``oracles.random_instances`` it never rejects near-tie states, so
the known ``bound_closing`` self-check crash keeps showing.  Every state is
built from plain floats here; the program only receives the constructed
``LoanPosition``/``PoolState``/``RiskParams`` values.
"""

from __future__ import annotations

import math
import random

# Shares of the four state families in a generated list.
FAMILIES = (("general", 0.30), ("tiny", 0.25), ("underwater", 0.20), ("tie", 0.25))

# ROADMAP item 1, cause B: optimize_attack on this state fails its
# recovery-root self-check near delta = 39.445.
CAUSE_B = dict(
    collateral=0.009783424003038013, debt=0.0001522178433067494,
    reserve_collateral=48.579849532452165, reserve_debt=2.506480705390799, fee=1e-4,
    haircut=0.5521458022613934, bonus=0.01,
    closing_factor=0.8520760834790868, max_liq_fraction=0.4688723566652169,
)


def _fee(rng: random.Random) -> float:
    return 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(0.0, 2.0) / 1e4


def draw_state(rng: random.Random) -> tuple[str, dict]:
    """One state as plain floats, tagged with its family."""
    r, acc = rng.random(), 0.0
    family = FAMILIES[-1][0]
    for name, weight in FAMILIES:
        acc += weight
        if r < acc:
            family = name
            break
    a0 = 10.0 ** rng.uniform(0.0, 9.0)
    b0 = a0 * 10.0 ** rng.uniform(-3.0, 5.0)
    fee = _fee(rng)
    bonus = rng.uniform(0.05, 0.15)
    haircut = rng.uniform(0.5, 0.95)
    cf = rng.uniform(0.05, 1.0)
    kappa = rng.uniform(0.05, 1.0)
    if family == "tiny":
        debt = b0 * 10.0 ** rng.uniform(-16.0, -9.0)
        hf0 = 10.0 ** rng.uniform(-3.0, 0.1)
    elif family == "underwater":
        debt = b0 * 10.0 ** rng.uniform(-8.0, -0.5)
        hf0 = cf * 10.0 ** rng.uniform(-4.0, -1.0)
    else:
        debt = b0 * 10.0 ** rng.uniform(-8.0, -0.5)
        hf0 = rng.uniform(0.01, 1.5)
    coll = hf0 * debt * a0 / (haircut * b0)
    if family == "tie":
        # Collateral bound c/(1+bonus) placed on the debt-exhaustion bound
        # b*A/(B - b*u) of the default repayment convention, up to a tiny
        # relative offset (sometimes exactly zero).
        u = (1.0 - fee) * (1.0 + bonus)
        den = b0 - debt * u
        if den > 0.0:
            eps = 0.0 if rng.random() < 0.2 else math.copysign(
                10.0 ** rng.uniform(-15.0, -7.0), rng.random() - 0.5)
            coll = (1.0 + bonus) * debt * a0 / den * (1.0 + eps)
    return family, dict(
        collateral=coll, debt=debt, reserve_collateral=a0, reserve_debt=b0, fee=fee,
        haircut=haircut, bonus=bonus, closing_factor=cf, max_liq_fraction=kappa,
    )


def draw_delta(rng: random.Random, s: dict) -> float:
    """Attack size in [0, no-revert ceiling), often close to the ceiling."""
    if s["fee"] > 0.0:
        ceiling = (s["reserve_collateral"] + (1.0 - s["fee"]) * s["collateral"]) / s["fee"]
    else:
        ceiling = s["reserve_collateral"] * 10.0 ** rng.uniform(-3.0, 3.0)
    if rng.random() < 0.3:
        return ceiling * (1.0 - 10.0 ** rng.uniform(-9.0, -1.0))
    return ceiling * rng.random() ** 3


def _pool_kept(before, after) -> bool:
    k0 = before.reserve_collateral * before.reserve_debt
    k1 = after.reserve_collateral * after.reserve_debt
    return abs(k1 - k0) <= 1e-12 * k0


def liquidation_ok(res, position, pool) -> bool:
    """Invariants of one ``best_strategy`` result."""
    return (
        math.isfinite(res.pi_tot) and res.pi_tot >= 0.0
        and res.pi_tot == res.pi_liq + res.pi_last
        and res.post_position.collateral <= position.collateral
        and res.post_position.debt <= position.debt
        and _pool_kept(pool, res.post_pool)
    )


def attack_ok(res, position, pool) -> bool:
    """Invariants of one ``attack_profit`` result."""
    if not (math.isfinite(res.front_proceeds) and res.front_proceeds >= 0.0):
        return False
    if not liquidation_ok(res.liquidation, position, res.pool_after_front):
        return False
    if not (_pool_kept(pool, res.pool_after_front) and _pool_kept(pool, res.pool_after_liq)):
        return False
    if res.feasible:
        return res.total_profit == res.front_proceeds + res.liq_profit - res.buyback_cost
    return res.total_profit is None
