"""Fixtures shared by the test modules."""

import math
from types import SimpleNamespace

import pytest

import oevsim.attack
import oevsim.engine
import oevsim.lending
from oevsim.lending import DEFAULT_CONVENTION, _traj_factor, trade_multiplier


# The scalar leaf rules take floats; these adapters feed them a position and a pool.

def closing_bound(position, pool, haircut, bonus, cf_target, convention=DEFAULT_CONVENTION):
    """``lending.bound_closing`` of a position and a pool."""
    fee = pool.fee
    return oevsim.lending.bound_closing(
        position.collateral, position.debt, pool.reserve_collateral, pool.reserve_debt, fee,
        trade_multiplier(fee, bonus), _traj_factor(fee, convention), haircut, bonus, cf_target,
        convention)


def hf_marginal(position, pool, haircut, bonus, x, convention=DEFAULT_CONVENTION):
    """``lending.hf_after_marginal`` of a position and a pool."""
    fee = pool.fee
    return oevsim.lending.hf_after_marginal(
        pool.reserve_collateral, pool.reserve_debt, position.collateral, position.debt,
        trade_multiplier(fee, bonus), _traj_factor(fee, convention), haircut, bonus, x)


def tranche(pool, position, params, kappa, convention=DEFAULT_CONVENTION):
    """``engine.final_tranche`` from a post-run pool and position."""
    fee = pool.fee
    return oevsim.engine.final_tranche(
        pool.reserve_collateral, pool.reserve_debt, position.collateral, position.debt,
        trade_multiplier(fee, params.bonus), _traj_factor(fee, convention), params.bonus,
        kappa, convention)


@pytest.fixture
def broken_health_factor_check(monkeypatch) -> None:
    """Make the health factor that the self-checks evaluate infinite.

    With the refine's bracket scaled to the root, no state is known to fail
    the self-check, and a tighter ``_ROOT_CHECK_TOL`` makes none fail: the
    refine brackets the crossing to one ulp whatever the tolerance.  An
    infinite health factor has no crossing to bracket, so the batch's check
    hands every root to the scalar solver and the scalar check raises.
    """
    hf_after = oevsim.lending._hf_after
    monkeypatch.setattr(oevsim.lending, "_hf_after", lambda *args: hf_after(*args) + math.inf)


@pytest.fixture
def broken_polynomial_check(monkeypatch) -> None:
    """Make the polynomial self-check at a debt- or collateral-exhaustion root always fail.

    No known state fails it, so only a residual forced to inf reaches its raise.
    """
    monkeypatch.setattr(oevsim.lending, "_poly_check", lambda quad, root: (math.inf, 0.0))


@pytest.fixture
def non_monotone_fee_profile(monkeypatch) -> None:
    """Make the best attack profit on fees in [0, 0.003] turn non-positive, then positive.

    ``critical_fee`` probes 0, 0.0005, ..., 0.003; with ``optimize_attack``
    replaced, they read +, +, 0, 0, +, +, 0.
    """
    def optimize_attack(position, pool, params, convention):
        fee = pool.fee
        positive = fee < 0.00075 or 0.00175 < fee < 0.00275
        return SimpleNamespace(best_positive_profit=1.0 if positive else 0.0)

    monkeypatch.setattr(oevsim.attack, "optimize_attack", optimize_attack)
