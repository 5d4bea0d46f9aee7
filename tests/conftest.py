"""Fixtures, states and helpers shared by the test modules.

A named state, such as a ROADMAP reproducer, is one scenario file in
``tests/scenarios/``; :func:`named_state` loads it.  The edge families of
the domain come from the benchmark's generator, ``perfbench/edge.py``,
loaded once as :data:`edge`; the tests that draw them keep their own checks.
"""

import dataclasses
import importlib.util
import math
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

import oevsim.attack
import oevsim.engine
import oevsim.lending
from oevsim.amm import PoolState
from oevsim.config import load_config
from oevsim.lending import (
    DEFAULT_CONVENTION,
    LoanPosition,
    RiskParams,
    _traj_factor,
    trade_multiplier,
)

# Each property draws the same examples on every run, and none is replayed from a database.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED_ATTACK = SCENARIOS / "attack_delta_sweep.yaml"
NAMED_STATES = Path(__file__).resolve().parent / "scenarios"


def load_file(path: Path):
    """The module at ``path`` of the checkout, loaded by file path with no ``sys.path`` edit."""
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


edge = load_file(SCENARIOS.parent / "perfbench" / "edge.py")

# The study's risk parameters, and its healthy borrower behind a deep 30 bps pool.
STD = RiskParams(haircut=0.85, bonus=0.05, closing_factor=0.8, max_liq_fraction=0.5)
POS5 = LoanPosition(20.12, 32_000.0)
POOL5 = PoolState(10_000.0, 28_000_000.0, 0.003)


def named_state(name):
    """The scenario file ``tests/scenarios/<name>.yaml`` and its
    ``(position, pool, risk, convention)``."""
    path = NAMED_STATES / f"{name}.yaml"
    cfg = load_config(path)
    return path, (*cfg.state_at(), cfg.risk, cfg.convention)


def edge_objects(state):
    """The ``(position, pool, params)`` of one plain-float state of ``edge.draw_state``."""
    return (LoanPosition(state["collateral"], state["debt"]),
            PoolState(state["reserve_collateral"], state["reserve_debt"], state["fee"]),
            RiskParams(state["haircut"], state["bonus"], state["closing_factor"],
                       state["max_liq_fraction"]))


def pool_at(price, liquidity=2e9, fee=0.0):
    """The pool of ``liquidity`` = A*B at ``price`` = B/A."""
    return PoolState(math.sqrt(liquidity / price), math.sqrt(liquidity * price), fee)


def product(pool):
    return pool.reserve_collateral * pool.reserve_debt


def leaves(value):
    """Every leaf of a result as a string: float bits, enum values, flags.

    Dataclasses, tuples and lists are walked in order; two results are equal
    bit for bit when their leaves are.
    """
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from leaves(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from leaves(item)
    elif value is None:
        yield "none"
    elif isinstance(value, Enum):
        yield value.value
    elif isinstance(value, (bool, str)):
        yield str(value)
    else:
        yield float(value).hex()


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
