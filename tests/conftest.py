"""Fixtures shared by the test modules."""

import math
from types import SimpleNamespace

import pytest

import oevsim.attack
import oevsim.lending


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
