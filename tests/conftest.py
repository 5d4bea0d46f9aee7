"""Fixtures shared by the test modules."""

import math

import pytest

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
