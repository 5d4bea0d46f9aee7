"""Small shared numeric helpers: golden-section maximization, the one halving
loop behind every bisection, Python's ``min``/``max`` for floats or arrays, and
the float64 columns of the batch entry points."""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def pmin(x, y):
    """``min(x, y)`` as the builtin picks it (``y`` only where ``y < x``), for floats or arrays.

    Unlike ``np.minimum`` it keeps the builtin's choice for NaN and signed
    zeros, so a formula written with it gives the same bits on both paths.
    """
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.where(y < x, y, x)
    return y if y < x else x


def pmax(x, y):
    """``max(x, y)`` as the builtin picks it (``y`` only where ``y > x``), for floats or arrays."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.where(y > x, y, x)
    return y if y > x else x


def float_columns(*values, rows: int | None = None) -> list[np.ndarray]:
    """Float64 columns of ``rows`` rows from floats and 1-D arrays, as ``np.broadcast_arrays``
    gives them.

    A value of one element repeats to ``rows``, by default the length of the
    longest value; a value of any other length must have ``rows`` rows.
    """
    cols = [np.asarray(v, dtype=float) for v in values]
    if rows is None:
        rows = max((col.size for col in cols if col.size != 1), default=1)
    for i, col in enumerate(cols):
        if col.shape != (rows,):
            if col.size != 1:
                raise ValueError(f"a column of shape {col.shape} does not fit {rows} rows")
            cols[i] = col.reshape(1).repeat(rows)
    return cols


def golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section search for a maximum of a unimodal f on [lo, hi].

    Returns (x, f(x)); robust to plateaus, and never returns less than the
    better endpoint.  tol is relative to the interval width.
    """
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    h = b - a
    if h <= 0.0:
        return a, f(a)
    n = max(1, int(math.ceil(math.log(max(tol, 1e-16)) / math.log(_INV_PHI))))
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(n):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI_SQ * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    candidates = [(yc, c), (yd, d), (f(lo), lo), (f(hi), hi)]
    best_y, best_x = max(candidates, key=lambda t: t[0])
    return best_x, best_y


def halve(
    side: Callable[[float], bool | None],
    lo: float,
    hi: float,
    done: Callable[[float, float], bool],
    max_halvings: int | None = None,
) -> tuple[float, float]:
    """The bracket [lo, hi] halved until ``done(lo, hi)`` holds after a halving.

    ``side(mid)`` True moves ``lo`` to ``mid``, False moves ``hi``, and None
    (an exact zero) ends at ``(mid, mid)``.  At most ``max_halvings`` when given.
    """
    for _ in itertools.count() if max_halvings is None else range(max_halvings):
        mid = 0.5 * (lo + hi)
        moves_lo = side(mid)
        if moves_lo is None:
            return mid, mid
        lo, hi = (mid, hi) if moves_lo else (lo, mid)
        if done(lo, hi):
            break
    return lo, hi


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol_x: float = 1e-12,
) -> float:
    """Plain bisection for a sign change of f on [lo, hi], at most 200 halvings."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")

    def side(x: float) -> bool | None:
        fx = f(x)
        return None if fx == 0.0 else (fx > 0.0) == (flo > 0.0)

    lo, hi = halve(side, lo, hi, lambda lo, hi: hi - lo <= tol_x * max(1.0, abs(lo), abs(hi)), 200)
    return 0.5 * (lo + hi)
