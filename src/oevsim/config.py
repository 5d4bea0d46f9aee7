"""Scenario configuration: strict YAML ingestion and derived-field resolution.

A scenario file pins the pool, the borrower position, the protocol risk
parameters, and optionally a sweep axis and attack settings:

    mode: liquidation            # or: attack
    pool:
      liquidity: 2.0e9           # either liquidity+price ...
      price: 1800.0
      # reserve_collateral: 1000 # ... or explicit reserves
      # reserve_debt: 2.0e6
      fee: 0.0
      scale: 1.0                 # optional depth multiplier
    position:
      debt: 10000.0
      collateral: 6.0            # or: initial_health_factor: 0.5
    risk:
      haircut: 0.85
      bonus: 0.05
      closing_factor: 0.8
      max_liq_fraction: 0.5
    sweep:                       # optional, exactly one axis
      axis: price                # price | pool_scale | delta | fee
      start: 1400.0
      stop: 2100.0
      steps: 200
      spacing: linear            # or: log
    attack:                      # attack-mode extras (all optional)
      delta_min: 0.0
      delta_max: 1.0e7
      fee_low: 0.0
      fee_high: 0.003

Positions given via ``initial_health_factor`` derive their collateral from
the pool state they are evaluated against (c = hf*b*A/(haircut*B)), so the
health factor stays pinned while a sweep moves the pool.  The spec dataclasses
below are the schema: a section's keys, types and required keys (those without
a default) are its dataclass's fields.  Numbers must be finite (``.inf`` only
for ``attack.delta_max``), sweep domains are checked on the computed points,
and every violation is reported, not just the first.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .amm import PoolState
from .lending import (
    DEFAULT_CONVENTION,
    LoanPosition,
    RepayConvention,
    RiskParams,
    health_factor,
)

SWEEP_AXES = ("price", "pool_scale", "delta", "fee")
# The state_columns keyword each pool axis overrides.
_OVERRIDES = {"price": "price", "pool_scale": "scale", "fee": "fee"}


class ConfigError(ValueError):
    """Scenario file failed validation; carries every violation found."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid scenario config:\n  - " + "\n  - ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class PoolSpec:
    reserve_collateral: float | None = None
    reserve_debt: float | None = None
    liquidity: float | None = None
    price: float | None = None
    fee: float = 0.0
    scale: float = 1.0

    def columns(self, price=None, scale=None, fee=None) -> tuple:
        """Reserves and fee ``(A, B, fee)``; an override may be a column of sweep values.

        The float operations run in the scalar order, and ``sqrt`` and
        ``+ - * /`` are correctly rounded, so each row has the bits of the
        same state computed alone.  The scale is a float64, so every result
        is numpy's and overflow, underflow and division by 0 follow
        ``np.errstate``.
        """
        s = np.asarray(self.scale if scale is None else scale, dtype=float)
        g = self.fee if fee is None else fee
        if self.liquidity is not None:
            p = self.price if price is None else price
            a0, b0 = np.sqrt(self.liquidity / p), np.sqrt(self.liquidity * p)
        else:
            a0, b0 = self.reserve_collateral, self.reserve_debt
            if price is not None:
                k = a0 * b0
                a0, b0 = np.sqrt(k / price), np.sqrt(k * price)
        return a0 * s, b0 * s, g


@dataclass(frozen=True)
class PositionSpec:
    debt: float
    collateral: float | None = None
    initial_health_factor: float | None = None

    def columns(self, reserve_collateral, reserve_debt, haircut: float) -> tuple:
        """Collateral and debt ``(c, b)`` against the pool's reserve columns."""
        if self.collateral is not None:
            return self.collateral, self.debt
        c = self.initial_health_factor * self.debt * reserve_collateral / (haircut * reserve_debt)
        return c, self.debt


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: float
    stop: float
    steps: int
    spacing: str = "linear"

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.start]
        if self.spacing == "log":
            ratio = (self.stop / self.start) ** (1.0 / (self.steps - 1))
            return [self.start * ratio**i for i in range(self.steps)]
        h = (self.stop - self.start) / (self.steps - 1)
        return [self.start + h * i for i in range(self.steps)]


@dataclass(frozen=True)
class AttackSpec:
    delta_min: float = 0.0
    delta_max: float = math.inf
    fee_low: float = 0.0
    fee_high: float = 0.003


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str
    pool: PoolSpec
    position: PositionSpec
    risk: RiskParams
    sweep: SweepSpec | None = None
    attack: AttackSpec = field(default_factory=AttackSpec)
    convention: RepayConvention = DEFAULT_CONVENTION

    def state_columns(self, n: int = 1, price=None, scale=None,
                      fee=None) -> tuple[np.ndarray, ...]:
        """``n`` rows of (collateral, debt, reserve_collateral, reserve_debt, fee).

        An override may be a column of ``n`` values.  Over- and underflow
        give inf and 0 without a warning; the constructors and
        :func:`parse_config` reject such states.
        """
        with np.errstate(all="ignore"):
            a, b, g = self.pool.columns(price, scale, fee)
            c, d = self.position.columns(a, b, self.risk.haircut)
        return tuple(np.broadcast_to(np.asarray(v, dtype=float), n) for v in (c, d, a, b, g))

    def state_at(self) -> tuple[LoanPosition, PoolState]:
        """Position and pool of the base state: row 0 of :meth:`state_columns`."""
        return _state(*(float(col[0]) for col in self.state_columns()))

    def sweep_columns(self, values: list[float]) -> tuple[np.ndarray, ...]:
        """:meth:`state_columns`, one row per sweep value; the delta axis keeps the base state."""
        if self.sweep.axis == "delta":
            return self.state_columns(len(values))
        return self.state_columns(len(values), **{_OVERRIDES[self.sweep.axis]: np.array(values)})

    def sweep_states(self, values: list[float]) -> list[tuple[LoanPosition, PoolState]]:
        """Each row of :meth:`sweep_columns` as a position and a pool."""
        return [_state(*row) for row in zip(*(col.tolist() for col in self.sweep_columns(values)))]


def _state(c, d, a, b, g) -> tuple[LoanPosition, PoolState]:
    # The pool is built first, so a reserve out of domain is the error reported
    # even when the collateral derived from it is out of domain too.
    pool = PoolState(a, b, g)
    return LoanPosition(c, d), pool


@functools.cache
def _schema(spec: type) -> dict[str, tuple[type, object]]:
    """Each field of ``spec``: its value type (float, int or str) and its default."""
    hints = typing.get_type_hints(spec)
    return {f.name: ((typing.get_args(hints[f.name]) or (hints[f.name],))[0], f.default)
            for f in fields(spec)}


def _take(raw, where: str, spec: type, problems: list[str]) -> dict:
    """Pull a section's typed values out of a mapping, reporting every problem.

    Numbers must be finite, except in a field whose default is +inf.
    """
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        problems.append(f"{where}: expected a mapping, got {type(raw).__name__}")
        return {}
    schema = _schema(spec)
    out = {}
    for key, value in raw.items():
        if key not in schema:
            problems.append(f"{where}: unknown key '{key}'")
            continue
        want, default = schema[key]
        if want is float:
            if isinstance(value, (int, str)) and not isinstance(value, bool):
                # YAML 1.1 reads "2.0e6" (no sign in the exponent) as a string.
                try:
                    value = float(value)
                except (ValueError, OverflowError):
                    pass
            if not isinstance(value, float):
                problems.append(f"{where}.{key}: expected a number, got {value!r}")
                continue
            if math.isnan(value) or (math.isinf(value) and default != math.inf):
                problems.append(f"{where}.{key}: must be finite, got {value}")
        elif want is int:
            if isinstance(value, bool) or not isinstance(value, int):
                problems.append(f"{where}.{key}: expected an integer, got {value!r}")
                continue
        elif not isinstance(value, str):
            problems.append(f"{where}.{key}: expected a string, got {value!r}")
            continue
        out[key] = value
    missing = [key for key, (_, default) in schema.items() if default is MISSING and key not in raw]
    if missing:
        problems.append(f"{where}: missing {', '.join(missing)}")
    return out


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a parsed YAML document and build the scenario."""
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a mapping"])
    sections = [f.name for f in fields(ScenarioConfig)]
    for key in data:
        if key not in sections:
            problems.append(f"unknown top-level key '{key}'")

    mode = data.get("mode", "liquidation")
    if mode not in ("liquidation", "attack"):
        problems.append(f"mode: must be 'liquidation' or 'attack', got {mode!r}")

    conv_name = data.get("convention", DEFAULT_CONVENTION.value)
    convention = DEFAULT_CONVENTION
    try:
        convention = RepayConvention(conv_name)
    except ValueError:
        problems.append(
            f"convention: must be one of {[c.value for c in RepayConvention]}, got {conv_name!r}"
        )

    pool = PoolSpec(**_take(data.get("pool"), "pool", PoolSpec, problems))
    reserves, kp = (pool.reserve_collateral, pool.reserve_debt), (pool.liquidity, pool.price)
    has_reserves, has_kp = reserves != (None, None), kp != (None, None)
    if has_reserves and has_kp:
        problems.append("pool: give either reserve_collateral/reserve_debt or liquidity/price, not both")
    elif has_reserves:
        if None in reserves:
            problems.append("pool: reserve_collateral and reserve_debt must be given together")
        elif any(v <= 0 for v in reserves):
            problems.append("pool: reserves must be > 0")
    elif has_kp:
        if None in kp:
            problems.append("pool: liquidity and price must be given together")
        elif any(v <= 0 for v in kp):
            problems.append("pool: liquidity and price must be > 0")
    else:
        problems.append("pool: missing reserves (or liquidity/price)")
    # A range check skips a value that _take already reported as not finite.
    if math.isfinite(pool.fee) and not 0.0 <= pool.fee < 1.0:
        problems.append(f"pool.fee: must lie in [0, 1), got {pool.fee}")
    if pool.scale <= 0.0:
        problems.append(f"pool.scale: must be > 0, got {pool.scale}")

    pos_raw = _take(data.get("position"), "position", PositionSpec, problems)
    if ("collateral" in pos_raw) == ("initial_health_factor" in pos_raw):
        problems.append("position: give exactly one of collateral or initial_health_factor")
    for key, value in pos_raw.items():
        if value < 0:
            problems.append(f"position.{key}: must be >= 0, got {value}")

    n_before = len(problems)
    risk_raw = _take(data.get("risk"), "risk", RiskParams, problems)
    risk = None
    if len(problems) == n_before:
        try:
            risk = RiskParams(**risk_raw)
        except ValueError as exc:
            problems.append(f"risk: {exc}")

    sweep, ends = None, ()
    if data.get("sweep") is not None:
        n_before = len(problems)
        sweep_raw = _take(data["sweep"], "sweep", SweepSpec, problems)
        axis = sweep_raw.get("axis")
        if "axis" in sweep_raw and axis not in SWEEP_AXES:
            problems.append(f"sweep.axis: must be one of {SWEEP_AXES}, got {axis!r}")
        if sweep_raw.get("steps", 1) < 1:
            problems.append(f"sweep.steps: must be >= 1, got {sweep_raw['steps']}")
        spacing = sweep_raw.get("spacing", SweepSpec.spacing)
        if spacing not in ("linear", "log"):
            problems.append(f"sweep.spacing: must be 'linear' or 'log', got {spacing!r}")
        if spacing == "log" and not all(sweep_raw.get(k, 1.0) > 0 for k in ("start", "stop")):
            problems.append("sweep: log spacing needs positive start/stop")
        if axis == "delta" and mode != "attack":
            problems.append("sweep.axis=delta requires mode: attack")
        if len(problems) == n_before:
            # The domain holds for the points the sweep evaluates, whose ends
            # can round past start/stop; values() is monotone between them.
            sweep = SweepSpec(**sweep_raw)
            values = sweep.values()
            ends = (values[0], values[-1])
            if axis == "fee" and not all(0.0 <= v < 1.0 for v in ends):
                problems.append("sweep: fee axis values must lie in [0, 1)")
            elif axis in ("price", "pool_scale") and not all(v > 0.0 for v in ends):
                problems.append(f"sweep: {axis} axis values must be > 0")
            elif axis == "delta" and not all(0.0 <= v < math.inf for v in ends):
                problems.append("sweep: delta axis values must be >= 0 and finite")

    attack = AttackSpec(**_take(data.get("attack"), "attack", AttackSpec, problems))
    f_lo, f_hi = attack.fee_low, attack.fee_high
    if math.isfinite(f_lo) and math.isfinite(f_hi):
        if not (0.0 <= f_lo < 1.0 and 0.0 <= f_hi < 1.0):
            problems.append("attack: fee_low/fee_high must lie in [0, 1)")
        elif f_lo >= f_hi:
            problems.append(f"attack: fee_low must be < fee_high, got {f_lo} >= {f_hi}")
    d_lo, d_hi = attack.delta_min, attack.delta_max
    if math.isfinite(d_lo) and not math.isnan(d_hi):  # delta_max may be +inf
        if not (d_lo >= 0.0 and d_hi >= 0.0):
            problems.append("attack: delta_min/delta_max must be >= 0")
        elif d_lo > d_hi:
            problems.append(f"attack: delta_min must be <= delta_max, got {d_lo} > {d_hi}")

    if problems:
        raise ConfigError(problems)
    cfg = ScenarioConfig(mode=mode, pool=pool, position=PositionSpec(**pos_raw), risk=risk,
                         sweep=sweep, attack=attack, convention=convention)
    # Finite inputs can still derive a reserve that underflows to 0, a state
    # that overflows, or a reserve_collateral * debt that underflows to 0 (an
    # undefined health factor).  A finite state can still overflow the pool
    # invariant A*B, which every swap divides, or both products of its health
    # factor, which is then NaN; those are checked once every state is finite.
    # Every derived number is monotone along a sweep, so the base point and the
    # sweep's ends stand for every point.
    try:
        states = [cfg.state_at(), *(cfg.sweep_states(ends) if sweep else [])]
        for position, state in states:
            if not all(map(math.isfinite, (position.collateral, state.reserve_collateral,
                                           state.reserve_debt))):
                raise ValueError(f"{position} in {state} is not finite")
            health_factor(position, state, risk.haircut)
        for position, state in states:
            if not math.isfinite(state.reserve_collateral * state.reserve_debt):
                raise ValueError(f"reserve product of {state} is not finite")
            if math.isnan(health_factor(position, state, risk.haircut)):
                raise ValueError(f"health factor of {position} in {state} is nan")
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError([f"scenario: derived state out of domain: {exc}"]) from None
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file, which must be UTF-8 text."""
    # Imported here, so the commands that read no scenario never load yaml.
    import yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([f"scenario file is not UTF-8 text: {exc}"]) from None
    # libyaml's parser where PyYAML was built with it; both loaders share the
    # Python resolver and constructor, so scalars come out typed the same.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        data = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError([f"YAML parse error: {exc}"]) from exc
    return parse_config(data if data is not None else {})
