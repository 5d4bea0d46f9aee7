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
health factor stays pinned while a sweep moves the pool.  Unknown keys are
rejected and every violated invariant is reported, not just the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .amm import PoolState
from .lending import DEFAULT_CONVENTION, LoanPosition, RepayConvention, RiskParams

SWEEP_AXES = ("price", "pool_scale", "delta", "fee")


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

    def resolve(self, price: float | None = None, scale: float | None = None,
                fee: float | None = None) -> PoolState:
        """Concrete pool state, optionally overriding the swept quantity."""
        s = self.scale if scale is None else scale
        g = self.fee if fee is None else fee
        if self.liquidity is not None:
            p = self.price if price is None else price
            a0 = math.sqrt(self.liquidity / p)
            b0 = math.sqrt(self.liquidity * p)
        else:
            a0, b0 = self.reserve_collateral, self.reserve_debt
            if price is not None:
                k = a0 * b0
                a0 = math.sqrt(k / price)
                b0 = math.sqrt(k * price)
        return PoolState(a0 * s, b0 * s, g)


@dataclass(frozen=True)
class PositionSpec:
    debt: float
    collateral: float | None = None
    initial_health_factor: float | None = None

    def resolve(self, pool: PoolState, haircut: float) -> LoanPosition:
        if self.collateral is not None:
            return LoanPosition(self.collateral, self.debt)
        c = (
            self.initial_health_factor
            * self.debt
            * pool.reserve_collateral
            / (haircut * pool.reserve_debt)
        )
        return LoanPosition(c, self.debt)


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
    delta_min: float | None = None
    delta_max: float | None = None
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

    def state_at(self, price: float | None = None, scale: float | None = None,
                 fee: float | None = None) -> tuple[LoanPosition, PoolState]:
        pool = self.pool.resolve(price=price, scale=scale, fee=fee)
        return self.position.resolve(pool, self.risk.haircut), pool


def _require_mapping(raw, where: str, problems: list[str]) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        problems.append(f"{where}: expected a mapping, got {type(raw).__name__}")
        return {}
    return raw


def _take(raw: dict, where: str, allowed: dict[str, type | tuple], problems: list[str]) -> dict:
    """Pull typed values out of a mapping, flagging unknown keys and bad types."""
    out = {}
    for key, value in raw.items():
        if key not in allowed:
            problems.append(f"{where}: unknown key '{key}'")
            continue
        want = allowed[key]
        if want is float:
            if isinstance(value, str):
                # YAML 1.1 reads "2.0e6" (no sign in the exponent) as a string.
                try:
                    value = float(value)
                except ValueError:
                    pass
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problems.append(f"{where}.{key}: expected a number, got {value!r}")
                continue
            out[key] = float(value)
        elif want is int:
            if isinstance(value, bool) or not isinstance(value, int):
                problems.append(f"{where}.{key}: expected an integer, got {value!r}")
                continue
            out[key] = value
        else:
            if not isinstance(value, str):
                problems.append(f"{where}.{key}: expected a string, got {value!r}")
                continue
            out[key] = value
    return out


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a parsed YAML document and build the scenario."""
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a mapping"])
    for key in data:
        if key not in ("mode", "pool", "position", "risk", "sweep", "attack", "convention"):
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

    pool_raw = _take(
        _require_mapping(data.get("pool"), "pool", problems), "pool",
        {"reserve_collateral": float, "reserve_debt": float, "liquidity": float,
         "price": float, "fee": float, "scale": float},
        problems,
    )
    has_reserves = "reserve_collateral" in pool_raw or "reserve_debt" in pool_raw
    has_kp = "liquidity" in pool_raw or "price" in pool_raw
    if has_reserves and has_kp:
        problems.append("pool: give either reserve_collateral/reserve_debt or liquidity/price, not both")
    elif has_reserves:
        if not ("reserve_collateral" in pool_raw and "reserve_debt" in pool_raw):
            problems.append("pool: reserve_collateral and reserve_debt must be given together")
        elif pool_raw["reserve_collateral"] <= 0 or pool_raw["reserve_debt"] <= 0:
            problems.append("pool: reserves must be > 0")
    elif has_kp:
        if not ("liquidity" in pool_raw and "price" in pool_raw):
            problems.append("pool: liquidity and price must be given together")
        elif pool_raw["liquidity"] <= 0 or pool_raw["price"] <= 0:
            problems.append("pool: liquidity and price must be > 0")
    else:
        problems.append("pool: missing reserves (or liquidity/price)")
    if not 0.0 <= pool_raw.get("fee", 0.0) < 1.0:
        problems.append(f"pool.fee: must lie in [0, 1), got {pool_raw.get('fee')}")
    if pool_raw.get("scale", 1.0) <= 0.0:
        problems.append(f"pool.scale: must be > 0, got {pool_raw.get('scale')}")

    pos_raw = _take(
        _require_mapping(data.get("position"), "position", problems), "position",
        {"debt": float, "collateral": float, "initial_health_factor": float},
        problems,
    )
    if "debt" not in pos_raw:
        problems.append("position.debt: required")
    elif pos_raw["debt"] < 0:
        problems.append(f"position.debt: must be >= 0, got {pos_raw['debt']}")
    has_c = "collateral" in pos_raw
    has_hf = "initial_health_factor" in pos_raw
    if has_c == has_hf:
        problems.append("position: give exactly one of collateral or initial_health_factor")
    if has_c and pos_raw["collateral"] < 0:
        problems.append(f"position.collateral: must be >= 0, got {pos_raw['collateral']}")
    if has_hf and pos_raw["initial_health_factor"] < 0:
        problems.append("position.initial_health_factor: must be >= 0")

    risk_raw = _take(
        _require_mapping(data.get("risk"), "risk", problems), "risk",
        {"haircut": float, "bonus": float, "closing_factor": float, "max_liq_fraction": float},
        problems,
    )
    risk = None
    missing = [k for k in ("haircut", "bonus", "closing_factor", "max_liq_fraction") if k not in risk_raw]
    if missing:
        problems.append(f"risk: missing {', '.join(missing)}")
    else:
        try:
            risk = RiskParams(**risk_raw)
        except ValueError as exc:
            problems.append(f"risk: {exc}")

    sweep = None
    if "sweep" in data and data["sweep"] is not None:
        sweep_raw = _take(
            _require_mapping(data.get("sweep"), "sweep", problems), "sweep",
            {"axis": str, "start": float, "stop": float, "steps": int, "spacing": str},
            problems,
        )
        axis = sweep_raw.get("axis")
        if axis not in SWEEP_AXES:
            problems.append(f"sweep.axis: must be one of {SWEEP_AXES}, got {axis!r}")
        if sweep_raw.get("steps", 0) < 1:
            problems.append(f"sweep.steps: must be >= 1, got {sweep_raw.get('steps')}")
        spacing = sweep_raw.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            problems.append(f"sweep.spacing: must be 'linear' or 'log', got {spacing!r}")
        if spacing == "log" and (sweep_raw.get("start", 0) <= 0 or sweep_raw.get("stop", 0) <= 0):
            problems.append("sweep: log spacing needs positive start/stop")
        if axis == "delta" and mode != "attack":
            problems.append("sweep.axis=delta requires mode: attack")
        if axis == "fee" and not all(0.0 <= sweep_raw.get(k, 0.0) < 1.0 for k in ("start", "stop")):
            problems.append("sweep: fee axis values must lie in [0, 1)")
        if axis in ("price", "pool_scale") and not all(sweep_raw.get(k, 1.0) > 0.0 for k in ("start", "stop")):
            problems.append(f"sweep: {axis} axis values must be > 0")
        if axis == "delta" and not all(sweep_raw.get(k, 0.0) >= 0.0 for k in ("start", "stop")):
            problems.append("sweep: delta axis values must be >= 0")
        if not problems and {"axis", "start", "stop", "steps"} <= sweep_raw.keys():
            sweep = SweepSpec(axis, sweep_raw["start"], sweep_raw["stop"],
                              sweep_raw["steps"], spacing)

    attack_raw = _take(
        _require_mapping(data.get("attack"), "attack", problems), "attack",
        {"delta_min": float, "delta_max": float, "fee_low": float, "fee_high": float},
        problems,
    )
    attack = AttackSpec(
        delta_min=attack_raw.get("delta_min"),
        delta_max=attack_raw.get("delta_max"),
        fee_low=attack_raw.get("fee_low", 0.0),
        fee_high=attack_raw.get("fee_high", 0.003),
    )
    if not 0.0 <= attack.fee_low < 1.0 or not 0.0 <= attack.fee_high < 1.0:
        problems.append("attack: fee_low/fee_high must lie in [0, 1)")
    elif attack.fee_low >= attack.fee_high:
        problems.append(f"attack: fee_low must be < fee_high, got {attack.fee_low} >= {attack.fee_high}")
    d_lo, d_hi = attack.delta_min, attack.delta_max
    if any(d is not None and not d >= 0.0 for d in (d_lo, d_hi)):
        problems.append("attack: delta_min/delta_max must be >= 0")
    elif d_lo is not None and d_hi is not None and d_lo > d_hi:
        problems.append(f"attack: delta_min must be <= delta_max, got {d_lo} > {d_hi}")

    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(
        mode=mode,
        pool=PoolSpec(**pool_raw),
        position=PositionSpec(**pos_raw),
        risk=risk,
        sweep=sweep,
        attack=attack,
        convention=convention,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file."""
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"YAML parse error: {exc}"]) from exc
    return parse_config(data if data is not None else {})
