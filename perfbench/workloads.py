"""The four workloads: their seeded op lists and the correctness check of each op.

Ops of ``sweep_csv``, ``attack_search`` and ``oracle_verify`` are CLI
commands run in-process through ``oevsim.cli.main(argv)``.  Their inputs
come from a fixed catalog.  Each slot of a workload has a few generated
scenario variants; the workload seed leaves one variant of every slot out
and shuffles the order (``oracle_verify`` has one verify seed per slot).
``refs.json`` holds, for every catalog op, the SHA-256 of its input, of its
stdout and of the CSV it writes, and its exit code, as the program produced
them when the benchmark was defined (``make_refs.py``).  A run compares
every op against them.  Because every seed runs nearly the same ops, runs
with different seeds do nearly the same work and can be compared.

Ops of ``edge_states`` are library calls on states generated from the seed
(``edge.py``) and are checked against the invariants of their results.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from edge import CAUSE_B, attack_ok, draw_delta, draw_state, liquidation_ok

WORK = Path(".perfbench/work")
REFS = Path(__file__).with_name("refs.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class CliOp:
    """One command; ``files`` are written before the timed passes."""

    id: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    out: str | None = None
    must_print: str | None = None

    def input_digest(self) -> str:
        h = hashlib.sha256(json.dumps(self.argv).encode())
        for path in sorted(self.files):
            h.update(path.encode() + b"\0" + self.files[path].encode())
        for arg in self.argv:
            if arg.endswith(".yaml") and arg not in self.files:
                h.update(arg.encode() + b"\0" + Path(arg).read_bytes())
        return h.hexdigest()

    def prepare(self) -> None:
        for path, text in self.files.items():
            Path(path).write_text(text)

    def call(self):
        from oevsim import cli  # looked up per call, so traced runs see the wrappers

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(self.argv)
        return rc, stdout.getvalue()

    def outcome(self, result) -> dict:
        rc, text = result
        out = {"rc": rc, "stdout": sha256(text.encode())}
        out["csv"] = sha256(Path(self.out).read_bytes()) if self.out else None
        return out

    def check(self, result, ref: dict) -> bool:
        if self.must_print is not None and self.must_print not in result[1]:
            return False
        got = self.outcome(result)
        return all(got[k] == ref[k] for k in ("rc", "stdout", "csv"))

    def csv_bytes(self) -> int:
        return Path(self.out).stat().st_size if self.out else 0


# ---------------------------------------------------------------------------
# Scenario text
# ---------------------------------------------------------------------------

def _yaml(sections: dict) -> str:
    lines = []
    for key, value in sections.items():
        if isinstance(value, dict):
            lines.append(f"{key}:")
            lines += [f"  {k}: {v!r}" if isinstance(v, float) else f"  {k}: {v}"
                      for k, v in value.items()]
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _risk(rng: random.Random) -> dict:
    return dict(haircut=rng.uniform(0.75, 0.9), bonus=rng.uniform(0.05, 0.15),
                closing_factor=rng.uniform(0.6, 0.95), max_liq_fraction=rng.uniform(0.3, 1.0))


# ---------------------------------------------------------------------------
# sweep_csv
# ---------------------------------------------------------------------------

# (slot, mode, axis, steps, spacing); oevsim.cli pools sweeps of >= 256 points.
SWEEP_SLOTS = (
    ("liq-price-200", "liquidation", "price", 200, "linear"),
    ("liq-price-1200", "liquidation", "price", 1200, "log"),
    ("liq-scale-255", "liquidation", "pool_scale", 255, "log"),
    ("liq-scale-400", "liquidation", "pool_scale", 400, "log"),
    ("liq-fee-128", "liquidation", "fee", 128, "linear"),
    ("liq-fee-600", "liquidation", "fee", 600, "linear"),
    ("atk-delta-240", "attack", "delta", 240, "log"),
    ("atk-delta-600", "attack", "delta", 600, "log"),
    ("atk-price-256", "attack", "price", 256, "linear"),
    ("atk-scale-150", "attack", "pool_scale", 150, "log"),
    ("atk-fee-300", "attack", "fee", 300, "linear"),
)
SWEEP_VARIANTS = 10
BUNDLED = ("scenarios/liquidation_price_sweep.yaml", "scenarios/attack_delta_sweep.yaml")


def sweep_scenario(rng: random.Random, mode: str, axis: str, steps: int, spacing: str) -> str:
    liquidity = 10.0 ** rng.uniform(6.0, 11.0)
    price = 10.0 ** rng.uniform(1.0, 3.5)
    a0, b0 = (liquidity / price) ** 0.5, (liquidity * price) ** 0.5
    fee = rng.choice((0.0, 0.0005, 0.003, rng.uniform(0.0, 0.01)))
    if rng.random() < 0.5:
        pool = dict(liquidity=liquidity, price=price, fee=fee)
    else:
        pool = dict(reserve_collateral=a0, reserve_debt=b0, fee=fee)
    debt = b0 * 10.0 ** rng.uniform(-5.0, -1.5)
    hf0 = rng.uniform(0.3, 1.3)
    risk = _risk(rng)
    if rng.random() < 0.5:
        position = dict(debt=debt, initial_health_factor=hf0)
    else:
        position = dict(debt=debt, collateral=hf0 * debt * a0 / (risk["haircut"] * b0))
    if axis == "price":
        start, stop = price * rng.uniform(0.5, 0.9), price * rng.uniform(1.1, 2.0)
    elif axis == "pool_scale":
        start, stop = 10.0 ** rng.uniform(-2.0, -0.5), 10.0 ** rng.uniform(0.5, 2.0)
    elif axis == "fee":
        start, stop = 0.0, rng.uniform(0.002, 0.02)
    else:
        start, stop = a0 * 1e-5, a0 * rng.uniform(0.5, 5.0)
    doc = dict(mode=mode, pool=pool, position=position, risk=risk,
               sweep=dict(axis=axis, start=start, stop=stop, steps=steps, spacing=spacing))
    if mode == "attack" and axis != "delta":
        doc["attack"] = dict(delta_min=a0 * 10.0 ** rng.uniform(-3.0, -1.0))
    return _yaml(doc)


def sweep_catalog() -> dict[str, list[CliOp]]:
    """Slot -> its variants; fixed slots have a single entry."""
    cat: dict[str, list[CliOp]] = {}
    for slot, mode, axis, steps, spacing in SWEEP_SLOTS:
        cat[slot] = []
        for v in range(SWEEP_VARIANTS):
            rng = random.Random(f"sweep_csv:{slot}:{v}")
            name = f"sweep_csv-{slot}-{v}"
            scen = str(WORK / f"{name}.yaml")
            out = str(WORK / f"{name}.csv")
            cat[slot].append(CliOp(
                name, ["sweep", scen, "--out", out],
                files={scen: sweep_scenario(rng, mode, axis, steps, spacing)}, out=out))
    for path in BUNDLED:
        name = f"sweep_csv-bundled-{Path(path).stem}"
        out = str(WORK / f"{name}.csv")
        cat[name] = [CliOp(name, ["sweep", path, "--out", out], out=out)]
    for ex in ("ex1", "ex2", "ex3", "ex4", "ex5"):
        name = f"sweep_csv-reproduce-{ex}"
        out = str(WORK / f"{name}.csv")
        cat[name] = [CliOp(name, ["reproduce", ex, "--out", out], out=out)]
    return cat


# ---------------------------------------------------------------------------
# attack_search
# ---------------------------------------------------------------------------

FEE_BANDS_BPS = ((0.0, 0.0), (1.0, 10.0), (10.0, 30.0), (30.0, 100.0))
HF_CLASSES = {"healthy": (1.02, 1.6), "liquidatable": (0.5, 0.99)}
DEPTHS = {"small": (-5.0, -3.0), "large": (-2.5, -1.3)}  # log10(debt / debt reserve)


def _attack_slots() -> dict[str, tuple]:
    slots = {}
    for lo, hi in FEE_BANDS_BPS:
        for hf in HF_CLASSES:
            for depth in DEPTHS:
                slots[f"attack-fee{lo:g}-{hi:g}bps-{hf}-{depth}"] = ("attack", 7, lo, hi, hf, depth)
    for hf in HF_CLASSES:
        for depth in DEPTHS:
            slots[f"fee-threshold-{hf}-{depth}"] = ("fee-threshold", 1, 0.0, 30.0, hf, depth)
    return slots


ATTACK_SLOTS = _attack_slots()

# Generated attack_search scenarios whose command raises the bound_closing
# self-check ArithmeticError at the commit that defined the benchmark.  An
# answer cannot be checked against a crash, so attack_search never runs
# them (make_refs.py checks that no other catalog op crashes); edge_states
# runs the optimize_attack / critical_fee call behind each as a pinned op
# that counts as failed while the defect lasts.  The fee-threshold one is
# variant 1 of a slot whose catalog holds only variant 0; it is kept as the
# reproducer that crashes through critical_fee.
CLI_CRASHES = (
    "attack_search-attack-fee1-10bps-healthy-small-5",
    "attack_search-fee-threshold-healthy-small-1",
)


def attack_doc(slot: str, v: int) -> dict:
    """Scenario of one attack_search variant, as the mapping written to YAML."""
    _, _, lo, hi, hf, depth = ATTACK_SLOTS[slot]
    rng = random.Random(f"attack_search:{slot}:{v}")
    fee = rng.uniform(lo, hi) / 1e4
    a0 = 10.0 ** rng.uniform(2.0, 6.0)
    b0 = a0 * 10.0 ** rng.uniform(1.0, 3.5)
    debt = b0 * 10.0 ** rng.uniform(*DEPTHS[depth])
    risk = _risk(rng)
    coll = rng.uniform(*HF_CLASSES[hf]) * debt * a0 / (risk["haircut"] * b0)
    return dict(
        mode="attack",
        pool=dict(reserve_collateral=a0, reserve_debt=b0, fee=fee),
        position=dict(debt=debt, collateral=coll),
        risk=risk,
        attack=dict(fee_low=0.0, fee_high=0.006),
    )


def attack_catalog() -> dict[str, list[CliOp]]:
    cat: dict[str, list[CliOp]] = {}
    for slot, (command, variants, *_) in ATTACK_SLOTS.items():
        cat[slot] = []
        for v in range(variants):
            name = f"attack_search-{slot}-{v}"
            scen = str(WORK / f"{name}.yaml")
            cat[slot].append(CliOp(name, [command, scen], files={scen: _yaml(attack_doc(slot, v))}))
    cat["attack-bundled"] = [CliOp("attack_search-attack-bundled", ["attack", BUNDLED[1]])]
    cat["fee-threshold-bundled"] = [CliOp(
        "attack_search-fee-threshold-bundled", ["fee-threshold", BUNDLED[1]],
        must_print="critical fee: 16.56 bps")]
    return cat


# ---------------------------------------------------------------------------
# oracle_verify
# ---------------------------------------------------------------------------

# Verify seeds 1000 .. 1099, all run in every pass, so runs with different
# workload seeds do the same work; the seed sets their order.
VERIFY_OPS = 100


def verify_catalog() -> dict[str, list[CliOp]]:
    """One slot per verify seed, so every pass runs all of them."""
    return {
        f"verify-{k}": [CliOp(f"oracle_verify-{k}",
                              ["verify", "--instances", "1", "--seed", str(1000 + k)])]
        for k in range(VERIFY_OPS)
    }


CATALOGS = {"sweep_csv": sweep_catalog, "attack_search": attack_catalog,
            "oracle_verify": verify_catalog}


def cli_ops(workload: str, seed: int) -> list[CliOp]:
    """The seed's op list: all variants of each slot but one, shuffled."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    ops = []
    for variants in CATALOGS[workload]().values():
        kept = [op for op in variants if op.id not in CLI_CRASHES]
        ops += rng.sample(kept, max(1, len(variants) - 1))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# edge_states
# ---------------------------------------------------------------------------

EDGE_STATES = 16000      # best_strategy calls in the catalog
EDGE_ATTACKS = 4000      # attack_profit calls in the catalog
EDGE_KEPT = 18000        # catalog calls in one seed's op list


class EdgeOp:
    """One library call on prebuilt arguments, checked against invariants.

    Exceptions in ``answers`` are documented outcomes, not failures; the
    call returns them for the check to see.
    """

    __slots__ = ("id", "module", "func", "args", "position", "pool", "checker", "answers")

    def __init__(self, id, module, func, args, position, pool, checker, answers=()):
        self.id, self.module, self.func, self.args = id, module, func, args
        self.position, self.pool, self.checker, self.answers = position, pool, checker, answers

    def call(self):
        try:
            return getattr(self.module, self.func)(*self.args)
        except self.answers as exc:
            return exc

    def check(self, result, ref=None) -> bool:
        return self.checker(result, self.position, self.pool)

    def csv_bytes(self) -> int:
        return 0


def _strategy_ok(result, position, pool) -> bool:
    return liquidation_ok(result[0], position, pool)


def _optimize_ok(outcome, position, pool) -> bool:
    return attack_ok(outcome.result, position, pool)


def _fee_ok(result, position, pool) -> bool:
    if isinstance(result, Exception):  # "no threshold" is an answer
        return True
    lo, hi = result.bracket
    return lo <= result.fee_star == hi and math.isfinite(result.fee_star)


def edge_ops(seed: int) -> list[EdgeOp]:
    """Library calls from a fixed catalog, plus the pinned crash reproducers.

    The catalog of generated states is the same for every seed; the seed
    picks ``EDGE_KEPT`` of its calls and their order, as for the CLI
    workloads.  Drawing fresh states per seed instead moved ``op_ms_p90``
    by up to 20% from seed to seed: it sits between the common calls and
    the slow refine-fallback tail, where a small change in the tail's
    share moves it far.

    The pinned ones are ROADMAP item 1's cause-B state (``optimize_attack``)
    and the calls behind ``CLI_CRASHES``, once per pass each.  Functions are
    looked up in their home module at call time, so a traced run goes
    through the wrappers.
    """
    from oevsim import attack, engine
    from oevsim.amm import PoolState
    from oevsim.lending import LoanPosition, RiskParams

    def build(s: dict):
        return (LoanPosition(s["collateral"], s["debt"]),
                PoolState(s["reserve_collateral"], s["reserve_debt"], s["fee"]),
                RiskParams(s["haircut"], s["bonus"], s["closing_factor"], s["max_liq_fraction"]))

    rng = random.Random("perfbench:edge_states:catalog")
    ops = []
    for i in range(EDGE_STATES + EDGE_ATTACKS):
        family, state = draw_state(rng)
        position, pool, risk = build(state)
        if i < EDGE_ATTACKS:
            args = (draw_delta(rng, state), position, pool, risk)
            ops.append(EdgeOp(f"attack_profit-{family}", attack, "attack_profit",
                              args, position, pool, attack_ok))
        else:
            ops.append(EdgeOp(f"best_strategy-{family}", engine, "best_strategy",
                              (position, pool, risk), position, pool, _strategy_ok))
    rng = random.Random(f"perfbench:edge_states:{seed}")
    ops = rng.sample(ops, EDGE_KEPT)
    position, pool, risk = build(CAUSE_B)
    ops.append(EdgeOp("optimize_attack-cause_b", attack, "optimize_attack",
                      (position, pool, risk), position, pool, _optimize_ok))
    for op_id in CLI_CRASHES:
        slot, v = op_id.removeprefix("attack_search-").rsplit("-", 1)
        doc = attack_doc(slot, int(v))
        position, pool, risk = build({**doc["pool"], **doc["position"], **doc["risk"]})
        if ATTACK_SLOTS[slot][0] == "fee-threshold":
            fees = (doc["attack"]["fee_low"], doc["attack"]["fee_high"])
            ops.append(EdgeOp(f"critical_fee-{op_id}", attack, "critical_fee",
                              (position, pool, risk, *fees), position, pool, _fee_ok,
                              (attack.NoThresholdError, attack.NonMonotoneFeeProfileError)))
        else:
            ops.append(EdgeOp(f"optimize_attack-{op_id}", attack, "optimize_attack",
                              (position, pool, risk), position, pool, _optimize_ok))
    rng.shuffle(ops)
    return ops
