"""Byte-level golden outputs of the bundled scenarios and the study sweeps.

The SHA-256 values are the references ``perfbench/refs.json`` records for
the same commands (``sweep_csv-bundled-*``, ``sweep_csv-reproduce-ex*``,
``attack_search-attack-bundled``, ``attack_search-fee-threshold-bundled``).
A change that alters any CSV byte or any printed digit fails here.

The brute-force oracle is pinned bit for bit too: the exact ``dp_oracle``
values of one borrower under every repayment convention, and the bytes of
a small ``verify`` report (the references hash only its stdout, which
shows pass counts, not the compared values).  So are the closed forms: one
hash covers every field of a fixed set of ``best_strategy``,
``attack_profit`` and ``optimize_attack`` results.
"""

import dataclasses
import hashlib
import math
from enum import Enum
from pathlib import Path

import pytest

from oevsim.amm import PoolState
from oevsim.attack import attack_profit, optimize_attack
from oevsim.cli import main
from oevsim.config import load_config
from oevsim.engine import best_strategy
from oevsim.lending import LoanPosition, RepayConvention, RiskParams
from oevsim.oracles import dp_oracle, random_instances

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

CSV_SHA256 = {
    ("sweep", "liquidation_price_sweep"):
        "b79bd159825f682b0a2001c2cfe0508c18f1c055b7f10e92d9b68cedea22a55f",
    ("sweep", "attack_delta_sweep"):
        "fa6f712b1b1f3162b41c62fb7285430a3b5472af2049878739c6f3fde2d01ed3",
    ("reproduce", "ex1"): "85a656412292bb30e606eda052ef274f1bf12d082a379939331c147eadc4bc86",
    ("reproduce", "ex2"): "aa285f7972716d1ca0b9170a93f4972209690b83baa34e83ab60ebb954b43c83",
    ("reproduce", "ex3"): "d0fd41c2e36a40c8e23a4377bf2dab053a96f6a0c7e82e805a5a03b05c87b324",
    ("reproduce", "ex4"): "92531f5c7412c91411726992397718481f057dc6c1bed8136bc4fda561d1908c",
    ("reproduce", "ex5"): "adbfc5c8c8550a9c8fa4458228c65e657ad9145436cb3a93a7be3007f101c334",
}

STDOUT_SHA256 = {
    "attack": (3, "acd37d7f381c305e4e2e8f73b4aa4591b474c8aeed8d32d5e2e7cf45459bad74"),
    "fee-threshold": (0, "5dfe4b2fd49b050507697b2003f78047d89f66ce11e389b127137ae4dbec8539"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command, target", sorted(CSV_SHA256))
def test_csv_bytes_match_reference(tmp_path, capsys, command, target):
    arg = str(SCENARIOS / f"{target}.yaml") if command == "sweep" else target
    out = tmp_path / "out.csv"
    assert main([command, arg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert sha256(out.read_bytes()) == CSV_SHA256[command, target]


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
def test_bundled_attack_stdout_matches_reference(capsys, command):
    rc, digest = STDOUT_SHA256[command]
    assert main([command, str(SCENARIOS / "attack_delta_sweep.yaml")]) == rc
    assert sha256(capsys.readouterr().out.encode()) == digest


# dp_oracle of LoanPosition(6, 1e4) on the 30 bps pool of liquidity 2e9,
# cf_target 1.0, kappa 0.5, grid 4000.  At p = 1700 the walk exhausts the
# collateral; at p = 1820 it ends on the health-gate crossing, so the
# crossing bisection and the closing trade are pinned as well.
DP_HEX = {
    (1700.0, RepayConvention.SPOT_PRICE): "0x1.c49ad1255debap+8",
    (1700.0, RepayConvention.EXECUTION_VALUE): "0x1.c49ad1255debap+8",
    (1700.0, RepayConvention.EXECUTION_PER_BONUS): "0x1.c49ad1255debap+8",
    (1820.0, RepayConvention.SPOT_PRICE): "0x1.8fde75eedec0ap+8",
    (1820.0, RepayConvention.EXECUTION_VALUE): "0x1.8fec208666675p+8",
    (1820.0, RepayConvention.EXECUTION_PER_BONUS): "0x1.95b31016b6442p+8",
}

VERIFY_REPORT_SHA256 = "df1f0b5332f4bbb750d879d13a9bca74d1a9190fac5dd2eb4d935c73d226e6d1"


STUDY_RISK = RiskParams(haircut=0.85, bonus=0.05, closing_factor=0.8, max_liq_fraction=0.5)


@pytest.mark.parametrize("price, convention", list(DP_HEX),
                         ids=lambda v: v.value if isinstance(v, RepayConvention) else f"p{v:g}")
def test_dp_oracle_value_is_bit_exact(price, convention):
    pool = PoolState(math.sqrt(2e9 / price), math.sqrt(2e9 * price), 0.003)
    value = dp_oracle(LoanPosition(6.0, 1e4), pool, STUDY_RISK, 1.0, 0.5, 4000, convention)
    assert value.hex() == DP_HEX[price, convention]


def test_verify_report_bytes_match_reference(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    assert main(["verify", "--instances", "2", "--seed", "1000", "--report", str(report)]) == 0
    assert "verification passed" in capsys.readouterr().out
    assert sha256(report.read_bytes()) == VERIFY_REPORT_SHA256


ENGINE_SHA256 = "f1cb5bdc4208dcc7fa8dbcb88a8fb0f58ad2a83d0b0405646d834f8adaad9c9c"


def _fields(value, name: str = ""):
    """Every leaf of a result as a string: float bits, enum values, flags."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _fields(getattr(value, f.name), f.name)
    elif isinstance(value, tuple):
        for item in value:
            yield from _fields(item, name)
    elif value is None:
        # A binding of None and the FEE_GATE member are the same outcome.
        yield "fee_gate" if name == "binding" else "none"
    elif isinstance(value, Enum):
        yield value.value
    elif isinstance(value, bool):
        yield str(value)
    else:
        yield float(value).hex()


def test_engine_results_are_bit_exact():
    results = []
    instances = random_instances(200, seed=4242)
    for convention in RepayConvention:
        for inst in instances:
            results.append(best_strategy(inst.position, inst.pool, inst.params, convention))
            a0 = inst.pool.reserve_collateral
            for delta in (0.0, 1e-3 * a0, 0.3 * a0):
                results.append(attack_profit(delta, inst.position, inst.pool, inst.params,
                                             convention))
        # Empty positions, with and without the fee gate (u <= 1 at 6%).
        for fee in (0.0, 0.003, 0.06):
            pool = PoolState(1000.0, 2e6, fee)
            for position in (LoanPosition(0.0, 1e4), LoanPosition(5.0, 0.0),
                             LoanPosition(0.0, 0.0), LoanPosition(5.0, 1e4)):
                results.append(best_strategy(position, pool, STUDY_RISK, convention))
    cfg = load_config(SCENARIOS / "attack_delta_sweep.yaml")
    position, pool = cfg.state_at()
    results.append(optimize_attack(position, pool, cfg.risk))
    results.append(optimize_attack(position, pool, cfg.risk, delta_range=(0.0, 0.0)))
    digest = sha256("\n".join(_fields(tuple(results))).encode())
    assert digest == ENGINE_SHA256
