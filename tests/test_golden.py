"""Byte-level golden outputs of the bundled scenarios and the study sweeps.

The SHA-256 values are the references ``perfbench/refs.json`` records for
the same commands (``sweep_csv-bundled-*``, ``sweep_csv-reproduce-ex*``,
``attack_search-attack-bundled``, ``attack_search-fee-threshold-bundled``).
A change that alters any CSV byte or any printed digit fails here.

The brute-force oracle is pinned bit for bit too: the exact ``dp_oracle``
values of one borrower under every repayment convention, the bytes of a
small and of the default-seed ``verify --instances 100`` report (the
references hash only its stdout, which shows pass counts, not the compared
values), and every field of a fixed set of transaction-by-transaction walks.
So are the closed forms: one hash covers every field of a fixed set of
``best_strategy``, ``attack_profit`` and ``optimize_attack`` results.
"""

import hashlib
import math

import pytest

from oevsim.amm import PoolState
from oevsim.attack import attack_profit, optimize_attack
from oevsim.cli import main
from oevsim.config import load_config
from oevsim.engine import best_strategy
from oevsim.lending import LoanPosition, RepayConvention, _x_collateral
from oevsim.oracles import dp_oracle, random_instances, simulate_liquidation_sequence

from conftest import BUNDLED_ATTACK, SCENARIOS, STD, leaves, pool_at

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


# Each table through both sinks against one digest; a stdout case's id ends in -stdout.
@pytest.mark.parametrize("command, target, to_file", [
    pytest.param(command, target, to_file,
                 id=f"{command}-{target}" + ("" if to_file else "-stdout"))
    for command, target in sorted(CSV_SHA256) for to_file in (True, False)
])
def test_csv_bytes_match_reference(tmp_path, capsys, command, target, to_file):
    arg = str(SCENARIOS / f"{target}.yaml") if command == "sweep" else target
    out = tmp_path / "out.csv"
    assert main([command, arg, *(["--out", str(out)] if to_file else [])]) == 0
    printed = capsys.readouterr().out
    if to_file:
        assert printed == ""
        assert sha256(out.read_bytes()) == CSV_SHA256[command, target]
    else:
        assert not out.exists()
        assert sha256(printed.encode()) == CSV_SHA256[command, target]


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
def test_bundled_attack_stdout_matches_reference(capsys, command):
    rc, digest = STDOUT_SHA256[command]
    assert main([command, str(BUNDLED_ATTACK)]) == rc
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

# verify --report bytes per set of arguments.
VERIFY_REPORT_SHA256 = {
    ("--instances", "2", "--seed", "1000"):
        "df1f0b5332f4bbb750d879d13a9bca74d1a9190fac5dd2eb4d935c73d226e6d1",
    # 474 records over 200 fine walks, whose debt reserves take both the
    # one-division path and the float loop.
    ("--instances", "100"): "190d6f16e8efabafa362e431cdd8da63b962513ab06f4bb5134b5245d2b0e9e1",
}


@pytest.mark.parametrize("price, convention", list(DP_HEX),
                         ids=lambda v: v.value if isinstance(v, RepayConvention) else f"p{v:g}")
def test_dp_oracle_value_is_bit_exact(price, convention):
    pool = pool_at(price, fee=0.003)
    value = dp_oracle(LoanPosition(6.0, 1e4), pool, STD, 1.0, 0.5, 4000, convention)
    assert value.hex() == DP_HEX[price, convention]


@pytest.mark.parametrize("args", VERIFY_REPORT_SHA256, ids=lambda args: "-".join(arg.lstrip("-") for arg in args))
def test_verify_report_bytes_match_reference(tmp_path, capsys, args):
    report = tmp_path / "report.jsonl"
    assert main(["verify", *args, "--report", str(report)]) == 0
    assert "verification passed" in capsys.readouterr().out
    assert sha256(report.read_bytes()) == VERIFY_REPORT_SHA256[args]


ENGINE_SHA256 = "4a8031e259a468b51b5e2a8b7478f111b2380623169665961c3cf4d3a953556d"


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
                results.append(best_strategy(position, pool, STD, convention))
    cfg = load_config(BUNDLED_ATTACK)
    position, pool = cfg.state_at()
    results.append(optimize_attack(position, pool, cfg.risk))
    results.append(optimize_attack(position, pool, cfg.risk, delta_range=(0.0, 0.0)))
    digest = sha256("\n".join(leaves(results)).encode())
    assert digest == ENGINE_SHA256


WALK_SHA256 = "5981134d461d57b9c4f9325f9c239138807eeb6777b4b0870f95cfcb357d69ae"


def _walks():
    """Walk outcomes over random states, every convention and four step sizes."""
    instances = (random_instances(12, seed=5150, feasible_only=True)
                 + random_instances(12, seed=5151))
    for convention in RepayConvention:
        for inst in instances:
            cap = _x_collateral(inst.position.collateral, inst.params.bonus)
            for step_limit, max_steps in ((math.inf, 200_000),  # greedy
                                          (cap / 200.0, 1_000),  # fine, DP-like
                                          (cap / 7.0, 200_000),  # coarse
                                          (cap / 1e3, 25)):  # step budget binds
                yield simulate_liquidation_sequence(
                    inst.position, inst.pool, inst.params, inst.cf_target, inst.kappa,
                    convention, step_limit, max_steps)
    # reproduce ex3's replay (greedy, kappa 0.5, spot-priced write-downs), and at
    # kappa 1 the first trade of a state near the gate repays the whole debt.
    for kappa in (0.5, 1.0):
        for price in (1400.0, 1600.0, 1700.0, 1800.0, 1820.0, 1900.0, 2100.0):
            pool = pool_at(price)
            yield simulate_liquidation_sequence(LoanPosition(6.0, 1e4), pool, STD, 1.0,
                                                kappa, RepayConvention.SPOT_PRICE)


def test_walk_outcomes_are_bit_exact():
    digest = sha256("\n".join(leaves(tuple(_walks()))).encode())
    assert digest == WALK_SHA256
