"""Scenario-file validation, CSV contracts, CLI exit codes."""

import csv
import io
import math
import random
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oevsim import ConfigError, LoanPosition, PoolState, health_factor, load_config
from oevsim.cli import REPRODUCERS, _fmt, _write_csv, main, run_sweep
from oevsim.config import SWEEP_AXES, parse_config
from oevsim.engine import best_strategy

MINIMAL = """
pool:
  reserve_collateral: 1000.0
  reserve_debt: 2.0e6
  fee: 0.003
position:
  debt: 10000.0
  collateral: 5.5
risk:
  haircut: 0.85
  bonus: 0.05
  closing_factor: 0.8
  max_liq_fraction: 0.5
"""


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.mode == "liquidation"
    assert cfg.sweep is None
    position, pool = cfg.state_at()
    assert pool.fee == 0.003
    assert position.collateral == 5.5


def test_health_factor_derived_collateral():
    cfg = parse_config({
        "pool": {"liquidity": 2e9, "price": 2000.0},
        "position": {"debt": 10000.0, "initial_health_factor": 0.5},
        "risk": {"haircut": 0.85, "bonus": 0.05, "closing_factor": 0.8,
                 "max_liq_fraction": 0.5},
    })
    position, pool = cfg.state_at()
    expected = 0.5 * 10000.0 * pool.reserve_collateral / (0.85 * pool.reserve_debt)
    assert position.collateral == pytest.approx(expected, rel=1e-15)
    # liquidity/price construction reproduces the product
    assert pool.reserve_collateral * pool.reserve_debt == pytest.approx(2e9, rel=1e-9)
    assert pool.spot_price() == pytest.approx(2000.0, rel=1e-12)


def test_unknown_keys_rejected(tmp_path):
    bad = MINIMAL + "\nextra_section: 1\n"
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, bad))
    assert any("unknown top-level key" in p for p in err.value.problems)


def test_all_violations_reported():
    with pytest.raises(ConfigError) as err:
        parse_config({
            "mode": "bogus",
            "pool": {"reserve_collateral": -5.0, "reserve_debt": 10.0, "fee": 2.0},
            "position": {"debt": 1.0, "collateral": 1.0, "initial_health_factor": 0.5},
            "risk": {"haircut": 0.85, "bonus": 0.05, "closing_factor": 0.8,
                     "max_liq_fraction": 0.5},
            "sweep": {"axis": "sideways", "start": 1.0, "stop": 2.0, "steps": 0},
        })
    text = "\n".join(err.value.problems)
    for fragment in ("mode:", "reserves must be > 0", "pool.fee", "exactly one of",
                     "sweep.axis", "sweep.steps"):
        assert fragment in text, f"missing {fragment!r} in:\n{text}"


def test_delta_axis_requires_attack_mode():
    with pytest.raises(ConfigError) as err:
        parse_config({
            "pool": {"reserve_collateral": 1.0, "reserve_debt": 1.0},
            "position": {"debt": 1.0, "collateral": 1.0},
            "risk": {"haircut": 0.85, "bonus": 0.05, "closing_factor": 0.8,
                     "max_liq_fraction": 0.5},
            "sweep": {"axis": "delta", "start": 0.0, "stop": 10.0, "steps": 3},
        })
    assert any("mode: attack" in p for p in err.value.problems)


SWEEP = MINIMAL.replace("fee: 0.003", "fee: 0.0") + """
sweep:
  axis: price
  start: 1400.0
  stop: 2000.0
  steps: 7
"""


def test_sweep_row_count_and_determinism(tmp_path):
    cfg = load_config(write(tmp_path, SWEEP))
    header1, cols1 = run_sweep(cfg)
    header2, cols2 = run_sweep(cfg)
    assert len(cols1) == len(header1) and all(len(col) == 7 for col in cols1)
    assert header1 == header2 and cols1 == cols2


def test_single_point_sweep_matches_direct_call(tmp_path):
    single = SWEEP.replace("steps: 7", "steps: 1")
    cfg = load_config(write(tmp_path, single))
    rows = [list(row) for row in zip(*run_sweep(cfg)[1])]
    c, d, a, b, g = (float(col[0]) for col in cfg.columns([1400.0]))
    position, pool = LoanPosition(c, d), PoolState(a, b, g)
    res, strat = best_strategy(position, pool, cfg.risk)
    assert rows == [["price", 1400.0, res.hf_initial, res.pi_liq, res.pi_last, res.pi_tot,
                     res.binding.value, res.last_binding.value, strat.value, res.bad_debt]]
    assert [type(v) for v in rows[0]] == [str, float, float, float, float, float, str, str, str,
                                          float]


def test_ex1_header_and_shape_golden():
    header, cols = REPRODUCERS["ex1"]()
    assert header == ["s", "profit_cf_full", "profit_one_kappa"]
    assert len(cols) == 3
    assert all(len(col) == 121 for col in cols)


def test_cli_sweep_csv_roundtrip(tmp_path):
    cfg_path = write(tmp_path, SWEEP)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", cfg_path, "--out", str(out1)]) == 0
    assert main(["sweep", cfg_path, "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2  # byte-identical reruns
    lines = b1.decode().strip().splitlines()
    assert len(lines) == 8 and lines[0].startswith("axis,value,")


def test_cli_exit_code_on_bad_config(tmp_path):
    bad = write(tmp_path, "pool: {fee: 2.0}\n")
    assert main(["sweep", bad]) == 2
    assert main(["liquidate", str(tmp_path / "missing.yaml")]) == 2


def test_cli_rejects_a_scenario_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main(["liquidate", str(path)]) == 2
    assert "scenario file is not UTF-8 text" in capsys.readouterr().err


# Test id: (command, scenario text appended to MINIMAL, fragment of the error).
REJECTIONS = {
    "fee_interval": (
        "fee-threshold", "mode: attack\nattack:\n  fee_low: 0.003\n  fee_high: 0.001\n",
        "fee_low must be < fee_high"),
    "price_negative": (
        "sweep", "sweep:\n  axis: price\n  start: -100.0\n  stop: 2000.0\n  steps: 3\n",
        "price axis values must be > 0"),
    "price_zero": (
        "sweep", "sweep:\n  axis: price\n  start: 0.0\n  stop: 2000.0\n  steps: 3\n",
        "price axis values must be > 0"),
    "pool_scale_zero": (
        "sweep", "sweep:\n  axis: pool_scale\n  start: 1.0\n  stop: 0.0\n  steps: 3\n",
        "pool_scale axis values must be > 0"),
    "delta_negative": (
        "sweep", "mode: attack\nsweep:\n  axis: delta\n  start: -10.0\n  stop: 10.0\n  steps: 3\n",
        "delta axis values must be >= 0"),
    "delta_min_negative": (
        "sweep", "mode: attack\nsweep:\n  axis: price\n  start: 1400.0\n  stop: 2000.0\n"
        "  steps: 3\nattack:\n  delta_min: -5.0\n", "delta_min/delta_max must be >= 0"),
    "delta_max_negative": (
        "attack", "mode: attack\nattack:\n  delta_max: -1.0\n",
        "delta_min/delta_max must be >= 0"),
    "delta_min_nan": (
        "sweep", "mode: attack\nsweep:\n  axis: price\n  start: 1400.0\n  stop: 2000.0\n"
        "  steps: 3\nattack:\n  delta_min: .nan\n", "attack.delta_min: must be finite, got nan"),
    "delta_range_empty": (
        "attack", "mode: attack\nattack:\n  delta_min: 100.0\n  delta_max: 10.0\n",
        "delta_min must be <= delta_max"),
    "sweep_no_stop": (
        "sweep", "sweep:\n  axis: price\n  start: 1400.0\n  steps: 3\n", "sweep: missing stop"),
    "sweep_no_start": (
        "liquidate", "sweep:\n  axis: price\n  stop: 2000.0\n  steps: 3\n", "sweep: missing start"),
    "sweep_section_missing": ("sweep", "", "sweep: section required for the sweep command"),
}


@pytest.mark.parametrize("command, extra, fragment", REJECTIONS.values(), ids=REJECTIONS)
def test_cli_rejects_out_of_domain_config(tmp_path, capsys, command, extra, fragment):
    assert main([command, write(tmp_path, MINIMAL + extra)]) == 2
    assert fragment in capsys.readouterr().err


def test_cli_liquidate_and_attack_run(tmp_path, capsys):
    cfg_path = write(tmp_path, MINIMAL)
    assert main(["liquidate", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "total profit" in out and "bounds" in out

    attack_cfg = MINIMAL.replace("collateral: 5.5", "collateral: 6.5") + "\nmode: attack\n"
    code = main(["attack", write(tmp_path, attack_cfg, "atk.yaml")])
    assert code in (0, 3)


def test_cli_attack_range_above_search_ceiling(tmp_path, capsys):
    # The search ceiling of this state is about 1.9e5, far below delta_min.
    cfg = MINIMAL + "mode: attack\nattack:\n  delta_min: 1.0e+12\n"
    assert main(["attack", write(tmp_path, cfg)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1
    assert "delta range [1e+12, inf] lies above the search ceiling 190621" in out.err


def test_cli_attack_zero_delta_max_searches_only_zero(tmp_path, capsys):
    # The README pool without a fee: unclipped, the best attack is about 8.3e6.
    cfg = """
mode: attack
pool: {reserve_collateral: 10000.0, reserve_debt: 2.8e+7, fee: 0.0}
position: {debt: 32000.0, collateral: 20.12}
risk: {haircut: 0.85, bonus: 0.05, closing_factor: 0.8, max_liq_fraction: 0.5}
attack: {delta_max: 0.0}
"""
    assert main(["attack", write(tmp_path, cfg)]) == 3
    out = capsys.readouterr().out
    assert "best attack          delta=0\n" in out
    assert "no profitable attack size found" in out


# A debt-free position in a fee-free pool: the search ceiling is inf.
DEBT_FREE_NO_FEE = """
mode: attack
pool: {reserve_collateral: 10000.0, reserve_debt: 2.8e+7, fee: 0.0}
position: {debt: 0.0, collateral: 20.12}
risk: {haircut: 0.85, bonus: 0.05, closing_factor: 0.8, max_liq_fraction: 0.5}
"""


def test_cli_attack_debt_free_position_in_fee_free_pool_exits_3(tmp_path, capsys):
    assert main(["attack", write(tmp_path, DEBT_FREE_NO_FEE)]) == 3
    out = capsys.readouterr().out
    assert "search               [0, inf] coarse points=0\n" in out
    assert "best attack          delta=0\n" in out
    assert "no profitable attack size found" in out


def test_cli_fee_threshold_debt_free_position_exits_3(tmp_path, capsys):
    assert main(["fee-threshold", write(tmp_path, DEBT_FREE_NO_FEE)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "no threshold: attack is not profitable at the low end of the interval" in err


def test_cli_attack_search_line_starts_at_delta_min(tmp_path, capsys):
    cfg = """
mode: attack
pool: {reserve_collateral: 10000.0, reserve_debt: 2.8e+7, fee: 0.0}
position: {debt: 32000.0, collateral: 20.12}
risk: {haircut: 0.85, bonus: 0.05, closing_factor: 0.8, max_liq_fraction: 0.5}
attack: {delta_min: 5000.0}
"""
    assert main(["attack", write(tmp_path, cfg)]) == 0
    assert "search               [5000, 8.32333e+06] coarse points=512\n" in capsys.readouterr().out


@pytest.mark.usefixtures("broken_health_factor_check")
def test_cli_attack_recovery_root_error_exits_5(tmp_path, capsys):
    # test_batch.py's SHORT_OF_WINDOW state, whose recovery root passes its
    # self-check unless the health factor the check evaluates is broken.
    cfg = """
mode: attack
pool: {reserve_collateral: 3.458330422621055, reserve_debt: 0.12771808493794157,
       fee: 0.0010974388239558678}
position: {collateral: 8.331745663884487e-07, debt: 2.885445894891363e-08}
risk: {haircut: 0.6099749591202599, bonus: 0.0663722135511839, closing_factor: 0.7986954779277954,
       max_liq_fraction: 0.4947399655985014}
"""
    assert main(["attack", write(tmp_path, cfg)]) == 5
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "Traceback" not in out.err
    assert out.err.startswith("attack: recovery-bound root failed its self-check: residual=")
    assert "LoanPosition(collateral=8.331745663884487e-07" in out.err


# The liquidation sale of a debt of 3e143 into a pool of 8e-85 collateral and
# 2e-135 debt asset leaves a debt reserve of exactly 0.
RESERVE_UNDERFLOW = """
mode: attack
convention: execution_per_bonus
pool: {reserve_collateral: 8.376768473521796e-85, reserve_debt: 1.741852207761701e-135, fee: 0.0}
position: {debt: 3.1079094409569596e+143, initial_health_factor: 0.0006158444937192295}
risk: {haircut: 0.2197507022640751, bonus: 0.37563875698734817,
       closing_factor: 0.6843701205367683, max_liq_fraction: 0.2400993706964124}
"""


@pytest.mark.parametrize("command", ["liquidate", "attack"])
def test_cli_reserve_underflow_exits_6(tmp_path, capsys, command):
    assert main([command, write(tmp_path, RESERVE_UNDERFLOW)]) == 6
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{command}: reserve underflow: reserve_debt must be > 0, got 0.0\n"


def test_cli_verify_report_path_checked_before_the_suites(tmp_path, capsys, monkeypatch):
    from oevsim import oracles

    def not_called(**kwargs):
        raise AssertionError("verification_report ran before the report path was checked")

    monkeypatch.setattr(oracles, "verification_report", not_called)
    target = str(tmp_path / "missing" / "r.jsonl")
    assert main(["verify", "--instances", "1", "--report", target]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and target in err


@pytest.mark.parametrize("command", [
    ["sweep", "CONFIG", "--out"], ["reproduce", "ex1", "--out"],
    ["verify", "--instances", "1", "--grid-n", "50", "--report"],
], ids=["sweep", "reproduce", "verify"])
def test_cli_output_in_missing_directory(tmp_path, capsys, command):
    target = str(tmp_path / "missing" / "out.txt")
    cfg = write(tmp_path, MINIMAL + "sweep: {axis: price, start: 1400.0, stop: 2000.0, steps: 3}\n")
    argv = [cfg if arg == "CONFIG" else arg for arg in command]
    assert main([*argv, target]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert target in err and "No such file or directory" in err
    assert "config not found" not in err


BUNDLED_ATTACK = (Path(__file__).resolve().parent.parent / "scenarios"
                  / "attack_delta_sweep.yaml").read_text()
# Test id: (scenario text, whether the fee profile is non-monotone, fragment of the error).
NO_THRESHOLD = {
    # Interval entirely above bonus parity: liquidation never profitable.
    "above_parity": (MINIMAL + "mode: attack\nattack:\n  fee_low: 0.08\n  fee_high: 0.09\n",
                     False, "not profitable at the low end"),
    # g(0.0005) is about 22277: the attack still pays at the high end.
    "profitable_at_high_end": (BUNDLED_ATTACK.replace("fee_high: 0.003", "fee_high: 0.0005"),
                               False, "still profitable at the high end"),
    "non_monotone": (BUNDLED_ATTACK, True, "recovered after turning non-positive"),
}


@pytest.mark.parametrize("text, non_monotone, fragment", NO_THRESHOLD.values(), ids=NO_THRESHOLD)
def test_cli_fee_threshold_no_threshold_exit(tmp_path, capsys, request, text, non_monotone,
                                             fragment):
    if non_monotone:
        request.getfixturevalue("non_monotone_fee_profile")
    assert main(["fee-threshold", write(tmp_path, text, "thr.yaml")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("no threshold: ") and fragment in err


def test_cli_reproduce_writes_csv(tmp_path):
    out = tmp_path / "ex3.csv"
    assert main(["reproduce", "ex3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,hf0,pi_liq,pi_last,pi_tot,binding,binding_txn"
    assert len(lines) == 282


def test_cli_verify_small_run(tmp_path, capsys, monkeypatch):
    report = tmp_path / "report.jsonl"
    code = main(["verify", "--instances", "4", "--seed", "3", "--report", str(report)])
    assert code == 0
    assert "verification passed" in capsys.readouterr().out
    assert report.exists() and len(report.read_text().strip().splitlines()) >= 8
    # One failing record fails the run: exit 4.
    from oevsim import oracles

    monkeypatch.setattr(oracles, "verification_report",
                        lambda **kwargs: [{"check": "engine_vs_dp", "passed": False}])
    assert main(["verify", "--instances", "1"]) == 4
    out = capsys.readouterr()
    assert "engine_vs_dp" in out.out and "0/1 passed" in out.out
    assert out.err == "verification FAILED: 1 checks\n"


@pytest.mark.parametrize("extra", [["--instances", "0"], ["--instances", "-2"],
                                   ["--grid-n", "1"]])
def test_cli_verify_rejects_out_of_domain_arguments(capsys, extra):
    assert main(["verify", *extra]) == 2
    out = capsys.readouterr()
    assert "verification passed" not in out.out
    assert out.err.count("\n") == 1 and "--instances >= 1 and --grid-n >= 2" in out.err


def test_number_formatting_uses_12_significant_digits():
    assert _fmt(1234.56789012345) == "1234.56789012"
    assert _fmt(math.inf) == "inf"
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(math.nan) == _fmt(-math.nan) == "nan"
    assert _fmt(True) == "true"
    assert _fmt(None) == ""


def csv_writer_reference(header: list[str], columns: list[list]) -> str:
    """What csv.writer writes for the rows of ``columns``, each cell formatted by _fmt."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([_fmt(v) for v in row])
    return out.getvalue()


def test_write_csv_matches_the_csv_writer_reference(tmp_path, capsys):
    rng = random.Random(7)
    n = 1200
    block = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308) for _ in range(n)]
    edges = [math.inf, -math.inf, math.nan, -math.nan, -0.0, 0.0, 5e-324, 1e-5, 1e16,
             123456789012.5, 0.1 + 0.2]
    header = ["axis", "value", "cost", "feasible", "binding", "count", "mixed", "edge", "empty"]
    columns = [
        ["price"] * n,
        block,
        [None if i % 7 == 0 else v for i, v in enumerate(block)],
        [i % 3 == 0 for i in range(n)],
        [("none", "kappa_cap", "interior_max")[i % 3] for i in range(n)],
        [10 ** (i % 20) - i for i in range(n)],
        [i if i % 2 else float(i) * 1e-3 for i in range(n)],
        [edges[i % len(edges)] for i in range(n)],
        [None] * n,
    ]
    want = csv_writer_reference(header, columns)
    assert {"inf", "-inf", "nan", "-0", ""} <= set(want.replace("\n", ",").split(","))

    out = tmp_path / "table.csv"
    _write_csv(header, columns, str(out))
    assert out.read_bytes() == want.encode()
    _write_csv(header, columns, None)
    assert capsys.readouterr().out == want


def edit(old, new):
    """MINIMAL with one substring replaced."""
    assert old in MINIMAL
    return MINIMAL.replace(old, new)


POOL_KP = edit("  reserve_collateral: 1000.0\n  reserve_debt: 2.0e6\n",
               "  liquidity: 2.0e9\n  price: 2000.0\n")
SWEEP_EXTRA = "sweep:\n  axis: price\n  start: 1400.0\n  stop: 2000.0\n  steps: 3\n"
# A valid file but for the repeat; YAML alone would keep the last value, 0.9.
REPEATED_FEE = edit("  fee: 0.003\n", "  fee: 0.0\n  fee: 0.9\n")
# A YAML 1.1 merge key whose bonus the section overrides: valid, bonus 0.06.
RISK_BLOCK = "risk:\n  haircut: 0.85\n  bonus: 0.05\n  closing_factor: 0.8\n  max_liq_fraction: 0.5\n"
MERGED_RISK = edit(RISK_BLOCK, "risk: {<<: {haircut: 0.85, bonus: 0.05, closing_factor: 0.8, "
                               "max_liq_fraction: 0.5}, bonus: 0.06}\n")
# The section's own bonus given twice beside the merge key: one repeat.
MERGED_REPEAT = MERGED_RISK.replace("bonus: 0.06}", "bonus: 0.06, bonus: 0.07}")


@pytest.mark.parametrize("text, fragment", [
    (edit(RISK_BLOCK, "risk: [0.85, 0.05]\n"), "risk: expected a mapping, got list"),
    (edit("  bonus: 0.05\n", "  bonus: 0.05\n  penalty: 0.1\n"), "risk: unknown key 'penalty'"),
    (edit("reserve_debt: 2.0e6", "reserve_debt: lots"),
     "pool.reserve_debt: expected a number, got 'lots'"),
    (edit("debt: 10000.0", "debt: true"), "position.debt: expected a number, got True"),
    (MINIMAL + SWEEP_EXTRA.replace("steps: 3", "steps: 2.5"),
     "sweep.steps: expected an integer, got 2.5"),
    (MINIMAL + SWEEP_EXTRA.replace("axis: price", "axis: 7"),
     "sweep.axis: expected a string, got 7"),
    ("- pool\n- risk\n", "top level must be a mapping"),
    ("pool: {fee: 0.0\n", "YAML parse error"),
    (edit("  fee: 0.003\n", "  fee: 0.003\n  price: 2000.0\n"),
     "give either reserve_collateral/reserve_debt or liquidity/price, not both"),
    (edit("  reserve_debt: 2.0e6\n", ""),
     "reserve_collateral and reserve_debt must be given together"),
    (POOL_KP.replace("  price: 2000.0\n", ""), "liquidity and price must be given together"),
    (POOL_KP.replace("liquidity: 2.0e9", "liquidity: 0.0"), "liquidity and price must be > 0"),
    (POOL_KP.replace("price: 2000.0", "price: -2000.0"), "liquidity and price must be > 0"),
    (edit("  fee: 0.003\n", "  fee: 0.003\n  scale: 0.0\n"), "pool.scale: must be > 0"),
    (edit("debt: 10000.0", "debt: -1.0"), "position.debt: must be >= 0"),
    (edit("  debt: 10000.0\n", ""), "position: missing debt"),
    (edit("collateral: 5.5", "collateral: -5.5"), "position.collateral: must be >= 0"),
    (edit("collateral: 5.5", "initial_health_factor: -0.5"),
     "position.initial_health_factor: must be >= 0"),
    (edit("  bonus: 0.05\n", ""), "risk: missing bonus"),
    (edit("haircut: 0.85", "haircut: 1.5"), "risk: haircut must lie in (0, 1]"),
    (MINIMAL + SWEEP_EXTRA + "  spacing: cubic\n", "sweep.spacing: must be 'linear' or 'log'"),
    (MINIMAL + SWEEP_EXTRA.replace("start: 1400.0", "start: 0.0") + "  spacing: log\n",
     "sweep: log spacing needs positive start/stop"),
    (MINIMAL + "sweep: {axis: fee, start: 0.0, stop: 1.0, steps: 3}\n",
     "sweep: fee axis values must lie in [0, 1)"),
    (MINIMAL + "sweep: {axis: fee, start: -0.1, stop: 0.5, steps: 3}\n",
     "sweep: fee axis values must lie in [0, 1)"),
    (MINIMAL + "attack:\n  fee_high: 1.0\n", "attack: fee_low/fee_high must lie in [0, 1)"),
    (MINIMAL + "attack:\n  fee_low: -0.001\n", "attack: fee_low/fee_high must lie in [0, 1)"),
    (MINIMAL + "attack:\n  fee_high: .nan\n", "attack.fee_high: must be finite, got nan"),
    (POOL_KP.replace("liquidity: 2.0e9", "liquidity: 1.0e-300")
     .replace("price: 2000.0", "price: 1.0e+300"),
     "scenario: derived state out of domain: reserve_collateral must be > 0"),
    (edit("reserve_collateral: 1000.0", "reserve_collateral: 1.0e+300")
     .replace("reserve_debt: 2.0e6", "reserve_debt: 1.0e+300") + SWEEP_EXTRA,
     "scenario: derived state out of domain: LoanPosition(collateral=5.5,"),
    (edit("reserve_collateral: 1000.0", "reserve_collateral: 3.0e+305")
     .replace("reserve_debt: 2.0e6", "reserve_debt: 3.0e+305")
     .replace("debt: 10000.0", "debt: 1.0e+10").replace("collateral: 5.5", "collateral: 1.0e+10"),
     "scenario: derived state out of domain: reserve product of PoolState("),
    (edit("reserve_collateral: 1000.0", "reserve_collateral: 1.0e+100")
     .replace("reserve_debt: 2.0e6", "reserve_debt: 1.0e+200")
     .replace("debt: 10000.0", "debt: 1.0e+300").replace("collateral: 5.5", "collateral: 1.0e+200"),
     "scenario: derived state out of domain: health factor of LoanPosition("),
    (MINIMAL + "convention: midpoint\n", "convention: must be one of"),
    (REPEATED_FEE, "  - pool: duplicate key 'fee'\n"),
    (MERGED_REPEAT, "invalid scenario config:\n  - risk: duplicate key 'bonus'\n"),
], ids=["section_not_mapping", "unknown_section_key", "number_type", "bool_not_number",
        "integer_type", "string_type", "top_level_not_mapping", "yaml_syntax", "both_pool_forms",
        "half_reserves", "half_liquidity_price", "liquidity_zero", "price_negative",
        "scale_zero", "debt_negative", "debt_missing", "collateral_negative", "hf_negative",
        "risk_key_missing", "risk_params_rejected", "bad_spacing", "log_start_zero",
        "fee_axis_stop_one", "fee_axis_start_negative", "fee_high_one", "fee_low_negative",
        "fee_high_nan", "reserve_underflow", "reserve_overflow", "reserve_product_overflow",
        "health_factor_nan", "bad_convention", "repeated_key", "repeated_key_beside_merge"])
def test_cli_rejects_every_config_problem(tmp_path, capsys, text, fragment):
    assert main(["liquidate", write(tmp_path, text)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert fragment in out.err


@pytest.mark.parametrize("command, text, fragment", [
    ("liquidate", edit("reserve_collateral: 1000.0", "reserve_collateral: .nan"),
     "pool.reserve_collateral: must be finite, got nan"),
    ("liquidate", edit("reserve_debt: 2.0e6", "reserve_debt: .inf"),
     "pool.reserve_debt: must be finite, got inf"),
    ("liquidate", edit("  fee: 0.003\n", "  fee: 0.003\n  scale: .nan\n"),
     "pool.scale: must be finite, got nan"),
    ("liquidate", edit("debt: 10000.0", "debt: .nan"), "position.debt: must be finite, got nan"),
    ("liquidate", edit("debt: 10000.0", "debt: .inf"), "position.debt: must be finite, got inf"),
    ("liquidate", edit("collateral: 5.5", "collateral: .nan"),
     "position.collateral: must be finite, got nan"),
    ("liquidate", edit("collateral: 5.5", "initial_health_factor: .nan"),
     "position.initial_health_factor: must be finite, got nan"),
    ("liquidate", edit("bonus: 0.05", "bonus: .nan"), "risk.bonus: must be finite, got nan"),
    ("liquidate", MINIMAL + SWEEP_EXTRA.replace("stop: 2000.0", "stop: .inf"),
     "sweep.stop: must be finite, got inf"),
    ("sweep", MINIMAL + SWEEP_EXTRA.replace("start: 1400.0", "start: -.inf"),
     "sweep.start: must be finite, got -inf"),
    ("attack", MINIMAL + "mode: attack\nattack:\n  delta_min: .inf\n",
     "attack.delta_min: must be finite, got inf"),
    ("liquidate", edit("fee: 0.003", "fee: .nan"), "pool.fee: must be finite, got nan"),
    ("fee-threshold", MINIMAL + "mode: attack\nattack:\n  fee_low: .nan\n",
     "attack.fee_low: must be finite, got nan"),
    ("fee-threshold", MINIMAL + "mode: attack\nattack:\n  fee_high: .inf\n",
     "attack.fee_high: must be finite, got inf"),
    ("attack", MINIMAL + "mode: attack\nattack:\n  delta_min: .nan\n",
     "attack.delta_min: must be finite, got nan"),
    ("attack", MINIMAL + "mode: attack\nattack:\n  delta_max: .nan\n",
     "attack.delta_max: must be finite, got nan"),
], ids=["reserve_collateral_nan", "reserve_debt_inf", "scale_nan", "debt_nan", "debt_inf",
        "collateral_nan", "hf_nan", "bonus_nan", "sweep_stop_inf", "sweep_start_neg_inf",
        "delta_min_inf", "fee_nan", "fee_low_nan", "fee_high_inf", "delta_min_nan",
        "delta_max_nan"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, command, text, fragment):
    assert main([command, write(tmp_path, text)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"invalid scenario config:\n  - {fragment}\n"


def test_attack_delta_max_may_be_infinite(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL + "attack:\n  delta_max: .inf\n"))
    assert cfg.attack.delta_max == math.inf


# Sweeps to the float below 1.0 whose last computed point rounds up to 1.0.
@pytest.mark.parametrize("steps, spacing, start", [
    (4, "linear", 0.0), (7, "linear", 0.0), (8, "linear", 0.0),
    (5, "log", 1.0e-4), (6, "log", 1.0e-4),
])
def test_cli_rejects_fee_sweep_rounding_up_to_one(tmp_path, capsys, steps, spacing, start):
    text = MINIMAL + (f"sweep: {{axis: fee, start: {start!r}, stop: 0.9999999999999999, "
                      f"steps: {steps}, spacing: {spacing}}}\n")
    assert main(["sweep", write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        "invalid scenario config:\n  - sweep: fee axis values must lie in [0, 1)\n")


SWEEP_RANGES = {"price": (1.0, 1e4), "pool_scale": (0.1, 10.0), "delta": (0.0, 1e6),
                "fee": (0.0, 0.1)}
VALID_SCENARIOS = st.fixed_dictionaries({
    "mode": st.sampled_from(["liquidation", "attack"]),
    "pool": st.one_of(
        st.fixed_dictionaries({"reserve_collateral": st.floats(1.0, 1e6),
                               "reserve_debt": st.floats(1.0, 1e9)},
                              optional={"fee": st.floats(0.0, 0.1), "scale": st.floats(0.1, 10.0)}),
        st.fixed_dictionaries({"liquidity": st.floats(1.0, 1e12), "price": st.floats(1.0, 1e4)},
                              optional={"fee": st.floats(0.0, 0.1), "scale": st.floats(0.1, 10.0)}),
    ),
    "position": st.one_of(
        st.fixed_dictionaries({"debt": st.floats(0.0, 1e6), "collateral": st.floats(0.0, 1e3)}),
        st.fixed_dictionaries({"debt": st.floats(0.0, 1e6),
                               "initial_health_factor": st.floats(0.0, 2.0)}),
    ),
    "risk": st.fixed_dictionaries({"haircut": st.floats(0.01, 1.0), "bonus": st.floats(0.0, 0.2),
                                   "closing_factor": st.floats(0.01, 1.0),
                                   "max_liq_fraction": st.floats(0.01, 1.0)}),
}, optional={
    "sweep": st.sampled_from(SWEEP_AXES).flatmap(lambda axis: st.fixed_dictionaries({
        "axis": st.just(axis), "start": st.floats(*SWEEP_RANGES[axis]),
        "stop": st.floats(*SWEEP_RANGES[axis]), "steps": st.integers(1, 50),
        "spacing": st.sampled_from(["linear", "log"]),
    })),
})
ODD_NUMBERS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -1.0, 5e-324, 1e-300, 1e300, math.nan, math.inf, -math.inf]))


@st.composite
def scenarios(draw):
    """A valid-looking scenario with up to two numbers made extreme or out of domain."""
    doc = draw(VALID_SCENARIOS)
    slots = [(name, key) for name, section in doc.items() if isinstance(section, dict)
             for key, value in section.items() if isinstance(value, float)]
    for name, key in draw(st.lists(st.sampled_from(slots), max_size=2)):
        doc[name][key] = draw(ODD_NUMBERS)
    return doc


RISK = {"haircut": 0.85, "bonus": 0.05, "closing_factor": 0.8, "max_liq_fraction": 0.5}


@settings(max_examples=200, deadline=None)
@given(scenarios())
# A valid state whose reserve_collateral * debt overflows: every health factor is 0.
@example({"pool": {"reserve_collateral": 1e300, "reserve_debt": 1e-10},
          "position": {"debt": 1e10, "collateral": 0.0}, "risk": RISK,
          "sweep": {"axis": "pool_scale", "start": 1.0, "stop": 2.0, "steps": 2}})
# Finite inputs whose reserve underflows to 0, at the base point and at a sweep end.
@example({"pool": {"liquidity": 1e-300, "price": 1e300},
          "position": {"debt": 1.0, "collateral": 1.0}, "risk": RISK})
@example({"pool": {"reserve_collateral": 1e-200, "reserve_debt": 1.0},
          "position": {"debt": 1.0, "collateral": 1.0}, "risk": RISK,
          "sweep": {"axis": "pool_scale", "start": 1.0, "stop": 1e-200, "steps": 3}})
def test_parse_config_accepts_only_constructible_states(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    health_factor(*cfg.state_at(), cfg.risk.haircut)  # raises where it is undefined
    if cfg.sweep is not None:
        c, d, a, b, g = cfg.columns(cfg.sweep.values())
        assert np.isfinite([c, d, a, b, g]).all()
        assert (c >= 0.0).all() and (d >= 0.0).all() and (a > 0.0).all() and (b > 0.0).all()
        assert ((0.0 <= g) & (g < 1.0)).all()
        with np.errstate(over="ignore"):  # a * d may overflow to inf, which is > 0
            assert ((d == 0.0) | (a * d > 0.0)).all()  # every health factor is defined


# A sweep end whose derived reserve underflows to 0 or overflows to inf.
# Each document and the error its first out-of-domain state reports.
OUT_OF_DOMAIN_ENDS = {
    "underflow": ({"pool": {"reserve_collateral": 1e-200, "reserve_debt": 1.0},
                   "sweep": {"axis": "pool_scale", "start": 1.0, "stop": 1e-200, "steps": 3,
                             "spacing": "log"}},
                  "reserve_collateral must be > 0, got 0.0"),
    "overflow": ({"pool": {"reserve_collateral": 1000.0, "reserve_debt": 2e6},
                  "sweep": {"axis": "price", "start": 1.0, "stop": 1e308, "steps": 3}},
                 "reserve_debt=inf, fee=0.0) is not finite"),
    # The base state alone: reserve_debt * scale underflows to 0, and the
    # collateral derived from it divides by that 0.
    "base_underflow": ({"pool": {"reserve_collateral": 1.0, "reserve_debt": 1e-200,
                                 "scale": 1e-200}},
                       "reserve_debt must be > 0, got 0.0"),
}


@pytest.mark.parametrize("position", [{"debt": 1.0, "collateral": 1.0},
                                      {"debt": 1.0, "initial_health_factor": 0.9}],
                         ids=["collateral", "initial_health_factor"])
@pytest.mark.parametrize("end", OUT_OF_DOMAIN_ENDS)
def test_cli_rejects_a_derived_state_out_of_domain(tmp_path, capsys, end, position):
    doc, reason = OUT_OF_DOMAIN_ENDS[end]
    doc = {**doc, "position": position, "risk": RISK}
    assert main(["sweep", write(tmp_path, yaml.safe_dump(doc))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario config:\n  - scenario: derived state out of domain: ")
    assert err.endswith(reason + "\n")
    assert err.count("\n") == 2


# reserve_collateral * debt underflows to 0 at the base state: no health factor.
UNDEFINED_HEALTH_FACTOR = {"pool": {"reserve_collateral": 1e-200, "reserve_debt": 1.0},
                           "position": {"debt": 1e-200, "collateral": 1.0}, "risk": RISK}


@pytest.mark.parametrize("command", ["liquidate", "attack", "sweep"])
def test_cli_rejects_an_undefined_health_factor(tmp_path, capsys, command):
    assert main([command, write(tmp_path, yaml.safe_dump(UNDEFINED_HEALTH_FACTOR))]) == 2
    assert capsys.readouterr().err == (
        "invalid scenario config:\n  - scenario: derived state out of domain: health factor "
        "undefined: reserve_collateral * debt underflows to 0 (1e-200 * 1e-200)\n")


def test_cli_liquidates_where_the_price_square_overflows(tmp_path, capsys):
    # The recovery bound's (A + x*u)**2 overflows; the price divides by A + x*u twice.
    doc = {"pool": {"reserve_collateral": 1e160, "reserve_debt": 1e-100, "fee": 0.003},
           "position": {"debt": 1e-120, "collateral": 0.9 * 1e-120 * 1e160 / (0.85 * 1e-100)},
           "risk": RISK}
    assert main(["liquidate", write(tmp_path, yaml.safe_dump(doc))]) == 0
    captured = capsys.readouterr()
    assert "total profit         4.52157e-122\n" in captured.out and captured.err == ""


def test_cli_attack_on_a_subnormal_debt_finds_nothing(tmp_path, capsys):
    # The bad-debt cap's denominator underflows to 0: the cap is +inf.
    doc = {"pool": {"reserve_collateral": 1.0, "reserve_debt": 1.0, "fee": 0.5},
           "position": {"debt": 5e-324, "collateral": 1.0}, "risk": RISK}
    assert main(["attack", write(tmp_path, yaml.safe_dump(doc))]) == 3
    captured = capsys.readouterr()
    assert "baddebt_cap=inf" in captured.out
    assert captured.out.endswith("no profitable attack size found\n") and captured.err == ""


SCENARIO_FILES = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))
# Every bundled scenario, the CLI rejection table and YAML 1.1 scalars that
# the resolver types: exponents without a sign, sexagesimals, hex, booleans.
LOADER_TEXTS = [path.read_text() for path in SCENARIO_FILES] + [
    MINIMAL + extra for _, extra, _ in REJECTIONS.values()] + [
    MINIMAL.replace("fee: 0.003", "fee: 3e-3").replace("debt: 10000.0", "debt: 1e4"),
    MINIMAL.replace("debt: 10000.0", "debt: 1_000"),
    MINIMAL.replace("debt: 10000.0", "debt: 0x10"),
    MINIMAL.replace("debt: 10000.0", "debt: 1:30"),
    MINIMAL.replace("collateral: 5.5", "collateral: yes"),
    MINIMAL + "mode: ~\n",
    MERGED_RISK,
    "",
]


def outcome(load):
    try:
        return load()
    except ConfigError as exc:
        return exc.problems


@pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
def test_both_yaml_loaders_give_the_pure_python_result(tmp_path, monkeypatch, libyaml):
    if libyaml and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert SCENARIO_FILES
    for text in LOADER_TEXTS:
        path = write(tmp_path, text)
        want = outcome(lambda: parse_config(yaml.safe_load(text) or {}))
        assert outcome(lambda: load_config(path)) == want, text

    malformed = write(tmp_path, MINIMAL + "sweep: {axis: price, start: [1.0\n")
    with pytest.raises(ConfigError) as err:
        load_config(malformed)
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith("YAML parse error: ")
    assert main(["sweep", malformed]) == 2

    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, REPEATED_FEE))
    assert err.value.problems == ["pool: duplicate key 'fee'"]

    # A key that overrides a merged one is no repeat; a key given twice beside
    # the merge key, or inside the merged mapping, is one.
    assert load_config(write(tmp_path, MERGED_RISK)).risk.bonus == 0.06
    for text in (MERGED_REPEAT, MERGED_RISK.replace("bonus: 0.05,", "bonus: 0.05, bonus: 0.04,")):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert err.value.problems == ["risk: duplicate key 'bonus'"]
