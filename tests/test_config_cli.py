"""Scenario-file validation, CSV contracts, CLI exit codes."""

import math

import pytest

from oevsim import ConfigError, load_config
from oevsim.cli import REPRODUCERS, main, run_sweep
from oevsim.config import parse_config
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
    assert pool.invariant() == pytest.approx(2e9, rel=1e-9)
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
    header1, rows1 = run_sweep(cfg)
    header2, rows2 = run_sweep(cfg)
    assert len(rows1) == 7
    assert header1 == header2 and rows1 == rows2


def test_single_point_sweep_matches_direct_call(tmp_path):
    single = SWEEP.replace("steps: 7", "steps: 1")
    cfg = load_config(write(tmp_path, single))
    _, rows = run_sweep(cfg)
    position, pool = cfg.state_at(price=1400.0)
    res, strat = best_strategy(position, pool, cfg.risk)
    assert rows == [["price", 1400.0, res.hf_initial, res.pi_liq, res.pi_last, res.pi_tot,
                     res.binding.value, res.last_binding.value, strat.value, res.bad_debt]]
    assert [type(v) for v in rows[0]] == [str, float, float, float, float, float, str, str, str,
                                          float]


def test_ex1_header_and_shape_golden():
    header, rows = REPRODUCERS["ex1"]()
    assert header == ["s", "profit_cf_full", "profit_one_kappa"]
    assert all(len(r) == 3 for r in rows)
    assert len(rows) == 121


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


@pytest.mark.parametrize("command, extra, fragment", [
    ("fee-threshold", "mode: attack\nattack:\n  fee_low: 0.003\n  fee_high: 0.001\n",
     "fee_low must be < fee_high"),
    ("sweep", "sweep:\n  axis: price\n  start: -100.0\n  stop: 2000.0\n  steps: 3\n",
     "price axis values must be > 0"),
    ("sweep", "sweep:\n  axis: price\n  start: 0.0\n  stop: 2000.0\n  steps: 3\n",
     "price axis values must be > 0"),
    ("sweep", "sweep:\n  axis: pool_scale\n  start: 1.0\n  stop: 0.0\n  steps: 3\n",
     "pool_scale axis values must be > 0"),
    ("sweep", "mode: attack\nsweep:\n  axis: delta\n  start: -10.0\n  stop: 10.0\n  steps: 3\n",
     "delta axis values must be >= 0"),
    ("sweep", "mode: attack\nsweep:\n  axis: price\n  start: 1400.0\n  stop: 2000.0\n"
     "  steps: 3\nattack:\n  delta_min: -5.0\n", "delta_min/delta_max must be >= 0"),
    ("attack", "mode: attack\nattack:\n  delta_max: -1.0\n", "delta_min/delta_max must be >= 0"),
    ("sweep", "mode: attack\nsweep:\n  axis: price\n  start: 1400.0\n  stop: 2000.0\n"
     "  steps: 3\nattack:\n  delta_min: .nan\n", "delta_min/delta_max must be >= 0"),
    ("attack", "mode: attack\nattack:\n  delta_min: 100.0\n  delta_max: 10.0\n",
     "delta_min must be <= delta_max"),
    ("sweep", "sweep:\n  axis: price\n  start: 1400.0\n  steps: 3\n", "sweep: missing stop"),
    ("liquidate", "sweep:\n  axis: price\n  stop: 2000.0\n  steps: 3\n",
     "sweep: missing start"),
], ids=["fee_interval", "price_negative", "price_zero", "pool_scale_zero", "delta_negative",
        "delta_min_negative", "delta_max_negative", "delta_min_nan", "delta_range_empty",
        "sweep_no_stop", "sweep_no_start"])
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


def test_cli_attack_recovery_root_error_exits_5(tmp_path, capsys):
    # The cause-B state of test_attack.py's strict xfail: the golden-section
    # search meets a recovery root that fails its self-check.
    cfg = """
mode: attack
pool: {reserve_collateral: 48.579849532452165, reserve_debt: 2.506480705390799, fee: 1.0e-4}
position: {collateral: 0.009783424003038013, debt: 0.0001522178433067494}
risk: {haircut: 0.5521458022613934, bonus: 0.01, closing_factor: 0.8520760834790868,
       max_liq_fraction: 0.4688723566652169}
"""
    assert main(["attack", write(tmp_path, cfg)]) == 5
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "Traceback" not in out.err
    assert out.err.startswith("attack: recovery-bound root failed its self-check: residual=")
    assert "LoanPosition(collateral=0.009783424003038013" in out.err


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


def test_cli_fee_threshold_no_threshold_exit(tmp_path, capsys):
    # Interval entirely above bonus parity: liquidation never profitable.
    cfg = MINIMAL + """
mode: attack
attack:
  fee_low: 0.08
  fee_high: 0.09
"""
    assert main(["fee-threshold", write(tmp_path, cfg, "thr.yaml")]) == 3
    assert "no threshold" in capsys.readouterr().err


def test_cli_reproduce_writes_csv(tmp_path):
    out = tmp_path / "ex3.csv"
    assert main(["reproduce", "ex3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,hf0,pi_liq,pi_last,pi_tot,binding,binding_txn"
    assert len(lines) == 282


def test_cli_verify_small_run(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code = main(["verify", "--instances", "4", "--seed", "3", "--report", str(report)])
    assert code == 0
    assert "verification passed" in capsys.readouterr().out
    assert report.exists() and len(report.read_text().strip().splitlines()) >= 8


@pytest.mark.parametrize("extra", [["--instances", "0"], ["--instances", "-2"],
                                   ["--grid-n", "1"]])
def test_cli_verify_rejects_out_of_domain_arguments(capsys, extra):
    assert main(["verify", *extra]) == 2
    out = capsys.readouterr()
    assert "verification passed" not in out.out
    assert out.err.count("\n") == 1 and "--instances >= 1 and --grid-n >= 2" in out.err


def test_number_formatting_uses_12_significant_digits():
    from oevsim.cli import _fmt

    assert _fmt(1234.56789012345) == "1234.56789012"
    assert _fmt(math.inf) == "inf"
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(math.nan) == _fmt(-math.nan) == "nan"
    assert _fmt(True) == "true"
    assert _fmt(None) == ""
