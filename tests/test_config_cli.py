"""Scenario-file validation, CSV contracts, CLI exit codes."""

import csv
import io
import math
import random
import runpy
import sys

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oevsim.attack
from oevsim import ConfigError, LoanPosition, PoolState, health_factor, load_config
from oevsim.cli import _fmt, _write_csv, main, run_sweep
from oevsim.config import SWEEP_AXES, parse_config
from oevsim.engine import best_strategy

from conftest import BUNDLED_ATTACK, NAMED_STATES, SCENARIOS, named_state

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


# Every named state and bundled scenario under each single-state command.
STATE_RUNS = [pytest.param(command, path, id=f"{command}-{path.stem}")
              for path in sorted(NAMED_STATES.glob("*.yaml")) + sorted(SCENARIOS.glob("*.yaml"))
              for command in ("liquidate", "attack", "fee-threshold")]
NOTHING_FOUND = ("best attack          delta=0", "no profitable attack size found")
LOW_END = "no threshold: attack is not profitable at the low end of the interval "
# (command, scenario): its exit code, whole lines its stdout holds and the start of its stderr.
EXIT_PINS = {
    ("liquidate", "liquidation_price_sweep"): (0, (), ""),
    ("attack", "above_ceiling"): (
        3, (), "attack: delta range [1e+12, inf] lies above the search ceiling 8.32333e+06\n"),
    # A debt-free position in a fee-free pool: the search ceiling is inf.
    ("attack", "debt_free_no_fee"): (
        3, ("search               [0, inf] coarse points=0", *NOTHING_FOUND), ""),
    ("fee-threshold", "debt_free_no_fee"): (3, (), LOW_END),
    ("attack", "delta_max_0"): (3, NOTHING_FOUND, ""),
    ("fee-threshold", "high_end"): (
        3, (), "no threshold: attack is still profitable at the high end of the interval "),
    # R1's recovery discriminant overflows: no recovery root, so the collateral bound binds.
    ("liquidate", "r1"): (
        0, ("marginal phase       x=1.62919e+06 profit=1.05699e-89 binding=collateral",), ""),
    ("attack", "r1"): (
        0, ("best attack          delta=0", "  total profit       1.05698558012e-89"), ""),
    ("fee-threshold", "r1"): (3, (), LOW_END),
    # R2's liquidation sale leaves a debt reserve of exactly 0.
    **{(command, "r2"): (6, (), f"{command}: reserve underflow: reserve_debt must be > 0, got 0.0\n")
       for command in ("liquidate", "attack")},
}


@pytest.mark.parametrize("command, path", STATE_RUNS)
def test_every_scenario_exits_with_a_documented_code(capsys, command, path):
    code = main([command, str(path)])
    out = capsys.readouterr()
    # 0 a result, 3 nothing found, 5 a failed root self-check, 6 a reserve underflow.
    assert code in (0, 3, 5, 6)
    # A run prints its result on stdout or one line on stderr, never both.
    assert out.err.count("\n") == (1 if out.out == "" else 0)
    want_code, lines, err = EXIT_PINS.get((command, path.stem), (code, (), ""))
    assert code == want_code
    assert set(lines) <= set(out.out.splitlines()) and out.err.startswith(err)


ATTACK_SWEEP = BUNDLED_ATTACK.read_text()


@pytest.fixture
def no_bounds_after_the_search(monkeypatch):
    """Make ``delta_bounds`` raise once ``optimize_attack`` has returned."""
    optimize_attack = oevsim.attack.optimize_attack

    def bounds_again(*args):
        raise AssertionError("delta_bounds called after the search")

    def search(*args, **kwargs):
        out = optimize_attack(*args, **kwargs)
        monkeypatch.setattr(oevsim.attack, "delta_bounds", bounds_again)
        return out

    monkeypatch.setattr(oevsim.attack, "optimize_attack", search)


ATTACK_STDOUT = {
    "bundled": (3, """\
delta bounds         trigger=2239.56 baddebt_cap=8.37353e+06 no_revert=3.34002e+06
search               [0, 3.34002e+06] coarse points=514
best attack          delta=0
  front proceeds     0
  liquidation profit 0
  buy-back cost      0
  total profit       0
  triggered=False feasible=True strategy=cf_full
no profitable attack size found
"""),
    "delta_min_5000": (0, """\
delta bounds         trigger=2232.85 baddebt_cap=8.32333e+06 no_revert=inf
search               [5000, 8.32333e+06] coarse points=512
best attack          delta=8.32333e+06
  front proceeds     2.79664e+07
  liquidation profit 0.00386303
  buy-back cost      27910177.2015
  total profit       56222.802306
  triggered=True feasible=True strategy=cf_full
"""),
    "zero_width_5000": (0, """\
delta bounds         trigger=2232.85 baddebt_cap=8.32333e+06 no_revert=inf
search               [5000, 5000] coarse points=1
best attack          delta=5000
  front proceeds     9.33333e+06
  liquidation profit 1190.7
  buy-back cost      9302115.13637
  total profit       32408.8961302
  triggered=True feasible=True strategy=cf_full
"""),
}


@pytest.mark.usefixtures("no_bounds_after_the_search")
@pytest.mark.parametrize("scenario", sorted(ATTACK_STDOUT))
def test_cli_attack_prints_the_bounds_of_its_search(capsys, scenario):
    code, stdout = ATTACK_STDOUT[scenario]
    path = BUNDLED_ATTACK if scenario == "bundled" else named_state(scenario)[0]
    assert main(["attack", str(path)]) == code
    assert capsys.readouterr() == (stdout, "")


@pytest.mark.usefixtures("broken_health_factor_check")
def test_cli_attack_recovery_root_error_exits_5(capsys):
    # The short-of-window state, whose recovery root passes its self-check
    # unless the health factor the check evaluates is broken.
    path, (position, *_) = named_state("short_of_window")
    assert main(["attack", str(path)]) == 5
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "Traceback" not in out.err
    assert out.err.startswith("attack: recovery-bound root failed its self-check: residual=")
    assert f"LoanPosition(collateral={position.collateral!r}" in out.err


@pytest.mark.usefixtures("broken_polynomial_check")
def test_cli_liquidate_polynomial_self_check_error_exits_5(capsys):
    # The at-exhaustion state, whose recovery root sits at exhaustion.
    assert main(["liquidate", str(named_state("at_exhaustion")[0])]) == 5
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "Traceback" not in out.err
    assert out.err.startswith("liquidate: recovery-bound root failed its polynomial self-check")


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


# Test id: (scenario text, whether the fee profile is non-monotone, fragment of the error).
NO_THRESHOLD = {
    # Interval entirely above bonus parity: liquidation never profitable.
    "above_parity": (MINIMAL + "mode: attack\nattack:\n  fee_low: 0.08\n  fee_high: 0.09\n",
                     False, "not profitable at the low end"),
    "non_monotone": (ATTACK_SWEEP, True,
                     "recovered after turning non-positive [g(0)=1, g(0.0005)=1, g(0.001)=0, "),
}


@pytest.mark.parametrize("text, non_monotone, fragment", NO_THRESHOLD.values(), ids=NO_THRESHOLD)
def test_cli_fee_threshold_no_threshold_exit(tmp_path, capsys, request, text, non_monotone,
                                             fragment):
    if non_monotone:
        request.getfixturevalue("non_monotone_fee_profile")
    assert main(["fee-threshold", write(tmp_path, text, "thr.yaml")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("no threshold: ") and fragment in err


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


def test_python_m_oevsim_cli_exits_with_the_code_of_main(capsys, monkeypatch):
    # runpy warns that the module was imported before it runs as __main__.
    monkeypatch.setattr(sys, "argv", ["oevsim", "verify", "--instances", "0"])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
            pytest.raises(SystemExit) as exit_:
        runpy.run_module("oevsim.cli", run_name="__main__")
    assert exit_.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1


# 0, -0, both NaN signs, the smallest subnormal of each sign, the largest
# subnormal, and both infinities, spelled as format(v, ".12g") spells them.
FLOAT_EDGES = [(0.0, "0"), (-0.0, "-0"), (math.nan, "nan"), (-math.nan, "nan"),
               (5e-324, "4.94065645841e-324"), (-5e-324, "-4.94065645841e-324"),
               (2.225073858507201e-308, "2.22507385851e-308"),
               (math.inf, "inf"), (-math.inf, "-inf")]


def test_number_formatting_uses_12_significant_digits():
    assert _fmt(1234.56789012345) == "1234.56789012"
    assert [_fmt(v) for v, _ in FLOAT_EDGES] == [cell for _, cell in FLOAT_EDGES]
    assert _fmt(None) == ""


def reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else format(value, ".12g")


def csv_writer_reference(header: list[str], columns: list[list]) -> str:
    """What csv.writer writes for the rows of ``columns``: floats to 12 significant
    digits, bools as true/false, strings as they are, None empty."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow(map(reference_cell, row))
    return out.getvalue()


def test_write_csv_matches_the_csv_writer_reference(tmp_path, capsys):
    rng = random.Random(7)
    n = 1200
    block = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308) for _ in range(n)]
    edges = [math.inf, -math.inf, math.nan, -math.nan, -0.0, 0.0, 5e-324, 1e-5, 1e16,
             123456789012.5, 0.1 + 0.2]
    header = ["axis", "value", "cost", "feasible", "binding", "edge", "empty"]
    columns = [
        ["price"] * n,
        block,
        [None if i % 7 == 0 else v for i, v in enumerate(block)],
        [i % 3 == 0 for i in range(n)],
        [("none", "kappa_cap", "interior_max")[i % 3] for i in range(n)],
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


@pytest.mark.parametrize("header, columns", [
    # A "%" in a cell or a header is data: the template holds only its fields.
    (["share", "100%", "note"], [["100%", "%s", "%%", "%(x)s"], [0.5, 1.0, -2.0, 3.25],
                                 [None, 2.5, None, -0.0]]),
    (["x", "y"], [[1.5], ["one row"]]),
    (["x"], [[0.1, 2.0, -3.5e300]]),
    (["tag"], [["kappa_cap", "%s", "none"]]),
    (["x"], [[True]]),
    (["edge", "tag"], [[v for v, _ in FLOAT_EDGES], ["e%"] * len(FLOAT_EDGES)]),
], ids=["percent-cells", "one-row", "one-float-column", "one-string-column", "one-cell",
        "float-edges"])
def test_write_csv_template_edges_match_the_csv_writer_reference(tmp_path, capsys, header,
                                                                  columns):
    want = csv_writer_reference(header, columns)
    out = tmp_path / "table.csv"
    _write_csv(header, columns, str(out))
    assert out.read_bytes() == want.encode()
    _write_csv(header, columns, None)
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("text, steps", [(SWEEP, "steps: 7"), (ATTACK_SWEEP, "steps: 241")],
                         ids=["liquidation", "attack"])
def test_single_point_sweep_writes_the_reference_to_both_sinks(tmp_path, capsys, text, steps):
    path = write(tmp_path, text.replace(steps, "steps: 1"))
    want = csv_writer_reference(*run_sweep(load_config(path)))
    assert want.count("\n") == 2
    out = tmp_path / "one.csv"
    assert main(["sweep", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == want.encode()
    assert main(["sweep", path]) == 0
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


RISK = {"haircut": 0.85, "bonus": 0.05, "closing_factor": 0.8, "max_liq_fraction": 0.5}
# A sweep end whose derived reserve underflows to 0 or overflows to inf, and a
# base state whose liquidity * price underflows to 0 under the square root, so
# that the collateral derived from that reserve divides by 0.  Each document
# and the reason its first out-of-domain state gives, per position form.
OUT_OF_DOMAIN_ENDS = {
    "underflow": ({"pool": {"reserve_collateral": 1e-200, "reserve_debt": 1.0},
                   "sweep": {"axis": "pool_scale", "start": 1.0, "stop": 1e-200, "steps": 3,
                             "spacing": "log"}},
                  ["reserve_collateral must be > 0, got 0.0"] * 2),
    "overflow": ({"pool": {"reserve_collateral": 1000.0, "reserve_debt": 2e6},
                  "sweep": {"axis": "price", "start": 1.0, "stop": 1e308, "steps": 3}},
                 [f"LoanPosition(collateral={c}, debt=1.0) in PoolState(reserve_collateral="
                  "4.4721359549995795e-150, reserve_debt=inf, fee=0.0) is not finite"
                  for c in ("1.0", "0.0")]),
    "base_underflow": ({"pool": {"liquidity": 1e-300, "price": 1e-300}},
                       ["reserve_debt must be > 0, got 0.0"] * 2),
}
POSITION_FORMS = {"collateral": {"debt": 1.0, "collateral": 1.0},
                  "initial_health_factor": {"debt": 1.0, "initial_health_factor": 0.9}}
ATTACK_MODE = MINIMAL + "mode: attack\n"


def invalid(problem):
    """The whole stderr of a scenario whose one problem is ``problem``."""
    return f"invalid scenario config:\n  - {problem}\n"


# reserve_collateral * debt underflows to 0 at the base state: no health factor.
UNDEFINED_HEALTH_FACTOR = yaml.safe_dump({
    "pool": {"reserve_collateral": 1e-200, "reserve_debt": 1.0},
    "position": {"debt": 1e-200, "collateral": 1.0}, "risk": RISK})
UNDEFINED = invalid("scenario: derived state out of domain: health factor undefined: "
                    "reserve_collateral * debt underflows to 0 (1e-200 * 1e-200)")


# Test id: (command, scenario text, stderr).  The text None is a missing file,
# and bytes are written as they are.  A stderr that ends its line is the whole
# stderr; any other is a part of it.
REJECTIONS = {
    "config_missing": ("liquidate", None,
                       "config not found: [Errno 2] No such file or directory: 'scenario.yaml'\n"),
    "bad_config": ("sweep", "pool: {fee: 2.0}\n", "pool.fee: must lie in [0, 1), got 2.0"),
    "not_utf8": ("liquidate", b"\xff\xfe\x00bad", "scenario file is not UTF-8 text"),
    "unknown_keys_rejected": ("liquidate", MINIMAL + "\nextra_section: 1\n", "unknown top-level key"),
    "delta_axis_requires_attack_mode": ("sweep", yaml.safe_dump({
        "pool": {"reserve_collateral": 1.0, "reserve_debt": 1.0},
        "position": {"debt": 1.0, "collateral": 1.0}, "risk": RISK,
        "sweep": {"axis": "delta", "start": 0.0, "stop": 10.0, "steps": 3}}), "mode: attack"),
    "fee_interval": (
        "fee-threshold", ATTACK_MODE + "attack:\n  fee_low: 0.003\n  fee_high: 0.001\n",
        "fee_low must be < fee_high"),
    "fee_interval_empty": (
        "fee-threshold", ATTACK_MODE + "attack:\n  fee_low: 0.003\n  fee_high: 0.003\n",
        "fee_low must be < fee_high"),
    "sweep-price_negative": ("sweep", MINIMAL + SWEEP_EXTRA.replace("1400.0", "-100.0"),
                             "price axis values must be > 0"),
    "price_zero": ("sweep", MINIMAL + SWEEP_EXTRA.replace("1400.0", "0.0"),
                   "price axis values must be > 0"),
    "pool_scale_zero": (
        "sweep", MINIMAL + "sweep:\n  axis: pool_scale\n  start: 1.0\n  stop: 0.0\n  steps: 3\n",
        "pool_scale axis values must be > 0"),
    "delta_negative": (
        "sweep", ATTACK_MODE + "sweep:\n  axis: delta\n  start: -10.0\n  stop: 10.0\n  steps: 3\n",
        "delta axis values must be >= 0"),
    "delta_min_negative": ("sweep", ATTACK_MODE + SWEEP_EXTRA + "attack:\n  delta_min: -5.0\n",
                           "delta_min/delta_max must be >= 0"),
    "delta_max_negative": ("attack", ATTACK_MODE + "attack:\n  delta_max: -1.0\n",
                           "delta_min/delta_max must be >= 0"),
    "sweep-delta_min_nan": ("sweep", ATTACK_MODE + SWEEP_EXTRA + "attack:\n  delta_min: .nan\n",
                            "attack.delta_min: must be finite, got nan"),
    "delta_range_empty": (
        "attack", ATTACK_MODE + "attack:\n  delta_min: 100.0\n  delta_max: 10.0\n",
        "delta_min must be <= delta_max"),
    "sweep_no_stop": ("sweep", MINIMAL + SWEEP_EXTRA.replace("  stop: 2000.0\n", ""),
                      "sweep: missing stop"),
    "sweep_no_start": ("liquidate", MINIMAL + SWEEP_EXTRA.replace("  start: 1400.0\n", ""),
                       "sweep: missing start"),
    "sweep_section_missing": ("sweep", MINIMAL, "sweep: section required for the sweep command"),
    "section_not_mapping": ("liquidate", edit(RISK_BLOCK, "risk: [0.85, 0.05]\n"),
                            "risk: expected a mapping, got list"),
    "unknown_section_key": ("liquidate", edit("  bonus: 0.05\n", "  bonus: 0.05\n  penalty: 0.1\n"),
                            "risk: unknown key 'penalty'"),
    "number_type": ("liquidate", edit("reserve_debt: 2.0e6", "reserve_debt: lots"),
                    "pool.reserve_debt: expected a number, got 'lots'"),
    "bool_not_number": ("liquidate", edit("debt: 10000.0", "debt: true"),
                        "position.debt: expected a number, got True"),
    "integer_type": ("liquidate", MINIMAL + SWEEP_EXTRA.replace("steps: 3", "steps: 2.5"),
                     "sweep.steps: expected an integer, got 2.5"),
    "string_type": ("liquidate", MINIMAL + SWEEP_EXTRA.replace("axis: price", "axis: 7"),
                    "sweep.axis: expected a string, got 7"),
    "top_level_not_mapping": ("liquidate", "- pool\n- risk\n", "top level must be a mapping"),
    "yaml_syntax": ("liquidate", "pool: {fee: 0.0\n", "YAML parse error"),
    "both_pool_forms": (
        "liquidate", edit("  fee: 0.003\n", "  fee: 0.003\n  price: 2000.0\n"),
        "give either reserve_collateral/reserve_debt or liquidity/price, not both"),
    "half_reserves": ("liquidate", edit("  reserve_debt: 2.0e6\n", ""),
                      "reserve_collateral and reserve_debt must be given together"),
    "half_liquidity_price": ("liquidate", POOL_KP.replace("  price: 2000.0\n", ""),
                             "liquidity and price must be given together"),
    "liquidity_zero": ("liquidate", POOL_KP.replace("liquidity: 2.0e9", "liquidity: 0.0"),
                       "liquidity and price must be > 0"),
    "liquidate-price_negative": ("liquidate", POOL_KP.replace("price: 2000.0", "price: -2000.0"),
                                 "liquidity and price must be > 0"),
    "reserve_zero": ("liquidate", edit("reserve_collateral: 1000.0", "reserve_collateral: 0.0"),
                     "pool: reserves must be > 0"),
    "pool_fee_one": ("liquidate", edit("fee: 0.003", "fee: 1.0"),
                     "pool.fee: must lie in [0, 1), got 1.0"),
    # A pool's size is its reserves or its liquidity; pool_scale is a sweep axis only.
    "scale_unknown": ("liquidate", edit("  fee: 0.003\n", "  fee: 0.003\n  scale: 2.0\n"),
                      "pool: unknown key 'scale'"),
    "debt_negative": ("liquidate", edit("debt: 10000.0", "debt: -1.0"),
                      "position.debt: must be >= 0"),
    "debt_missing": ("liquidate", edit("  debt: 10000.0\n", ""), "position: missing debt"),
    "collateral_negative": ("liquidate", edit("collateral: 5.5", "collateral: -5.5"),
                            "position.collateral: must be >= 0"),
    "hf_negative": ("liquidate", edit("collateral: 5.5", "initial_health_factor: -0.5"),
                    "position.initial_health_factor: must be >= 0"),
    "risk_key_missing": ("liquidate", edit("  bonus: 0.05\n", ""), "risk: missing bonus"),
    "risk_params_rejected": ("liquidate", edit("haircut: 0.85", "haircut: 1.5"),
                             "risk: haircut must lie in (0, 1]"),
    "bad_spacing": ("liquidate", MINIMAL + SWEEP_EXTRA + "  spacing: cubic\n",
                    "sweep.spacing: must be 'linear' or 'log'"),
    "log_start_zero": (
        "liquidate",
        MINIMAL + SWEEP_EXTRA.replace("start: 1400.0", "start: 0.0") + "  spacing: log\n",
        "sweep: log spacing needs positive start/stop"),
    "fee_axis_stop_one": (
        "liquidate", MINIMAL + "sweep: {axis: fee, start: 0.0, stop: 1.0, steps: 3}\n",
        "sweep: fee axis values must lie in [0, 1)"),
    "fee_axis_start_negative": (
        "liquidate", MINIMAL + "sweep: {axis: fee, start: -0.1, stop: 0.5, steps: 3}\n",
        "sweep: fee axis values must lie in [0, 1)"),
    "fee_high_one": ("liquidate", MINIMAL + "attack:\n  fee_high: 1.0\n",
                     "attack: fee_low/fee_high must lie in [0, 1)"),
    "fee_low_negative": ("liquidate", MINIMAL + "attack:\n  fee_low: -0.001\n",
                         "attack: fee_low/fee_high must lie in [0, 1)"),
    # A finite log sweep whose ratio**i overflows.  Every command and every
    # axis reach it the same way, through load_config's parse_config.
    "log_overflow": (
        "sweep", ATTACK_MODE + "sweep: {axis: price, start: 1.0, stop: 1.7976931348623157e+308, "
                               "steps: 5, spacing: log}\n",
        invalid("sweep: log-spaced values overflow")),
    "fee_high_nan": ("liquidate", MINIMAL + "attack:\n  fee_high: .nan\n",
                     "attack.fee_high: must be finite, got nan"),
    # Each end of the fee interval on the boundary of [0, 1): the range check
    # and the order check give different messages.
    "fee_low_one": ("fee-threshold", ATTACK_MODE + "attack:\n  fee_low: 1.0\n",
                    invalid("attack: fee_low/fee_high must lie in [0, 1)")),
    "fee_high_zero": ("fee-threshold", ATTACK_MODE + "attack:\n  fee_high: 0.0\n",
                      invalid("attack: fee_low must be < fee_high, got 0.0 >= 0.0")),
    # A linear delta sweep whose last point, 3 * (max float / 3), rounds to inf.
    "delta_axis_stop_rounds_to_inf": (
        "sweep", ATTACK_MODE + "sweep: {axis: delta, start: 0.0, stop: 1.7976931348623157e+308, "
                               "steps: 4}\n",
        invalid("sweep: delta axis values must be >= 0 and finite")),
    "reserve_underflow": (
        "liquidate", POOL_KP.replace("liquidity: 2.0e9", "liquidity: 1.0e-300")
        .replace("price: 2000.0", "price: 1.0e+300"),
        "scenario: derived state out of domain: reserve_collateral must be > 0"),
    "reserve_overflow": (
        "liquidate", edit("reserve_collateral: 1000.0", "reserve_collateral: 1.0e+300")
        .replace("reserve_debt: 2.0e6", "reserve_debt: 1.0e+300") + SWEEP_EXTRA,
        "scenario: derived state out of domain: LoanPosition(collateral=5.5,"),
    "reserve_product_overflow": (
        "liquidate", edit("reserve_collateral: 1000.0", "reserve_collateral: 3.0e+305")
        .replace("reserve_debt: 2.0e6", "reserve_debt: 3.0e+305")
        .replace("debt: 10000.0", "debt: 1.0e+10")
        .replace("collateral: 5.5", "collateral: 1.0e+10"),
        "scenario: derived state out of domain: reserve product of PoolState("),
    "health_factor_nan": (
        "liquidate", edit("reserve_collateral: 1000.0", "reserve_collateral: 1.0e+100")
        .replace("reserve_debt: 2.0e6", "reserve_debt: 1.0e+200")
        .replace("debt: 10000.0", "debt: 1.0e+300")
        .replace("collateral: 5.5", "collateral: 1.0e+200"),
        "scenario: derived state out of domain: health factor of LoanPosition("),
    "bad_convention": ("liquidate", MINIMAL + "convention: midpoint\n",
                       "convention: must be one of"),
    "repeated_key": ("liquidate", REPEATED_FEE, invalid("pool: duplicate key 'fee'")),
    "repeated_key_beside_merge": ("liquidate", MERGED_REPEAT,
                                  invalid("risk: duplicate key 'bonus'")),
    "reserve_collateral_nan": (
        "liquidate", edit("reserve_collateral: 1000.0", "reserve_collateral: .nan"),
        invalid("pool.reserve_collateral: must be finite, got nan")),
    "reserve_debt_inf": ("liquidate", edit("reserve_debt: 2.0e6", "reserve_debt: .inf"),
                         invalid("pool.reserve_debt: must be finite, got inf")),
    "debt_nan": ("liquidate", edit("debt: 10000.0", "debt: .nan"),
                 invalid("position.debt: must be finite, got nan")),
    "debt_inf": ("liquidate", edit("debt: 10000.0", "debt: .inf"),
                 invalid("position.debt: must be finite, got inf")),
    "collateral_nan": ("liquidate", edit("collateral: 5.5", "collateral: .nan"),
                       invalid("position.collateral: must be finite, got nan")),
    "hf_nan": ("liquidate", edit("collateral: 5.5", "initial_health_factor: .nan"),
               invalid("position.initial_health_factor: must be finite, got nan")),
    "bonus_nan": ("liquidate", edit("bonus: 0.05", "bonus: .nan"),
                  invalid("risk.bonus: must be finite, got nan")),
    "sweep_stop_inf": ("liquidate", MINIMAL + SWEEP_EXTRA.replace("stop: 2000.0", "stop: .inf"),
                       invalid("sweep.stop: must be finite, got inf")),
    "sweep_start_neg_inf": ("sweep", MINIMAL + SWEEP_EXTRA.replace("start: 1400.0", "start: -.inf"),
                            invalid("sweep.start: must be finite, got -inf")),
    "delta_min_inf": ("attack", ATTACK_MODE + "attack:\n  delta_min: .inf\n",
                      invalid("attack.delta_min: must be finite, got inf")),
    "fee_nan": ("liquidate", edit("fee: 0.003", "fee: .nan"),
                invalid("pool.fee: must be finite, got nan")),
    "fee_low_nan": ("fee-threshold", ATTACK_MODE + "attack:\n  fee_low: .nan\n",
                    invalid("attack.fee_low: must be finite, got nan")),
    "fee_high_inf": ("fee-threshold", ATTACK_MODE + "attack:\n  fee_high: .inf\n",
                     invalid("attack.fee_high: must be finite, got inf")),
    "attack-delta_min_nan": ("attack", ATTACK_MODE + "attack:\n  delta_min: .nan\n",
                             invalid("attack.delta_min: must be finite, got nan")),
    "delta_max_nan": ("attack", ATTACK_MODE + "attack:\n  delta_max: .nan\n",
                      invalid("attack.delta_max: must be finite, got nan")),
    # Sweeps to the float below 1.0 whose last computed point rounds up to 1.0.
    **{f"{steps}-{spacing}-{start!r}": (
        "sweep", MINIMAL + (f"sweep: {{axis: fee, start: {start!r}, stop: 0.9999999999999999, "
                            f"steps: {steps}, spacing: {spacing}}}\n"),
        invalid("sweep: fee axis values must lie in [0, 1)"))
       for steps, spacing, start in [(4, "linear", 0.0), (7, "linear", 0.0), (8, "linear", 0.0),
                                     (5, "log", 1.0e-4), (6, "log", 1.0e-4)]},
    **{f"{end}-{form}": ("sweep", yaml.safe_dump({**doc, "position": position, "risk": RISK}),
                         invalid(f"scenario: derived state out of domain: {reason}"))
       for end, (doc, reasons) in OUT_OF_DOMAIN_ENDS.items()
       for (form, position), reason in zip(POSITION_FORMS.items(), reasons)},
    **{command: (command, UNDEFINED_HEALTH_FACTOR, UNDEFINED)
       for command in ("liquidate", "attack", "sweep")},
}


@pytest.mark.parametrize("command, text, stderr", REJECTIONS.values(), ids=REJECTIONS)
def test_cli_rejects_every_config_problem(tmp_path, monkeypatch, capsys, command, text, stderr):
    monkeypatch.chdir(tmp_path)  # a message names the file "scenario.yaml"
    path = tmp_path / "scenario.yaml"
    if text is not None:
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
    assert main([command, path.name]) == 2
    out = capsys.readouterr()
    assert out.out == "" and (out.err == stderr if stderr.endswith("\n") else stderr in out.err)


def test_attack_delta_max_may_be_infinite(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL + "attack:\n  delta_max: .inf\n"))
    assert cfg.attack.delta_max == math.inf


SWEEP_RANGES = {"price": (1.0, 1e4), "pool_scale": (0.1, 10.0), "delta": (0.0, 1e6),
                "fee": (0.0, 0.1)}
VALID_SCENARIOS = st.fixed_dictionaries({
    "mode": st.sampled_from(["liquidation", "attack"]),
    "pool": st.one_of(
        st.fixed_dictionaries({"reserve_collateral": st.floats(1.0, 1e6),
                               "reserve_debt": st.floats(1.0, 1e9)},
                              optional={"fee": st.floats(0.0, 0.1)}),
        st.fixed_dictionaries({"liquidity": st.floats(1.0, 1e12), "price": st.floats(1.0, 1e4)},
                              optional={"fee": st.floats(0.0, 0.1)}),
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


SCENARIO_FILES = sorted(SCENARIOS.glob("*.yaml"))
# Every bundled scenario, the texts of the CLI rejection table but for the
# malformed YAML and the repeated keys that only load_config reports (checked
# below), and YAML 1.1 scalars that the resolver types: exponents without a
# sign, sexagesimals, hex, booleans.
LOADER_ONLY = {"yaml_syntax", "repeated_key", "repeated_key_beside_merge"}
LOADER_TEXTS = [path.read_text() for path in SCENARIO_FILES] + [
    text for name, (_, text, _) in REJECTIONS.items()
    if isinstance(text, str) and name not in LOADER_ONLY] + [
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
