"""Batch CLI: single runs, parameter sweeps, figure-data reproduction, verification.

Subcommands
    liquidate <config>            one optimal-liquidation run, human-readable report
    attack <config>               optimize the sandwich attack for a scenario
    sweep <config> [--out f]      CSV with one row per sweep point
    fee-threshold <config>        critical fee via bisection, with probe trace
    reproduce <ex1..ex5> [--out]  canned sweeps behind the five study scenarios
    verify [--instances N]        run the brute-force oracle suites

CSV output is deterministic: fixed column order, 12 significant digits,
'.' decimal separator.

Exit codes: 0 success, 2 config error, 3 infeasible / no threshold,
4 verification failure, 5 a recovery-bound root that failed its self-check
(``lending.RecoveryRootError``; one stderr line with the state that fails),
6 a pool reserve that a swap or liquidation leg leaves at 0 or NaN
(``amm.ReserveUnderflowError``; one stderr line naming the reserve).
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import sys

import numpy as np

from . import attack as atk
# Only verify (and its parser's defaults) and reproduce ex3 use it; importing
# it lazily would not keep it out of start-up, since oevsim/__init__.py
# re-exports the oracles and so loads them before this module.
from . import oracles
from .config import ConfigError, ScenarioConfig, load_config
from .engine import best_strategy, best_strategy_batch, run_liquidation_batch
from .lending import LoanPosition, RecoveryRootError, RepayConvention, RiskParams
from .amm import PoolState, ReserveUnderflowError


class ProcessPoolExecutor:
    """A placeholder that oevsim never instantiates: it starts no process pool.

    The benchmark harness subclasses it and assigns the subclass back, to
    count pool starts (perfbench/run.py count_pool_starts, perfbench/tracing.py
    Tracer.install).  A class of its own keeps concurrent.futures and
    multiprocessing out of the process that reads it.
    """


# One float cell's printf field.  It prints "inf", "-inf", "nan" (either sign)
# and "-0" as format() does: both call PyOS_double_to_string.
_FLOAT = "%.12g"
_BOOL = {True: "true", False: "false"}


def _fmt(value) -> str:
    """A float cell, or an empty one for ``None``."""
    return "" if value is None else _FLOAT % value


def _write_csv(header: list[str], columns: list[list], out_path: str | None) -> None:
    """Write a table given as columns, each row through one printf template.

    Each column gives one field: ``%.12g`` for floats alone, and ``%s`` for
    strings alone, for bools alone (over ``true``/``false``) and for floats
    with empty cells (``None``, where a buy-back reverts; over :func:`_fmt`).
    A ``%`` in a cell is data.  No cell holds a comma, a quote or a line
    break and every table has two or more columns, so no cell needs CSV
    quoting.
    """
    fields, cells = [], []
    for col in columns:
        kinds = set(map(type, col))
        fields.append(_FLOAT if kinds == {float} else "%s")
        cells.append(col if kinds in ({float}, {str})
                     else map(_BOOL.__getitem__ if kinds == {bool} else _fmt, col))
    template = ",".join(fields) + "\n"
    text = ",".join(header) + "\n" + "".join(map(template.__mod__, zip(*cells)))
    if out_path:
        with open(out_path, "w", newline="") as stream:
            stream.write(text)
    else:
        sys.stdout.write(text)


def _feasible_only(values: np.ndarray, feasible: np.ndarray) -> list:
    """``values`` as a column with ``None`` (an empty cell) where a buy-back reverts."""
    return [v if ok else None for v, ok in zip(values.tolist(), feasible.tolist())]


# Enum's ``value`` is a Python-level property; the attribute behind it reads in C.
_enum_value = operator.attrgetter("_value_")


def _enum_values(members) -> list[str]:
    return list(map(_enum_value, members))


# ---------------------------------------------------------------------------
# Sweep evaluation
# ---------------------------------------------------------------------------

LIQ_HEADER = [
    "axis", "value", "hf_initial", "pi_liq", "pi_last", "pi_tot",
    "binding", "last_binding", "strategy", "bad_debt",
]
ATK_HEADER = [
    "axis", "value", "delta", "front_proceeds", "liq_profit", "buyback_cost",
    "total_profit", "feasible", "triggered",
    "delta_trigger", "delta_baddebt_cap", "delta_no_revert",
]


def run_sweep(cfg: ScenarioConfig) -> tuple[list[str], list[list]]:
    """Evaluate every sweep point in one batch call; the table as columns, in row order.

    The states come as columns from :meth:`ScenarioConfig.columns`.  A
    liquidation sweep is one :func:`best_strategy_batch` call and an attack
    sweep one :func:`attack.attack_profit_batch` and one
    :func:`attack.delta_bounds_batch` call; all give the scalar functions'
    bits on every row, and the CSV columns are their ``.tolist()`` columns.
    """
    if cfg.sweep is None:
        raise ConfigError(["sweep: section required for the sweep command"])
    axis, values = cfg.sweep.axis, cfg.sweep.values()
    n = len(values)
    state = cfg.columns(values)
    if cfg.mode != "attack":
        res, strategy = best_strategy_batch(*state, cfg.risk, cfg.convention)
        return LIQ_HEADER, [[axis] * n, values, res.hf_initial.tolist(), res.pi_liq.tolist(),
                            res.pi_last.tolist(), res.pi_tot.tolist(), _enum_values(res.binding),
                            _enum_values(res.last_binding), _enum_values(strategy),
                            res.bad_debt.tolist()]

    deltas = values if axis == "delta" else [cfg.attack.delta_min] * n
    res = atk.attack_profit_batch(deltas, *state, cfg.risk, cfg.convention)
    bounds = atk.delta_bounds_batch(*state, cfg.risk)
    # A reverting buy-back has no cost or total: "" in the CSV, as in a single attack.
    return ATK_HEADER, [[axis] * n, values, deltas, res.front_proceeds.tolist(),
                        res.liquidation.pi_tot.tolist(),
                        _feasible_only(res.buyback_cost, res.feasible),
                        _feasible_only(res.total_profit, res.feasible),
                        res.feasible.tolist(), res.triggered.tolist(),
                        *(col.tolist() for col in bounds)]


# ---------------------------------------------------------------------------
# Canned study scenarios (figure-data reproduction)
# ---------------------------------------------------------------------------

def _study_risk(closing_factor: float = 0.8) -> RiskParams:
    return RiskParams(haircut=0.85, bonus=0.05, closing_factor=closing_factor,
                      max_liq_fraction=0.5)


def reproduce_ex1() -> tuple[list[str], list[list]]:
    """Strategy comparison across pool depth.

    Base pool (1000, 2e6) at 30 bps fee, scaled by s; fixed borrower with
    debt 10,000 and collateral chosen just below the liquidation boundary.
    """
    risk = _study_risk(closing_factor=0.95)
    debt = 1e4
    coll = debt * 1000.0 / (risk.haircut * 2e6) - 0.35
    s = np.geomspace(0.05, 100.0, 121)
    full, capped = run_liquidation_batch(coll, debt, 1000.0 * s, 2e6 * s, 0.003, risk)
    return (["s", "profit_cf_full", "profit_one_kappa"],
            [s.tolist(), full.pi_tot.tolist(), capped.pi_tot.tolist()])


def reproduce_ex2() -> tuple[list[str], list[list]]:
    """Liquidation profit vs price for pinned initial health factors.

    Fee-free pool of constant liquidity 2e9; collateral re-derived at every
    price so each curve holds its initial health factor constant.
    """
    risk = _study_risk()
    debt = 1e4
    prices = np.linspace(250.0, 5000.0, 191)
    hf0 = np.repeat([0.50, 0.90, 0.92, 0.94, 0.99], len(prices))
    p = np.tile(prices, 5)
    a0 = np.sqrt(2e9 / p)
    b0 = np.sqrt(2e9 * p)
    coll = hf0 * debt * a0 / (risk.haircut * b0)
    res, _ = best_strategy_batch(coll, debt, a0, b0, 0.0, risk)
    return ["hf0", "p", "pi_tot", "binding"], [hf0.tolist(), p.tolist(), res.pi_tot.tolist(),
                                               _enum_values(res.binding)]


def reproduce_ex3() -> tuple[list[str], list[list]]:
    """Profit and binding constraint vs price for a fixed borrower.

    Fee-free pool of liquidity 2e9, debt 10,000 against 6 collateral.  Two
    binding tags are reported: ``binding`` comes from the closed-form bound
    triple of the engine, ``binding_txn`` from the transaction-by-
    transaction replay (maximal kappa-capped trades, spot-priced
    write-downs) whose regime change is the one visible in profit plots.
    """
    risk = _study_risk()
    position = LoanPosition(6.0, 1e4)
    prices = np.linspace(1400.0, 2100.0, 281)
    a0, b0 = np.sqrt(2e9 / prices), np.sqrt(2e9 * prices)
    res, _ = best_strategy_batch(position.collateral, position.debt, a0, b0, 0.0, risk)
    replay = [oracles.simulate_liquidation_sequence(
        position, PoolState(a, b, 0.0), risk, cf_target=1.0, kappa=risk.max_liq_fraction,
        convention=RepayConvention.SPOT_PRICE,
    ).terminator for a, b in zip(a0.tolist(), b0.tolist())]
    return (["p", "hf0", "pi_liq", "pi_last", "pi_tot", "binding", "binding_txn"],
            [prices.tolist(), res.hf_initial.tolist(), res.pi_liq.tolist(), res.pi_last.tolist(),
             res.pi_tot.tolist(), _enum_values(res.binding), replay])


def reproduce_ex4() -> tuple[list[str], list[list]]:
    """Sandwich profits vs attack size in the fee-free pool.

    Same system as ex3 but the price is fixed where the initial health
    factor is 1.05, so only a manipulation can unlock the liquidation.
    """
    risk = _study_risk()
    position = LoanPosition(6.0, 1e4)
    p0 = 1.05 * position.debt / (risk.haircut * position.collateral)
    pool = PoolState(math.sqrt(2e9 / p0), math.sqrt(2e9 * p0), 0.0)
    trigger = atk.delta_bounds(position, pool, risk).trigger
    deltas = np.array(sorted(
        set(np.linspace(0.0, 30000.0, 361))
        | {trigger * (1.0 - 1e-9), trigger * (1.0 + 1e-9)}
    ))
    res = atk.attack_profit_batch(deltas, position.collateral, position.debt,
                                  pool.reserve_collateral, pool.reserve_debt, pool.fee, risk)
    return (["delta", "total_profit", "liq_profit", "triggered"],
            [deltas.tolist(), _feasible_only(res.total_profit, res.feasible),
             res.liquidation.pi_tot.tolist(), res.triggered.tolist()])


def reproduce_ex5() -> tuple[list[str], list[list]]:
    """Sandwich profits vs attack size across fee levels.

    Pool (10,000, 28e6) against a borrower owing 32,000 backed by 20.12
    collateral; fee levels include the critical one (17 bps) where no
    attack size stays profitable.
    """
    risk = _study_risk()
    levels = np.array([0.0, 10.0, 17.0, 30.0])
    _, cap, no_revert = atk.delta_bounds_batch(20.12, 32000.0, 1e4, 2.8e7, levels / 1e4, risk)
    delta = np.concatenate([np.geomspace(1.0, 0.999 * hi, 301)
                            for hi in np.minimum(cap, no_revert).tolist()])
    fee_bps = np.repeat(levels, 301)
    res = atk.attack_profit_batch(delta, 20.12, 32000.0, 1e4, 2.8e7, fee_bps / 1e4, risk)
    return (["fee_bps", "delta", "total_profit", "liq_profit", "feasible"],
            [fee_bps.tolist(), delta.tolist(), _feasible_only(res.total_profit, res.feasible),
             res.liquidation.pi_tot.tolist(), res.feasible.tolist()])


REPRODUCERS = {
    "ex1": reproduce_ex1,
    "ex2": reproduce_ex2,
    "ex3": reproduce_ex3,
    "ex4": reproduce_ex4,
    "ex5": reproduce_ex5,
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_liquidate(args) -> int:
    cfg = load_config(args.config)
    position, pool = cfg.state_at()
    res, strat = best_strategy(position, pool, cfg.risk, cfg.convention)
    b = res.bounds
    print(f"health factor        {res.hf_initial:.6g}")
    print(f"strategy             {strat.value} (cf_target={res.cf_target:g}, kappa={res.kappa:g})")
    print(f"bounds               collateral={b.x_collateral:.6g} debt_full={b.x_debt_full:.6g} "
          f"kappa_cap={b.x_debt_kappa:.6g} recovery={b.x_closing:.6g}")
    print(f"marginal phase       x={res.x_liq:.6g} profit={res.pi_liq:.6g} "
          f"binding={res.binding.value}")
    print(f"closing trade        x={res.x_last:.6g} profit={res.pi_last:.6g} cap={res.last_binding.value}")
    print(f"total profit         {res.pi_tot:.6g}")
    print(f"post position        collateral={res.post_position.collateral:.6g} "
          f"debt={res.post_position.debt:.6g} bad_debt={res.bad_debt:.6g}")
    print(f"post pool            A={res.post_pool.reserve_collateral:.6g} "
          f"B={res.post_pool.reserve_debt:.6g}")
    return 0


def _cmd_attack(args) -> int:
    cfg = load_config(args.config)
    position, pool = cfg.state_at()
    d_range = (cfg.attack.delta_min, cfg.attack.delta_max)
    out = atk.optimize_attack(position, pool, cfg.risk, delta_range=d_range,
                              convention=cfg.convention)
    if out.search_lo > out.search_hi:
        print(f"attack: delta range [{d_range[0]:.6g}, {d_range[1]:.6g}] lies above "
              f"the search ceiling {out.search_hi:.6g}", file=sys.stderr)
        return 3
    bounds, res = out.bounds, out.result
    print(f"delta bounds         trigger={bounds.trigger:.6g} "
          f"baddebt_cap={bounds.baddebt_cap:.6g} no_revert={bounds.no_revert:.6g}")
    print(f"search               [{out.search_lo:.6g}, {out.search_hi:.6g}] "
          f"coarse points={out.coarse_points}")
    print(f"best attack          delta={out.delta:.6g}")
    print(f"  front proceeds     {res.front_proceeds:.6g}")
    print(f"  liquidation profit {res.liq_profit:.6g}")
    print(f"  buy-back cost      {_fmt(res.buyback_cost)}")
    print(f"  total profit       {_fmt(res.total_profit)}")
    print(f"  triggered={res.triggered} feasible={res.feasible} strategy={res.strategy.value}")
    if out.delta == 0.0 and res.total_profit <= 0.0:
        print("no profitable attack size found")
        return 3
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    _write_csv(*run_sweep(cfg), args.out)
    return 0


def _cmd_fee_threshold(args) -> int:
    cfg = load_config(args.config)
    position, pool = cfg.state_at()
    res = atk.critical_fee(position, pool, cfg.risk, cfg.attack.fee_low, cfg.attack.fee_high,
                           convention=cfg.convention)
    print("fee_bps,best_positive_profit")
    for fee, profit in res.trace:
        print(f"{fee * 1e4:.6g},{profit:.6g}")
    print(f"critical fee: {res.fee_star * 1e4:.4g} bps "
          f"(bracket [{res.bracket[0] * 1e4:.4g}, {res.bracket[1] * 1e4:.4g}] bps)")
    return 0


def _cmd_reproduce(args) -> int:
    _write_csv(*REPRODUCERS[args.example](), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.instances < 1 or args.grid_n < 2:
        print(f"verify: need --instances >= 1 and --grid-n >= 2, "
              f"got {args.instances} and {args.grid_n}", file=sys.stderr)
        return 2
    # Open the report before the suites run, so a bad path fails at once.
    report = open(args.report, "w") if args.report else None
    try:
        records = oracles.verification_report(
            n_instances=args.instances, seed=args.seed, grid_n=args.grid_n
        )
        if report is not None:
            import json

            for rec in records:
                report.write(json.dumps(rec, sort_keys=True) + "\n")
    finally:
        if report is not None:
            report.close()
    by_check: dict[str, list[bool]] = {}
    for rec in records:
        by_check.setdefault(rec["check"], []).append(rec["passed"])
    failed = 0
    for check, flags in sorted(by_check.items()):
        bad = flags.count(False)
        failed += bad
        print(f"{check:32s} {len(flags) - bad}/{len(flags)} passed")
    if failed:
        print(f"verification FAILED: {failed} checks", file=sys.stderr)
        return 4
    print("verification passed")
    return 0


@functools.cache  # one parser per process: main only parses with it, nothing mutates it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oevsim",
        description="Optimal liquidation and oracle-manipulation simulator "
                    "on a fee-charging constant-product AMM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("liquidate", help="single optimal-liquidation run")
    p.add_argument("config")
    p.set_defaults(func=_cmd_liquidate)

    p = sub.add_parser("attack", help="optimize sandwich attack size")
    p.add_argument("config")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("sweep", help="CSV sweep over the configured axis")
    p.add_argument("config")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fee-threshold", help="critical fee by bisection")
    p.add_argument("config")
    p.set_defaults(func=_cmd_fee_threshold)

    p = sub.add_parser("reproduce", help="emit data behind the study figures")
    p.add_argument("example", choices=sorted(REPRODUCERS))
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("verify", help="run the brute-force oracle suites")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=oracles.SEED)
    p.add_argument("--grid-n", type=int, default=oracles.GRID_N)
    p.add_argument("--report", help="write JSON-lines records here")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except atk.NoThresholdError as exc:
        print(f"no threshold: {exc}", file=sys.stderr)
        return 3
    except RecoveryRootError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 5
    except ReserveUnderflowError as exc:
        print(f"{args.command}: reserve underflow: {exc}", file=sys.stderr)
        return 6
    except OSError as exc:
        # A config or output file that cannot be read or written.
        config_missing = (isinstance(exc, FileNotFoundError)
                          and exc.filename == getattr(args, "config", None))
        print(f"{'config not found' if config_missing else 'file error'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
