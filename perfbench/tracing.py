"""In-memory span tracer that wraps oevsim's public functions at every import site.

``install()`` replaces each traced function in every ``oevsim`` module that
holds it (``engine.run_liquidation``, ``attack.best_strategy``,
``cli.best_strategy``, ``oracles.bound_closing``, the package namespace,
...), so nested calls are seen whichever module makes them.  No program
file changes.  The ``PoolState`` swap methods and the ``PoolState`` and
``LoanPosition`` constructors are wrapped on the class with call counters
only: one ``oracle_verify`` pass makes about four million swaps, and as
spans they took 670 MB to post-process.

A span is (id, parent, name, start, end).  Spans are appended to flat
arrays and written once, when the traced pass ends.  Counts that depend on
what a call returned (the ``bound_closing`` branch, the binding bound, ...)
are taken from return values as the calls happen.

Sweeps large enough to start oevsim's process pool run their points in
forked workers.  Their spans are collected, not lost: the pool is given an
initializer that clears the inherited buffers, gives the worker its own id
range, and dumps its spans to the work directory when the worker exits.
Worker spans keep the parent they inherited (the ``cli.run_sweep`` span),
so self time is computed over the union of overlapping child intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, function) pairs wrapped with a span.
TRACED = (
    ("lending", "compute_bounds"),
    ("lending", "bound_closing"),
    ("lending", "hf_after_marginal"),
    ("engine", "run_liquidation"),
    ("engine", "best_strategy"),
    ("engine", "final_tranche"),
    ("attack", "attack_profit"),
    ("attack", "optimize_attack"),
    ("attack", "critical_fee"),
    ("_numerics", "golden_max"),
    ("_numerics", "bisect_root"),
    ("oracles", "dp_oracle"),
    ("oracles", "simulate_liquidation_sequence"),
    ("oracles", "integral_oracle"),
    ("oracles", "random_instances"),
    ("config", "load_config"),
    ("cli", "main"),
    ("cli", "run_sweep"),
)
# (module, class, method, count key) wrapped with a call counter.
COUNTED = (
    ("amm", "PoolState", "sell_collateral", "amm.sell_collateral.calls"),
    ("amm", "PoolState", "buy_collateral_exact", "amm.buy_collateral_exact.calls"),
    ("amm", "PoolState", "__post_init__", "amm.pool_states_built"),
    ("lending", "LoanPosition", "__post_init__", "lending.positions_built"),
)


def span_name(module: str, func: str) -> str:
    """Metric prefix of a traced function; names must start with a letter."""
    return f"{module.lstrip('_')}.{func}"


def _binding(res) -> str:
    return res.binding.value if res.binding is not None else "fee_gate"


# Counts taken from return values, per span name.
RESULT_COUNTS = {
    "lending.bound_closing": lambda r: f"lending.bound_closing.branch.{r.branch}",
    "engine.run_liquidation": lambda r: f"engine.binding.{_binding(r)}",
    "attack.attack_profit": lambda r: None if r.feasible else "attack.attack_profit.infeasible",
}
RESULT_SUMS = {
    "attack.critical_fee": ("attack.critical_fee.probes", lambda r: len(r.trace)),
    "oracles.simulate_liquidation_sequence": (
        "oracles.simulate_liquidation_sequence.steps", lambda r: r.steps),
}


class Tracer:
    """Span and count buffers of one process, plus the wrappers that fill them."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.names = [span_name(m, a) for m, a in TRACED]
        self.ids = array("q")
        self.parents = array("q")
        self.kinds = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self._next_id = itertools.count(os.getpid() << 32)
        for stale in work_dir.glob("spans-*.npz"):
            stale.unlink()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import oevsim.cli  # noqa: F401  (loads every module)

        modules = [m for n, m in sys.modules.items() if n == "oevsim" or n.startswith("oevsim.")]
        for kind, (mod_name, attr) in enumerate(TRACED):
            orig = getattr(sys.modules[f"oevsim.{mod_name}"], attr)
            wrapper = self._wrap(orig, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth, key in COUNTED:
            cls = getattr(sys.modules[f"oevsim.{mod_name}"], cls_name)
            setattr(cls, meth, self._count_calls(getattr(cls, meth), key))

        cli = sys.modules["oevsim.cli"]
        base = cli.ProcessPoolExecutor
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, initializer=tracer._worker_start, **kwargs)

        cli.ProcessPoolExecutor = TracedPool

    def _count_calls(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, kind: int):
        name = self.names[kind]
        stack, counts = self.stack, self.counts
        ids, parents, kinds = self.ids, self.parents, self.kinds
        starts, ends = self.starts, self.ends
        by_value = RESULT_COUNTS.get(name)
        summed = RESULT_SUMS.get(name)
        error_key = f"{name}.arithmetic_errors"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._next_id)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError:
                counts[error_key] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                kinds.append(kind)
                starts.append(t0)
                ends.append(t1)
            if by_value is not None:
                key = by_value(result)
                if key is not None:
                    counts[key] += 1
            elif summed is not None:
                counts[summed[0]] += summed[1](result)
            return result

        return wrapper

    # -- pool workers -----------------------------------------------------

    def _worker_start(self) -> None:
        """Pool initializer: fresh buffers and id range, dump at exit."""
        for buf in (self.ids, self.parents, self.kinds, self.starts, self.ends):
            del buf[:]
        self.counts.clear()
        self._next_id = itertools.count(os.getpid() << 32)
        multiprocessing.util.Finalize(None, self._worker_dump, exitpriority=10)

    def _worker_dump(self) -> None:
        np.savez(
            self.work_dir / f"spans-{os.getpid()}.npz",
            **self._arrays(), counts=np.array(json.dumps(self.counts)),
        )

    def _arrays(self) -> dict:
        """Views of the buffers; nothing may be recorded while they are alive."""
        return dict(
            ids=np.frombuffer(self.ids, dtype=np.int64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            kinds=np.frombuffer(self.kinds, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )

    def collect(self) -> tuple[dict, Counter]:
        """Spans and counts of this process plus every dumped pool worker."""
        parts = [self._arrays()]
        counts = Counter(self.counts)
        for path in sorted(self.work_dir.glob("spans-*.npz")):
            with np.load(path) as data:
                parts.append({k: data[k] for k in ("ids", "parents", "kinds", "starts", "ends")})
                counts.update(json.loads(str(data["counts"])))
            path.unlink()
        spans = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
        return spans, counts


def _parent_links(spans: dict) -> tuple[np.ndarray, np.ndarray]:
    """Order that sorts spans by id, and each sorted span's parent index (-1: none)."""
    order = np.argsort(spans["ids"], kind="stable")
    ids, parents = spans["ids"][order], spans["parents"][order]
    pos = np.clip(np.searchsorted(ids, parents), 0, len(ids) - 1)
    return order, np.where((parents >= 0) & (ids[pos] == parents), pos, -1)


def self_times(spans: dict, order: np.ndarray, pidx: np.ndarray) -> np.ndarray:
    """Span duration minus the part of it covered by its child spans (sorted order).

    Children recorded in the same process never overlap, so their durations
    add up; a span with children from pool workers gets the union of their
    intervals instead.
    """
    ids = spans["ids"][order]
    starts, ends = spans["starts"][order], spans["ends"][order]
    dur = ends - starts
    linked = pidx >= 0
    covered = np.bincount(pidx[linked], weights=dur[linked], minlength=len(ids))
    foreign = linked & ((ids >> 32) != (ids[np.maximum(pidx, 0)] >> 32))
    for p in np.unique(pidx[foreign]):
        kids = np.flatnonzero(pidx == p)
        iv = sorted(zip(starts[kids], ends[kids]))
        total, cur_lo, cur_hi = 0.0, iv[0][0], iv[0][1]
        for lo, hi in iv[1:]:
            if lo > cur_hi:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        total += cur_hi - cur_lo
        covered[p] = min(total, dur[p])
    return dur - covered


def layer_metrics(spans: dict, counts: Counter, names: list[str]) -> dict[str, float]:
    """Per-layer calls, self time and derived counts from one traced pass."""
    order, pidx = _parent_links(spans)
    kinds = spans["kinds"][order]
    self_s = self_times(spans, order, pidx)
    calls = np.bincount(kinds, minlength=len(names))
    busy = np.bincount(kinds, weights=self_s, minlength=len(names))
    kind_of = {name: k for k, name in enumerate(names)}
    out: dict[str, float] = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[k])
        out[f"{name}.self_s"] = float(busy[k])

    # bound_closing calls whose root took the refine fallback: the first
    # residual check is one hf_after_marginal call, the fallback makes more.
    hf_parent = pidx[kinds == kind_of["lending.hf_after_marginal"]]
    per_parent = np.bincount(hf_parent[hf_parent >= 0], minlength=len(kinds))
    bc = kinds == kind_of["lending.bound_closing"]
    out["lending.bound_closing.refine_fallbacks"] = int(np.count_nonzero(per_parent[bc] > 1))

    # attack_profit evaluations made on behalf of optimize_attack (directly
    # or through golden_max), per optimize_attack call.
    opt = kind_of["attack.optimize_attack"]
    anc = pidx[kinds == kind_of["attack.attack_profit"]]
    under = np.zeros(len(anc), dtype=bool)
    for _ in range(4):
        live = anc >= 0
        under[live] |= kinds[anc[live]] == opt
        anc = np.where(live & ~under, pidx[np.maximum(anc, 0)], -1)
    n_opt = int(calls[opt])
    out["attack.optimize_attack.evals_per_call"] = (
        float(np.count_nonzero(under)) / n_opt if n_opt else 0.0)

    out["lending.bound_closing.self_check_failures"] = counts.get(
        "lending.bound_closing.arithmetic_errors", 0)
    for key in [c[3] for c in COUNTED] + [
                "attack.attack_profit.infeasible", "attack.critical_fee.probes",
                "oracles.simulate_liquidation_sequence.steps"]:
        out[key] = counts.get(key, 0)
    for branch in ("quadratic", "linear", "none"):
        key = f"lending.bound_closing.branch.{branch}"
        out[key] = counts.get(key, 0)
    for binding in ("collateral", "debt", "closing_factor", "fee_gate"):
        key = f"engine.binding.{binding}"
        out[key] = counts.get(key, 0)
    return out

