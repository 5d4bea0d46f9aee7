"""oevsim benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep_csv --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The op list of the workload (at least 100 ops) is built from
``--seed`` and run in passes, in this process: at least one, and more
while they fit in ``--seconds``.  Every op is checked (see
``workloads.py``).

Times are scaled to a reference machine speed: every chunk of ops is
bracketed by the speed probe of ``calib.py`` and its ops' times are
multiplied by ``calib.REF_S`` over the probe's time (see there for why).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``     median scaled time to import ``oevsim.cli`` in a fresh interpreter
* ``wall_s``      one pass over the op list, each op at its median scaled time
* ``op_ms_p50``, ``op_ms_p90``  percentiles of the ops' median scaled latencies
* ``ok_share``    ops that passed their check in every pass / ops (``1 - fail_share``)
* ``peak_rss_mb`` peak RSS of this process and of oevsim's pool workers

``attempted`` and ``failed`` count distinct ops of the op list, not passes,
so they depend only on the seed.

``--trace 1`` runs the op list once untraced and once under the span tracer
(``tracing.py``) and reports the per-layer metrics of the traced pass and
the tracing overhead (traced pass minus untraced pass, raw time).

The last stdout line is the result object; the line before it, and a file
under ``.perfbench/results/``, hold the detail: sample counts, raw times,
probe times, failures, whether the process pool engaged, and the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(".perfbench/results")
WORKLOADS = ("sweep_csv", "attack_search", "oracle_verify", "edge_states")
MIN_OPS = 100          # distinct ops per pass: p90 needs ten samples beyond it
CHUNK_S = 0.020        # ops run back to back between two speed probes, in raw time
MAX_PASSES = 32       # sample rows allocated up front, so peak RSS does not grow with passes
SETUP_REPEATS = 11
SETUP_PROBES = 5       # speed probes before and after the import, each

IMPORT_PROBE = f"""
import statistics, sys, time
sys.path.insert(0, "perfbench")
from calib import here
before = [here() for _ in range({SETUP_PROBES})]
t = time.perf_counter(); import oevsim.cli; seconds = time.perf_counter() - t
after = [here() for _ in range({SETUP_PROBES})]
import oevsim
print(repr(seconds), repr(statistics.median(before + after)), oevsim.__file__)
"""


def measure_setup(n: int) -> list[tuple[float, float]]:
    """(import seconds, probe seconds) of ``oevsim.cli`` in ``n`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, probe_s, origin = proc.stdout.split()
        if not Path(origin).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"fresh interpreter imported oevsim from {origin}")
        samples.append((float(seconds), float(probe_s)))
    return samples


def count_pool_starts(cli) -> list[int]:
    """Count the process pools oevsim.cli starts (one per pooled sweep)."""
    base, starts = cli.ProcessPoolExecutor, [0]

    class CountedPool(base):
        def __init__(self, *args, **kwargs):
            starts[0] += 1
            super().__init__(*args, **kwargs)

    cli.ProcessPoolExecutor = CountedPool
    return starts


class Tally:
    """Per-op scaled latencies over the passes of a run, and the ops that failed.

    An op fails if any of its runs raises or fails its check; ``failed``
    counts such ops once, so it depends on the op list only.
    """

    def __init__(self, ops, pool_starts: list[int]):
        import numpy as np

        self.ops = ops
        self.pool_starts = pool_starts
        # Seconds at reference speed: one row per pass, one column per op.
        self.scaled = np.full((MAX_PASSES, len(ops)), np.nan)
        self.passes = 0
        self.probes: dict[str, list[float]] = {"here": [], "every_cpu": []}
        self.failed: dict[int, bool] = {}   # op index -> wrong answer (not just raised)
        self.failures: dict[str, str] = {}

    def run_pass(self, refs) -> float:
        """Run every op once, in probe-bracketed chunks, and check it.

        Between two chunks the probe runs on this CPU, on every CPU, and
        on this CPU again, so that each chunk has both probes on both
        sides (see ``calib.py``).  Returns the raw time spent inside the ops.
        """
        from calib import REF_S, every_cpu, here

        ops, n, busy, i = self.ops, len(self.ops), 0.0, 0
        row = self.scaled[self.passes]
        self.passes += 1
        all_before = every_cpu()
        here_before = here()
        while i < n:
            chunk, spent = [], 0.0
            while i < n and spent < CHUNK_S:
                result, error = None, None
                starts = self.pool_starts[0]
                t0 = perf_counter()
                try:
                    result = ops[i].call()
                except Exception as exc:  # a crash is a failed op
                    error = exc
                dt = perf_counter() - t0
                spent += dt
                chunk.append((i, dt, self.pool_starts[0] > starts, result, error))
                i += 1
            here_after = here()
            all_after = every_cpu()
            self.probes["here"] += (here_before, here_after)
            self.probes["every_cpu"] += (all_before, all_after)
            one_cpu = 2 * REF_S / (here_before + here_after)
            pooled = 2 * REF_S / (all_before + all_after)
            all_before = all_after
            here_before = here()
            busy += spent
            for k, dt, used_pool, result, error in chunk:
                row[k] = dt * (pooled if used_pool else one_cpu)
                op = ops[k]
                if error is not None:
                    # A crash escaping cli.main is a wrong answer; a library call
                    # that raises is a failed op that returned nothing.
                    self._fail(k, f"{type(error).__name__}: {error}", wrong=refs is not None)
                elif not op.check(result, refs[op.id] if refs is not None else None):
                    self._fail(k, "output differs from its check", wrong=True)
        return busy

    def _fail(self, k: int, why: str, wrong: bool) -> None:
        self.failed[k] = self.failed.get(k, False) or wrong
        self.failures.setdefault(self.ops[k].id, why[:300])

    @property
    def wrong(self) -> int:
        return sum(self.failed.values())

    def op_seconds(self) -> list[float]:
        """Each op's median scaled time over the passes."""
        import numpy as np

        return np.median(self.scaled[:self.passes], axis=0).tolist()


def environment(workload: str, seed: int, workers_env: str | None) -> dict:
    import numpy
    import yaml

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "pyyaml": yaml.__version__,
        "git_sha": git_sha(), "oevsim_workers_env": workers_env,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def peak_rss_mb() -> tuple[float, float]:
    """(this process, largest waited-for child) peak RSS in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, kids


def build_ops(workload: str, seed: int):
    import workloads

    if workload == "edge_states":
        return workloads.edge_ops(seed), None
    ops = workloads.cli_ops(workload, seed)
    refs = json.loads(workloads.REFS.read_text())
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    for op in ops:
        op.prepare()
        ref = refs.get(op.id)
        if ref is None or ref["input"] != op.input_digest():
            raise RuntimeError(f"{op.id}: input differs from the one refs.json was recorded for")
    return ops, refs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "oevsim" / "cli.py").is_file():
        print("perfbench: src/oevsim not found; run from an oevsim source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The program's own pool sizing applies, as for a user who sets nothing.
    workers_env = os.environ.pop("OEVSIM_WORKERS", None)

    import oevsim
    from oevsim import cli

    if not Path(oevsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported oevsim from {oevsim.__file__}")
    pool_starts = count_pool_starts(cli)
    ops, refs = build_ops(args.workload, args.seed)
    if len(ops) < MIN_OPS:
        raise RuntimeError(f"{args.workload}: {len(ops)} ops per pass, fewer than {MIN_OPS}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"env": environment(args.workload, args.seed, workers_env),
              "ops_per_pass": len(ops)}

    tally = Tally(ops, pool_starts)
    # The benchmark's own objects (op list, inputs) leave the cyclic
    # collector's view, so the program's collections do not scan them.
    gc.collect()
    gc.freeze()
    if args.trace:
        values = traced_run(ops, refs, tally, pool_starts, stem, detail)
    else:
        values = timed_run(refs, tally, pool_starts, args.seconds, detail)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    failed = len(tally.failed)
    detail.update(ops=len(ops), ops_failed=failed, ops_wrong=tally.wrong,
                  ops_raised=failed - tally.wrong, fail_share=failed / len(ops),
                  failures=dict(list(tally.failures.items())[:50]))
    result = {"correct": tally.wrong == 0, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps({"detail": detail, "result": result},
                                                    indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def timed_run(refs, tally, pool_starts, seconds, detail) -> dict:
    """One pass over the op list, then more while they fit in ``seconds``.

    A further pass starts only if one more pass of the average length still
    ends within ``seconds``.  Each op's latency is the median of its scaled
    times over the passes, and ``wall_s`` is their sum: one pass over the
    op list at reference speed.  Setup samples are spread over the run.
    """
    from calib import REF_S

    setup, passes, raw = [], [], []
    while not passes or (len(passes) < MAX_PASSES
                         and sum(passes) * (len(passes) + 1) / len(passes) <= seconds):
        setup += measure_setup(min(2, SETUP_REPEATS - len(setup)))
        t0 = perf_counter()
        raw.append(tally.run_pass(refs))
        passes.append(perf_counter() - t0)
    setup += measure_setup(SETUP_REPEATS - len(setup))
    own_rss, child_rss = peak_rss_mb()
    op_s = tally.op_seconds()
    deciles = statistics.quantiles([x * 1e3 for x in op_s], n=10)
    detail.update(passes=len(passes), pass_s=passes, raw_op_s=raw, op_samples=len(op_s),
                  probe_s_quartiles={k: statistics.quantiles(v, n=4)
                                     for k, v in tally.probes.items()},
                  setup_samples=[{"import_s": t, "probe_s": p} for t, p in setup],
                  pool_starts=pool_starts[0], pool_engaged=pool_starts[0] > 0,
                  peak_rss_own_mb=own_rss, peak_rss_children_mb=child_rss)
    return {
        "setup_s": statistics.median(t * REF_S / p for t, p in setup),
        "wall_s": sum(op_s),
        "op_ms_p50": deciles[4],
        "op_ms_p90": deciles[8],
        "ok_share": (len(tally.ops) - len(tally.failed)) / len(tally.ops),
        "peak_rss_mb": max(own_rss, child_rss),
    }


def traced_run(ops, refs, tally, pool_starts, stem, detail) -> dict:
    import numpy as np
    import tracing
    import workloads

    untraced = tally.run_pass(refs)
    starts_before = pool_starts[0]
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(workloads.WORK.resolve())
    tracer.install()
    traced = tally.run_pass(refs)
    spans, counts = tracer.collect()
    layers = tracing.layer_metrics(spans, counts, tracer.names)
    layers["cli.csv_bytes"] = sum(op.csv_bytes() for op in ops)
    layers["cli.pool_commands"] = pool_starts[0] - starts_before
    layers["trace.overhead_s"] = traced - untraced
    np.savez_compressed(stem.with_name(stem.name + "-spans.npz"), **spans,
                        names=np.array(tracer.names))
    detail.update(untraced_pass_s=untraced, traced_pass_s=traced, spans=len(spans["ids"]),
                  pool_engaged=pool_starts[0] > 0,
                  pool_spans="collected from the pool workers",
                  peak_rss_own_mb=peak_rss_mb()[0])
    return layers


if __name__ == "__main__":
    sys.exit(main())
