"""Speed probe: a fixed pure-Python kernel timed next to the ops it scales.

The machine the benchmark was defined on is a 2-vCPU VM shared with other
tenants.  Its speed switches between levels about 1.45x apart, in phases
that last from seconds to minutes, and the switches show in process CPU
time as much as in wall time, so neither clock filters them.  The probe
slows down with the ops around it.  Over 60 s of ``attack_search``, the
interquartile spread of 4 s passes was 0.35 of their median in raw time
and 0.03 as a ratio to the probe; over 90 s of ``oracle_verify`` passes
of ten verify commands, 0.24 and 0.08 (one 2,500-step kernel run per
probe).

``run.py`` therefore times the probe before and after every chunk of ops
and reports each op's time multiplied by ``REF_S / probe``: the time the
op would take on a machine where the probe takes exactly ``REF_S``.  An
op that ran on one CPU is scaled by ``here``, one that started oevsim's
process pool by ``every_cpu``.  The probe does not touch oevsim, so a
change to the program moves the scaled times as much as the raw ones.
Raw times are kept in the run's detail.
"""

from __future__ import annotations

import math
import os
from time import perf_counter

REF_S = 4e-4      # the probe's duration at reference speed
STEPS = 800
RUNS = 2          # each CPU's time is the fastest of these kernel runs
MAX_CPUS = 4      # CPUs probed by every_cpu; each adds about 1.2 ms


class _Pool:
    __slots__ = ("x", "y", "fee")

    def __init__(self, x: float, y: float, fee: float):
        self.x, self.y, self.fee = x, y, fee


def here() -> float:
    """Kernel duration in seconds on the CPU this process runs on now.

    It is the fastest of ``RUNS`` runs: a single run is now and then
    interrupted and takes twice as long or more; the fastest of two rarely
    is.  The kernel is the program's kind of work: constant-product swaps
    on Python floats, with a new small pool object after every swap.  A
    float-only loop tracked the ops less well: program time rose against
    it by up to 17% in slow phases.
    """
    return min(_run() for _ in range(RUNS))


def every_cpu() -> float:
    """Kernel duration in seconds, averaged over the CPUs this process may use.

    The process is pinned to each CPU in turn, and its affinity restored
    after.  This is the speed that counts for work spread over oevsim's
    process pool, as the vCPUs slow down independently: scaled by ``here``
    alone, ``sweep_csv``, whose larger sweeps run on the pool, measured up
    to 20% slower in some runs than in others.  Scaled by ``every_cpu``
    alone, single-process commands spread more (``attack_search`` 0.09
    against 0.03), because they run on one CPU only.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        return here()
    times = []
    try:
        for cpu in sorted(cpus)[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(here())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def _run() -> float:
    t0 = perf_counter()
    pool, acc = _Pool(1000.0, 2000.0, 0.003), 0.0
    for i in range(STEPS):
        dx = 1.0 + (i % 17) * 0.01
        y_after = pool.x * pool.y / (pool.x + dx * (1.0 - pool.fee))
        acc += math.sqrt(pool.y - y_after) + math.log1p(dx)
        pool = _Pool(pool.x + dx, y_after, pool.fee)
    return perf_counter() - t0
