"""A fixed reference task that measures how fast the host runs at the moment.

On a shared host the CPU's speed moves by up to 1.7x, in phases that last
from seconds to many minutes: a fixed Python loop takes 15.5 ms in one
minute and 24 ms a few minutes later, and every workload slows with it. Over
the ten invocations of a comparison, those phases spread plain run times by
as much as the 25% that the benchmark's bounds allow.

So the benchmark times this task right before and right after every run and
scales the run's time by the host's speed: ``seconds * factor(before,
after)``. A figure scaled this way is what the run would take on the same
host running at the speed at which the task takes ``NOMINAL_S``; plain
seconds are printed beside it.

The task never calls qmeter, so no change to the program can move it. It has
one part for each kind of work the workloads do: the interpreter (per-case
Python in ``verify``), LAPACK on a dense Hermitian matrix (the per-outcome
linear algebra of ``characterize``), and a pass over a large array (the
vectorised Monte Carlo of ``scenario``). Its inputs are built once, outside
the timed parts.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

# Seconds each part takes on a 2-vCPU Intel Xeon VM (numpy 2.4.6, OpenBLAS
# 0.3.31, one BLAS thread) in its fast phase. They fix the unit of the
# scaled figures and never change, so scaled figures from different commits
# compare directly.
NOMINAL_S = (0.0060, 0.0040, 0.0085)
# Timings per part in one sample; their median evens out millisecond jitter.
REPEATS = 5


@functools.cache
def _inputs():
    # numpy loads on first use, so importing this module does not move the
    # set-up time the benchmark measures.
    import numpy as np
    rng = np.random.default_rng(20020916)
    a = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    values = rng.standard_normal(1_000_000)
    return np.linalg.eigh, a + a.conj().T, values, np.empty_like(values)


def _python() -> int:
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def _lapack() -> None:
    eigh, hermitian, _, _ = _inputs()
    for _ in range(2):
        eigh(hermitian)


def _array() -> None:
    _, _, values, buffer = _inputs()
    buffer[:] = values
    buffer.sort()


def sample() -> tuple[float, ...]:
    """Seconds each part of the task takes now, the median of REPEATS timings."""
    _inputs()
    times = [[], [], []]
    for _ in range(REPEATS):
        for part, seconds in zip((_python, _lapack, _array), times):
            start = time.perf_counter()
            part()
            seconds.append(time.perf_counter() - start)
    return tuple(statistics.median(seconds) for seconds in times)


def factor(before: tuple[float, ...], after: tuple[float, ...]) -> float:
    """Scale for a run between two samples: nominal over measured part time,
    as a geometric mean over the parts."""
    logs = [math.log(nominal / ((b + a) / 2))
            for nominal, b, a in zip(NOMINAL_S, before, after)]
    return math.exp(sum(logs) / len(logs))
