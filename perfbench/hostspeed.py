"""Host-speed probe: a fixed reference kernel timed beside the SUT.

    python -m perfbench.hostspeed

On a shared VM the speed of one vCPU changes by up to 2x in states that
last from seconds to minutes, with no steal reported.  CPU time per
package follows it, so an absolute time cannot hold a tight bound.  The
probe runs a fixed kernel (interpreter work and small numpy calls, like
the detector's per-tick mix) every ``PERIOD_S`` on the SUT's vCPU and
records its CPU time.  A timing of
the SUT divided by the probe's slowdown over the same interval is the
timing at the reference speed; the probe's kernel never changes with
the program, so a change to the program still moves it in full.

The probe reads nothing but stdin: end of input stops it, and it then
prints one ``perf_counter() cpu_seconds`` line per kernel run.
"""

from __future__ import annotations

import functools
import os
import select
import subprocess
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

#: Pause between kernel runs; at ~3 ms a run the probe takes ~2% of its vCPU.
PERIOD_S = 0.15
#: Roughly the kernel's CPU time on the build host (2-vCPU Xeon VM) in a fast state.
REFERENCE_S = 0.0025
#: Fewest probe samples an interval needs before its own median is used.
MIN_SAMPLES = 3

_RNG = np.random.default_rng(0)
_WEIGHTS = _RNG.standard_normal((64, 256))
_ROW = _RNG.standard_normal((1, 64))
_VECTOR = _RNG.standard_normal(64)


def kernel() -> float:
    """One fixed unit of work; the result only keeps it from being optimised away."""
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(1600):
        key = i % 53
        counts[key] = counts.get(key, 0) + 1
        total += len(str(i))
        if i % 10 == 0:
            total += float(np.tanh(_ROW @ _WEIGHTS)[0, 0])
            total += float(np.argsort(np.concatenate([_VECTOR, _VECTOR]))[0])
    return total


def slowdown(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Median probe CPU time in ``[start, end)`` over ``REFERENCE_S``.

    Falls back to all samples when the interval holds fewer than
    ``MIN_SAMPLES``.
    """
    inside = [cpu for t, cpu in samples if start <= t < end]
    if len(inside) < MIN_SAMPLES:
        inside = [cpu for _, cpu in samples]
    if not inside:
        raise ValueError("the host-speed probe recorded no samples")
    return float(np.median(inside)) / REFERENCE_S


@contextmanager
def probing(cwd, env: dict[str, str], cpus: set[int]) -> Iterator[list[tuple[float, float]]]:
    """Run the probe pinned to ``cpus`` for the block.

    Yields a list that holds the probe's ``(time, CPU seconds)`` samples
    once the block has ended.
    """
    samples: list[tuple[float, float]] = []
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.hostspeed"], cwd=cwd, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        preexec_fn=functools.partial(os.sched_setaffinity, 0, cpus),
    )
    try:
        yield samples
    finally:
        try:
            out, _ = proc.communicate(b"", timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        samples.extend(
            (float(started), float(cpu))
            for started, cpu in (line.split() for line in out.decode().splitlines())
        )


def main() -> int:
    kernel()  # first run pays for imports and page faults
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        started, cpu = time.perf_counter(), time.process_time()
        kernel()
        samples.append((started, time.process_time() - cpu))
    for started, cpu in samples:
        print(f"{started!r} {cpu!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
