"""Measurement helpers: percentiles, /proc accounting, arrival schedules.

Everything here is pure or reads ``/proc`` only, so the benchmark's own
tests can pin it down without starting a system under test.
"""

from __future__ import annotations

import os
import statistics
from collections.abc import Sequence

import numpy as np

#: Percentiles the tail helper may pick, lowest first.
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99)
#: A percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Nearest-rank percentile (the sample at rank ``ceil(n * q / 100)``)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, int(np.ceil(ordered.size * q / 100.0)))
    return float(ordered[rank - 1])


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the lowest rung has too few samples.
    """
    best = None
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            best = q
    return best


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


# -- /proc accounting -------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    """Fields 3.. of ``/proc/<pid>/stat`` (after the parenthesised name)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return text[text.rindex(")") + 2 :].split()


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant of it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(children.get(current, ()))
    return tree


def tree_cpu_seconds(pid: int) -> float:
    """User+sys CPU of ``pid`` and all its descendants, reaped ones included.

    Live processes contribute their own ``utime + stime``; every process
    also carries ``cutime + cstime`` of the children it has already
    waited for, so a descendant that exited is still counted.
    """
    ticks = 0
    for member in process_tree(pid):
        fields = _stat_fields(member)
        if fields is not None:
            ticks += sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / _CLK_TCK


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident set (``VmHWM``) of ``pid`` and its descendants."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kb / 1024.0


def host_cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the whole host from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    values = [int(v) for v in fields[1:9]]  # user .. steal
    return values[7], sum(values)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


# -- open-loop arrivals -------------------------------------------------


def poisson_schedule(rate: float, duration: float, seed: Sequence[int]) -> np.ndarray:
    """Seeded Poisson arrival offsets (seconds) in ``[0, duration)``.

    The same ``seed`` always yields the same schedule.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(list(seed)))
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 64)
    times = np.cumsum(gaps)
    while times[-1] < duration:  # astronomically rare: draw more
        more = times[-1] + np.cumsum(rng.exponential(1.0 / rate, size=gaps.size))
        times = np.concatenate([times, more])
    return times[times < duration]


# -- verdict checking ----------------------------------------------------


def verdict_mismatches(
    label: str,
    anomalies: np.ndarray,
    levels: np.ndarray,
    ref_anomalies: np.ndarray,
    ref_levels: np.ndarray,
) -> list[str]:
    """Compare a judged prefix with the reference, bit for bit.

    ``anomalies``/``levels`` may be shorter than the reference (a stream
    cut at the end of a run); anything beyond the reference is an error.
    """
    count = len(anomalies)
    if count > len(ref_anomalies) or len(levels) != count:
        return [f"{label}: {count} verdicts for {len(ref_anomalies)} packages"]
    bad = np.flatnonzero(
        (np.asarray(anomalies, dtype=bool) != ref_anomalies[:count])
        | (np.asarray(levels, dtype=np.int64) != ref_levels[:count])
    )
    if bad.size == 0:
        return []
    first = int(bad[0])
    return [
        f"{label}: {bad.size} verdict(s) differ from offline detect(), first at "
        f"package {first} (got {bool(anomalies[first])}/{int(levels[first])}, "
        f"want {bool(ref_anomalies[first])}/{int(ref_levels[first])})"
    ]


def verdict_mix(levels: np.ndarray) -> dict[str, int]:
    """Counts of verdicts per detection level (0 normal, 1 package, 2 time-series)."""
    levels = np.asarray(levels, dtype=np.int64)
    return {
        "normal": int((levels == 0).sum()),
        "package": int((levels == 1).sum()),
        "timeseries": int((levels == 2).sum()),
    }
