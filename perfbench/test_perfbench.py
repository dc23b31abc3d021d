"""Tests of the benchmark itself (its helpers, its checks and a tiny run).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import hostspeed, inputs, measure, workloads
from perfbench.inputs import ROOT, SMOKE

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_poisson_schedule_repeats_exactly_for_a_seed():
    first = measure.poisson_schedule(300.0, 5.0, (4, 1, 0))
    again = measure.poisson_schedule(300.0, 5.0, (4, 1, 0))
    other = measure.poisson_schedule(300.0, 5.0, (5, 1, 0))
    np.testing.assert_array_equal(first, again)
    assert not np.array_equal(first[:100], other[:100])
    assert np.all(np.diff(first) > 0) and first[0] >= 0 and first[-1] < 5.0
    assert 1300 < first.size < 1700  # 300/s for 5 s


@pytest.mark.parametrize(
    "count, expected",
    [(99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0),
     (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert measure.tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = np.arange(1, 101, dtype=float)
    assert measure.percentile(values, 50) == 50.0
    assert measure.percentile(values, 99) == 99.0
    assert measure.percentile(values[::-1], 100) == 100.0


_BURNER = """
import sys, time
start = time.process_time()
while time.process_time() - start < 0.5:
    pass
print("burned", flush=True)
sys.stdin.readline()
"""

_PARENT = f"""
import subprocess, sys
child = subprocess.Popen([sys.executable, "-c", {_BURNER!r}],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)
print(child.stdout.readline().decode().strip(), flush=True)
sys.stdin.readline()
child.stdin.close()
child.wait()
print("reaped", flush=True)
sys.stdin.readline()
"""


def _own_cpu(pid: int) -> float:
    fields = measure._stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / measure._CLK_TCK


def test_cpu_accounting_includes_descendants():
    proc = subprocess.Popen(
        [sys.executable, "-c", _PARENT], stdin=subprocess.PIPE, stdout=subprocess.PIPE
    )
    try:
        assert proc.stdout.readline().strip() == b"burned"
        assert len(measure.process_tree(proc.pid)) == 2
        assert _own_cpu(proc.pid) < 0.3
        assert measure.tree_cpu_seconds(proc.pid) >= 0.45  # live grandchild
        proc.stdin.write(b"\n")
        proc.stdin.flush()
        assert proc.stdout.readline().strip() == b"reaped"
        assert measure.process_tree(proc.pid) == [proc.pid]
        assert measure.tree_cpu_seconds(proc.pid) >= 0.45  # reaped grandchild
        assert measure.tree_peak_rss_mb(proc.pid) > 1.0
    finally:
        proc.kill()
        proc.wait(timeout=10)


def test_a_single_flipped_verdict_is_a_mismatch():
    rng = np.random.default_rng(0)
    anomalies = rng.random(200) < 0.3
    levels = np.where(anomalies, 1 + (rng.random(200) < 0.5), 0).astype(np.int64)
    assert measure.verdict_mismatches("s", anomalies, levels, anomalies, levels) == []
    assert measure.verdict_mismatches("s", anomalies[:50], levels[:50],
                                      anomalies, levels) == []
    flipped = anomalies.copy()
    flipped[137] = not flipped[137]
    found = measure.verdict_mismatches("s", flipped, levels, anomalies, levels)
    assert len(found) == 1 and "first at package 137" in found[0]
    relevelled = levels.copy()
    relevelled[3] = 2 if levels[3] == 1 else 1
    assert measure.verdict_mismatches("s", anomalies, relevelled, anomalies, levels)
    assert measure.verdict_mismatches("s", np.ones(201, bool), np.ones(201, np.int64),
                                      anomalies, levels)


def test_slowdown_is_the_interval_median_over_the_reference():
    samples = [(0.0, 0.002), (1.0, 0.004), (1.1, 0.006), (1.2, 0.008), (5.0, 0.002)]
    assert hostspeed.slowdown(samples, 1.0, 2.0) == pytest.approx(0.006 / hostspeed.REFERENCE_S)
    # Too few samples inside: the median of all of them.
    assert hostspeed.slowdown(samples, 4.0, 6.0) == pytest.approx(0.004 / hostspeed.REFERENCE_S)
    with pytest.raises(ValueError):
        hostspeed.slowdown([], 0.0, 1.0)


def test_probe_runs_on_the_given_cpu_and_stops():
    cpu = min(os.sched_getaffinity(0))
    with hostspeed.probing(ROOT, {**os.environ, "PYTHONPATH": str(ROOT)}, {cpu}) as samples:
        deadline = time.perf_counter() + 0.6
        while time.perf_counter() < deadline:
            time.sleep(0.05)
    assert len(samples) >= 2
    assert all(t < time.perf_counter() and cpu_s > 0 for t, cpu_s in samples)


@pytest.fixture()
def smoke_build(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "BUILD", tmp_path / "build")
    return tmp_path


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run_of_each_workload_passes(name, smoke_build):
    # 1-s windows, so a slow host still judges packages in each of them.
    run = workloads.run_workload(name, seed=3, seconds=2.0, trace=True, sizes=SMOKE)
    assert run.correct, run.details
    assert run.attempted > 0 and run.failed == 0
    e2e_names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(run.end_to_end) == e2e_names
    # CPU is read in clock ticks, which a tiny window may not reach.
    assert all(value >= 0 for value, _ in run.end_to_end.values())
    assert run.end_to_end["throughput_pkg_per_s"][0] > 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    line = run.result_line(trace=True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    # Every workload's traced line holds every per-layer metric, no more.
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric, entry in line["metrics"].items():
        assert units[metric] == entry["unit"], metric
    layer_metrics = run.details[-1]["layer_metrics"]
    if name.startswith("serve_"):
        assert "gateway.queue_ms_p50" in layer_metrics
        assert "historian.append_us" in layer_metrics
    else:
        assert "core.detect.self_us_per_pkg" in layer_metrics
    assert not list(inputs.BUILD.glob("run-*"))  # run directory removed


def test_a_flipped_reference_verdict_fails_the_run(smoke_build, monkeypatch):
    honest = inputs.engine_reference

    def corrupted(detector, packages):
        anomalies, levels = honest(detector, packages)
        anomalies = anomalies.copy()
        anomalies[5] = not anomalies[5]
        return anomalies, levels

    monkeypatch.setattr(inputs, "engine_reference", corrupted)
    run = workloads.run_workload("offline_detect", seed=3, seconds=0.5, trace=False,
                                 sizes=SMOKE)
    assert not run.correct
    assert any("package 5" in m for d in run.details for m in d["mismatches"])


def test_benchmark_refuses_to_run_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_detect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
