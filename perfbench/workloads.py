"""The three workloads: inputs, SUT processes, measurement and checks.

Each workload generates its captures from the workload seed and runs the
system under test as ``processes`` separate child processes in turn.
Each is cold-started (``setup_s`` is the median spawn-to-ready time) and
then measured for its share of the run's seconds in ``windows`` equal
windows; a process's speed differs from the next one's by up to 30% on
the same inputs, so no one process decides a run.  Every verdict is
checked against offline references computed in this process, untimed.

The SUT and a host-speed probe (:mod:`perfbench.hostspeed`) share one
vCPU; this process and the load generator sit on another.  Every timing
of the SUT is divided by the probe's slowdown over the same interval,
and end-to-end metrics are medians over the windows of those adjusted
timings.  With ``trace`` a second, traced phase follows on the same
inputs and yields the per-layer metrics; end-to-end metrics always come
from the untraced phase.
"""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

from perfbench import hostspeed, inputs, layers, loadgen, measure
from perfbench.inputs import FULL, ROOT, SRC, Sizes

WORKLOADS = ("offline_detect", "serve_open_loop", "serve_saturate")
#: One dialect per connection; the two serving workloads together cover all three.
#: Saturation uses one connection: with two, the rows per tick (and with them
#: the CPU per package) settle anywhere from 1.5 to 2 depending on how the
#: two connections' sends interleave, which differs from run to run.
SERVE_DIALECTS = {
    "serve_open_loop": ("modbus", "dnp3"),
    "serve_saturate": ("iec104",),  # its frames are the cheapest to build (~11 us)
}
#: The per-layer metrics of the result line (``--trace 1``): those every
#: workload measures, since the line must hold the same names on each.
#: Layers that run on some workloads only (the gateway stages, the ops
#: planes, transport, ``core.detect``) are in the traced phase's detail
#: line under ``layer_metrics``.
RESULT_LAYERS = (
    "persistence.load_s",
    "core.discretize.us_per_row",
    "core.package.us_per_row",
    "core.package.flagged_share",
    "nn.step.us_per_call",
    "nn.step.us_per_row",
    "core.encode.us_per_row",
    "core.topk.us_per_row",
    "core.timeseries.self_us_per_row",
    "core.engine.self_us_per_tick",
    "core.engine.rows_per_tick",
    "host.steal_share",
    "raw.throughput_pkg_per_s",
    "raw.cpu_us_per_pkg",
    "raw.setup_s",
    "host.slowdown",
    "trace.overhead_share",
    "failed_share",
)
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """The run could not be measured (a process failed or timed out)."""


@dataclass
class Phase:
    """What one measured phase (untraced or traced) produced."""

    windows: list[dict]  # each with start, wall, packages, cpu
    setup: list[tuple[float, float]]  # (spawn time, seconds to ready) per cold start
    probe: list[tuple[float, float]]  # host-speed samples: (time, kernel CPU seconds)
    peak_rss_mb: list[float]  # per SUT process
    attempted: int
    judged: int
    mismatches: list[str]
    mix: dict[str, int]
    layers: dict | None = None
    extra: dict = field(default_factory=dict)


# -- child processes ------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def _placement(available: set[int]) -> tuple[set[int], set[int]]:
    """vCPUs for the SUT with its probe, and for this process with the generator."""
    cpus = sorted(available)
    return {cpus[0]}, {cpus[-1]}


def _stop(proc: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    """Signal ``proc`` unless it has exited, wait for it, close its pipes."""
    if proc.poll() is None:
        proc.send_signal(sig)
    try:
        proc.wait(timeout=EXIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None and not pipe.closed:
            pipe.close()


def _log_tail(path: Path) -> str:
    try:
        return path.read_text(errors="replace")[-2000:]
    except FileNotFoundError:
        return ""


# -- metrics ----------------------------------------------------------------


def _slowdowns(phase: Phase) -> list[float]:
    return [hostspeed.slowdown(phase.probe, w["start"], w["start"] + w["wall"])
            for w in phase.windows]


def _cpu_per_pkg(phase: Phase, adjusted: bool = True) -> float:
    factors = _slowdowns(phase) if adjusted else [1.0] * len(phase.windows)
    return measure.median([w["cpu"] / w["packages"] * 1e6 / f
                           for w, f in zip(phase.windows, factors)])


def _throughput(name: str, phase: Phase, adjusted: bool = True) -> float:
    # The open loop's rate is the offered one, not bound by compute: never scaled.
    if adjusted and name != "serve_open_loop":
        factors = _slowdowns(phase)
    else:
        factors = [1.0] * len(phase.windows)
    return measure.median([w["packages"] / w["wall"] * f
                           for w, f in zip(phase.windows, factors)])


def _setup_s(phase: Phase, adjusted: bool = True) -> float:
    return measure.median([
        seconds / (hostspeed.slowdown(phase.probe, start, start + seconds)
                   if adjusted else 1.0)
        for start, seconds in phase.setup
    ])


def end_to_end(name: str, phase: Phase) -> dict[str, tuple[float, str]]:
    """Speed-adjusted medians over the phase's windows, as ``name -> (value, unit)``."""
    return {
        "throughput_pkg_per_s": (_throughput(name, phase), "pkg/s"),
        "cpu_us_per_pkg": (_cpu_per_pkg(phase), "us/pkg"),
        "peak_rss_mb": (measure.median(phase.peak_rss_mb), "MB"),
        "setup_s": (_setup_s(phase), "s"),
    }


def latency_summary(latency_s: np.ndarray) -> dict:
    """p50 and the highest percentile with enough samples beyond it, in ms."""
    tail = measure.tail_percentile(latency_s.size)
    summary = {"samples": int(latency_s.size), "tail_percentile": tail}
    if latency_s.size:
        summary["p50_ms"] = measure.percentile(latency_s, 50) * 1e3
    if tail is not None:
        summary["tail_ms"] = measure.percentile(latency_s, tail) * 1e3
    return summary


# -- in-process workloads ---------------------------------------------------


def _in_process_phase(model, captures, refs, sizes, seconds, trace, rundir, cpus):
    payload_path = rundir / "inputs.pkl"
    inputs.write_pickle(payload_path, {"captures": captures})
    log = rundir / "sut.log"
    windows, setup, rss, mismatches, levels_seen = [], [], [], [], []
    judged, snapshot = 0, None
    host0 = measure.host_cpu_ticks()
    with hostspeed.probing(ROOT, _env(), cpus) as probe:
        for index in range(1 if trace else sizes.processes):
            result_path = rundir / f"result-{int(trace)}-{index}.pkl"
            cmd = [
                sys.executable, "-m", "perfbench.sut", "--model", str(model),
                "--inputs", str(payload_path), "--result", str(result_path),
                "--seconds", str(seconds / sizes.processes),
                "--windows", str(sizes.windows),
            ] + (["--trace"] if trace else [])
            proc = None
            try:
                with open(log, "ab") as log_handle:
                    started = perf_counter()
                    proc = subprocess.Popen(
                        cmd, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE, stderr=log_handle,
                        preexec_fn=functools.partial(os.sched_setaffinity, 0, cpus),
                    )
                if proc.stdout.readline().strip() != b"READY":
                    raise BenchError(f"SUT did not start: {_log_tail(log)}")
                setup.append((started, perf_counter() - started))
                proc.stdin.write(b"GO\n")
                proc.stdin.close()
                code = proc.wait(timeout=seconds + 120)
                if code != 0:
                    raise BenchError(f"SUT exited with {code}: {_log_tail(log)}")
            finally:
                if proc is not None:
                    _stop(proc, signal.SIGKILL)
            result = inputs.read_pickle(result_path)
            windows += result["windows"]
            rss.append(result["peak_rss_mb"])
            snapshot = result["layers"]
            for number, (anomalies, levels) in enumerate(result["passes"]):
                capture = number % len(captures)
                ref_a, ref_l = refs[capture]
                mismatches += measure.verdict_mismatches(
                    f"process {index} pass {number} capture {capture}",
                    anomalies, levels, ref_a, ref_l,
                )
                levels_seen.append(np.asarray(levels))
                judged += len(anomalies)
    return Phase(
        windows=windows,
        setup=setup,
        probe=probe,
        peak_rss_mb=rss,
        attempted=judged,
        judged=judged,
        mismatches=mismatches,
        mix=measure.verdict_mix(np.concatenate(levels_seen)),
        layers=snapshot,
        extra={"steal_share": measure.steal_share(host0, measure.host_cpu_ticks())},
    )


def _offline_inputs(seed, sizes, detector):
    captures = [
        inputs.capture(seed, "offline_detect", i, sizes.offline_len)
        for i in range(sizes.offline_captures)
    ]
    # offline_detect must equal the 1-stream StreamEngine path.
    return captures, [inputs.engine_reference(detector, c) for c in captures]


# -- serving workloads ------------------------------------------------------


def _read_ports(path: Path) -> tuple[tuple[str, int], tuple[str, int]] | None:
    try:
        lines = path.read_text().splitlines(keepends=True)
    except FileNotFoundError:
        return None
    if len(lines) < 2 or not lines[1].endswith("\n"):
        return None
    host, port = lines[0].split()
    _, http_host, http_port = lines[1].split()
    return (host, int(port)), (http_host, int(http_port))


def _get_json(address: tuple[str, int], path: str) -> dict:
    url = f"http://{address[0]}:{address[1]}{path}"
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.load(response)


def _start_server(model, rundir: Path, tag: str, trace: bool, cpus: set[int]):
    port_file = rundir / f"port-{tag}"
    cmd = [
        "serve", "--model", str(model), "--host", "127.0.0.1", "--port", "0",
        "--port-file", str(port_file), "--http-port", "0",
        "--historian", str(rundir / f"historian-{tag}"), "--quiet",
    ]
    if trace:
        cmd = [sys.executable, "-m", "perfbench.serve_launcher",
               str(rundir / "layers.json")] + cmd + [
            "--trace-sample", "1", "--trace-export", str(rundir / "spans.jsonl")]
    else:
        cmd = [sys.executable, "-m", "repro"] + cmd
    log = rundir / f"serve-{tag}.log"
    with open(log, "wb") as log_handle:
        started = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
            stdout=log_handle, stderr=subprocess.STDOUT,
            preexec_fn=functools.partial(os.sched_setaffinity, 0, cpus),
        )
    try:
        while (ports := _read_ports(port_file)) is None:
            if proc.poll() is not None:
                raise BenchError(f"gateway exited with {proc.returncode}: {_log_tail(log)}")
            if perf_counter() - started > READY_TIMEOUT_S:
                raise BenchError("gateway did not become ready")
            sleep(0.002)
    except BaseException:
        _stop(proc, signal.SIGKILL)
        raise
    return proc, (started, perf_counter() - started), ports


def _serve_phase(name, model, detector, captures, frames, sizes, seconds, trace,
                 rundir, seed, cpus):
    if name == "serve_open_loop":
        drive = {"rate": sizes.open_rate}
    else:
        drive = {"window": sizes.saturate_window}
    dialects = SERVE_DIALECTS[name]
    loads, setup, rss, stats = [], [], [], []
    with hostspeed.probing(ROOT, _env(), cpus) as probe:
        for index in range(1 if trace else sizes.processes):
            tag = f"{int(trace)}-{index}"
            proc = None
            try:
                proc, ready, (gateway, http) = _start_server(model, rundir, tag, trace, cpus)
                setup.append(ready)
                loads.append(loadgen.run_load(
                    gateway, list(zip(dialects, frames[index])),
                    sut_pid=proc.pid, key_prefix=f"{name}-{tag}",
                    warmup_s=sizes.warmup_s,
                    window_s=seconds / sizes.processes / sizes.windows,
                    windows=sizes.windows, schedule_seed=(seed, int(trace), index),
                    **drive,
                ))
                stats.append(_get_json(http, "/stats"))
                rss.append(measure.tree_peak_rss_mb(proc.pid))
                _stop(proc)
                if proc.returncode != 0:
                    raise BenchError(f"gateway exited with {proc.returncode}")
            except OSError as exc:
                raise BenchError(f"load generator could not reach the gateway: {exc}") from exc
            finally:
                if proc is not None:
                    _stop(proc, signal.SIGKILL)

    # Untimed: detect() of each capture's judged prefix is the reference.
    mismatches, levels_seen = [], []
    for index, load in enumerate(loads):
        for record, capture in zip(load.streams, captures[index]):
            ref_a, ref_l = inputs.detect_reference(detector, capture[: len(record.levels)])
            mismatches += measure.verdict_mismatches(
                f"process {index} connection {record.connection} ({record.dialect})",
                np.asarray(record.anomalies, dtype=bool),
                np.asarray(record.levels, dtype=np.int64), ref_a, ref_l,
            )
            levels_seen.append(np.asarray(record.levels, dtype=np.int64))
    windows = [w for load in loads for w in load.windows]
    if any(w["packages"] == 0 for w in windows):
        raise BenchError("a measurement window judged no packages")
    latency_s = np.concatenate([load.latency_s for load in loads])
    extra = {
        "errors": [e for load in loads for e in load.errors],
        "stats": stats,
        "latency": latency_summary(latency_s),
        "latency_s": latency_s,
        "lateness_s": np.concatenate([load.lateness_s for load in loads]),
        "loadgen_cpu_us_per_pkg": measure.median(
            [w["loadgen_cpu"] / w["packages"] * 1e6 for w in windows]
        ),
        "steal_share": measure.median([w["steal_share"] for w in windows]),
    }
    phase_layers = None
    if trace:
        with open(rundir / "layers.json") as handle:
            phase_layers = json.load(handle)
        from repro.obs.tracing import aggregate_spans, load_spans

        extra["spans"] = aggregate_spans(load_spans(rundir / "spans.jsonl"))
    return Phase(
        windows=windows,
        setup=setup,
        probe=probe,
        peak_rss_mb=rss,
        attempted=sum(load.attempted for load in loads),
        judged=sum(load.judged for load in loads),
        mismatches=mismatches,
        mix=measure.verdict_mix(np.concatenate(levels_seen)),
        layers=phase_layers,
        extra=extra,
    )


def _serve_inputs(name, seed, seconds, sizes):
    """Per SUT process, one capture per connection and its frames.

    Every process gets captures of its own, so one run judges five
    captures' worth of traffic mix.  Each outlasts its process's run.
    """
    dialects = SERVE_DIALECTS[name]
    duration = sizes.warmup_s + seconds / sizes.processes
    if name == "serve_open_loop":
        per_connection = sizes.open_rate / len(dialects) * duration * 1.15 + 32
    else:
        per_connection = sizes.saturate_cap * duration
    length = math.ceil(per_connection)
    captures = [
        [inputs.capture(seed, name, process * len(dialects) + c, length)
         for c in range(len(dialects))]
        for process in range(sizes.processes)
    ]
    frames = [[loadgen.build_frames(c, d) for c, d in zip(per_process, dialects)]
              for per_process in captures]
    return captures, frames


# -- per-layer metrics ----------------------------------------------------


def _rows_per_tick(stats: dict) -> float:
    ticks = sum(shard["ticks"] for shard in stats["shards"])
    return sum(shard["packages"] for shard in stats["shards"]) / ticks


def per_layer(name: str, untraced: Phase, traced: Phase) -> dict[str, tuple[float, str]]:
    """Layer metrics of the traced phase plus run context, as ``name -> (value, unit)``."""
    out = layers.layer_metrics(traced.layers or {})
    base = _cpu_per_pkg(untraced)
    out["trace.overhead_share"] = ((_cpu_per_pkg(traced) - base) / base, "ratio")
    attempted = untraced.attempted + traced.attempted
    failed = attempted - untraced.judged - traced.judged
    out["failed_share"] = (failed / attempted, "ratio")
    # The untraced phase's timings before the host-speed adjustment, and the
    # adjustment itself: context for the end-to-end numbers.
    out["raw.throughput_pkg_per_s"] = (_throughput(name, untraced, adjusted=False), "pkg/s")
    out["raw.cpu_us_per_pkg"] = (_cpu_per_pkg(untraced, adjusted=False), "us/pkg")
    out["raw.setup_s"] = (_setup_s(untraced, adjusted=False), "s")
    out["host.slowdown"] = (measure.median(_slowdowns(untraced)), "ratio")
    out["host.steal_share"] = (untraced.extra["steal_share"], "ratio")
    if not name.startswith("serve_"):
        return out
    stages = traced.extra["spans"]["stages"]
    for stage, metric, scale, unit in (
        ("decode", "gateway.decode_us_p50", 1e6, "us"),
        ("route", "gateway.route_us_p50", 1e6, "us"),
        ("tick", "gateway.tick_ms_p50", 1e3, "ms"),
        ("deliver", "gateway.deliver_us_p50", 1e6, "us"),
        ("queue", "gateway.queue_ms_p50", 1e3, "ms"),
    ):
        if stage in stages:
            out[metric] = (stages[stage]["p50_seconds"] * scale, unit)
    if "queue" in stages:
        out["gateway.queue_ms_p99"] = (stages["queue"]["p99_seconds"] * 1e3, "ms")
    stats = traced.extra["stats"][0]
    out["gateway.rows_per_tick"] = (_rows_per_tick(stats), "rows/tick")
    out["gateway.peak_queue_depth"] = (stats["peak_queue_depth"], "count")
    alerts = stats["alerts"]
    out["alerts.emitted"] = (alerts["emitted"], "count")
    raised = alerts["emitted"] + alerts["suppressed"]
    out["alerts.suppressed_share"] = (
        alerts["suppressed"] / raised if raised else 0.0, "ratio"
    )
    for dialect, counters in stats["transport"].items():
        out[f"transport.{dialect}.frames_decoded"] = (counters["frames_decoded"], "count")
        out[f"transport.{dialect}.bytes_discarded"] = (counters["bytes_discarded"], "count")
    # Run context comes from the untraced phase, whose numbers it explains.
    late = untraced.extra["lateness_s"]
    if late.size:
        out["loadgen.late_p50_ms"] = (measure.percentile(late, 50) * 1e3, "ms")
        out["loadgen.late_p99_ms"] = (measure.percentile(late, 99) * 1e3, "ms")
    out["loadgen.cpu_us_per_pkg"] = (untraced.extra["loadgen_cpu_us_per_pkg"], "us/pkg")
    if name == "serve_open_loop":
        latency = untraced.extra["latency"]
        out["e2e.latency_p50_ms"] = (latency["p50_ms"], "ms")
        if latency["tail_percentile"] is not None and latency["tail_percentile"] >= 99:
            out["e2e.latency_p99_ms"] = (
                measure.percentile(untraced.extra["latency_s"], 99) * 1e3, "ms"
            )
    return out


# -- one run ----------------------------------------------------------------


def _details(name, seed, phase: Phase, prep_s: float) -> dict:
    raw = {
        "throughput_pkg_per_s": _throughput(name, phase, adjusted=False),
        "cpu_us_per_pkg": _cpu_per_pkg(phase, adjusted=False),
        "setup_s": _setup_s(phase, adjusted=False),
    }
    info = {
        "workload": name,
        "seed": seed,
        "prep_s": round(prep_s, 3),
        "attempted": phase.attempted,
        "judged": phase.judged,
        "failed": phase.attempted - phase.judged,
        "verdict_mix": phase.mix,
        "traced": phase.layers is not None,
        "packages_per_window": [w["packages"] for w in phase.windows],
        "setup_s_each": [round(seconds, 4) for _, seconds in phase.setup],
        "slowdown_per_window": [round(f, 3) for f in _slowdowns(phase)],
        "unadjusted": raw,
        "steal_share": phase.extra.get("steal_share"),
        "mismatches": phase.mismatches[:10],
        "errors": phase.extra.get("errors", [])[:10],
    }
    if "stats" in phase.extra:
        info["attached_streams"] = [stats["streams"] for stats in phase.extra["stats"]]
        info["rows_per_tick"] = [_rows_per_tick(stats) for stats in phase.extra["stats"]]
    if "latency" in phase.extra:
        info["latency"] = phase.extra["latency"]
    late = phase.extra.get("lateness_s")
    if late is not None and late.size:
        info["loadgen_late_ms_p50_p99"] = [
            measure.percentile(late, 50) * 1e3, measure.percentile(late, 99) * 1e3
        ]
    if "loadgen_cpu_us_per_pkg" in phase.extra:
        info["loadgen_cpu_us_per_pkg"] = phase.extra["loadgen_cpu_us_per_pkg"]
    return info


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]] | None
    details: list[dict]

    def result_line(self, trace: bool) -> dict:
        """The contract's last output line: per-layer metrics when traced."""
        metrics = self.per_layer if trace else self.end_to_end
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL
) -> RunResult:
    """Run one workload: prepare inputs, measure, check every verdict."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    from repro import CombinedDetector

    prep_started = perf_counter()
    model = inputs.detector_path(sizes)
    detector = CombinedDetector.load(model)
    if name == "offline_detect":
        captures, refs = _offline_inputs(seed, sizes, detector)
    else:
        captures, frames = _serve_inputs(name, seed, seconds, sizes)
    prep_s = perf_counter() - prep_started

    rundir = inputs.BUILD / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    own_cpus = os.sched_getaffinity(0)
    sut_cpus, bench_cpus = _placement(own_cpus)
    os.sched_setaffinity(0, bench_cpus)
    try:
        def phase(traced: bool) -> Phase:
            if name.startswith("serve_"):
                return _serve_phase(name, model, detector, captures, frames, sizes,
                                    seconds, traced, rundir, seed, sut_cpus)
            return _in_process_phase(model, captures, refs, sizes, seconds,
                                     traced, rundir, sut_cpus)

        phases = [phase(False)]
        if trace:
            phases.append(phase(True))
    finally:
        os.sched_setaffinity(0, own_cpus)
        shutil.rmtree(rundir, ignore_errors=True)

    details = [_details(name, seed, p, prep_s) for p in phases]
    result_layers = None
    if trace:
        measured = per_layer(name, phases[0], phases[1])
        missing = [metric for metric in RESULT_LAYERS if metric not in measured]
        if missing:
            raise BenchError(f"the traced phase did not measure {missing}")
        result_layers = {metric: measured[metric] for metric in RESULT_LAYERS}
        details[1]["layer_metrics"] = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in measured.items()
        }
    return RunResult(
        correct=not any(p.mismatches for p in phases),
        attempted=sum(p.attempted for p in phases),
        failed=sum(p.attempted - p.judged for p in phases),
        end_to_end=end_to_end(name, phases[0]),
        per_layer=result_layers,
        details=details,
    )
