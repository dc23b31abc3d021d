"""System under test for the offline workload (a child process).

    python -m perfbench.sut --model M.npz --inputs IN.pkl --result OUT.pkl \
        --seconds 20 --windows 5 [--trace]

Loads the detector, prints ``READY`` and waits for one line on stdin:
``GO`` runs the workload, end of input exits at once.  It then reads the captures, runs one warm-up pass and times
``detect()`` passes over them in turn until ``--seconds`` have elapsed,
sampling its own CPU at window boundaries.  Every pass's verdicts go
back to the benchmark, which checks them outside the timed region.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

from perfbench import inputs, layers, measure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.sut")
    parser.add_argument("--model", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--windows", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = layers.install(layers.LayerRecorder()) if args.trace else None
    from repro import CombinedDetector

    detector = CombinedDetector.load(args.model)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    captures = inputs.read_pickle(args.inputs)["captures"]

    def run_pass(index):
        result = detector.detect(captures[index % len(captures)])
        return result.is_anomaly, result.level

    passes = [run_pass(0)]  # warm-up pass: checked, not timed
    pid = os.getpid()
    window_s = args.seconds / args.windows
    windows = []
    index = 1
    run_started = perf_counter()
    for w in range(args.windows):
        cpu0, wall0 = measure.tree_cpu_seconds(pid), perf_counter()
        packages = 0
        while perf_counter() - run_started < (w + 1) * window_s or packages == 0:
            anomalies, levels = run_pass(index)
            index += 1
            passes.append((anomalies, levels))
            packages += anomalies.size
        windows.append({
            "start": wall0,
            "packages": packages,
            "wall": perf_counter() - wall0,
            "cpu": measure.tree_cpu_seconds(pid) - cpu0,
        })
    inputs.write_pickle(args.result, {
        "windows": windows,
        "passes": passes,
        "peak_rss_mb": measure.tree_peak_rss_mb(pid),
        "layers": recorder.snapshot() if recorder is not None else None,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
