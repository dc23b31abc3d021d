"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Prints one detail line (JSON) per
measured phase, then, as the last line, the result object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones.  Exits 1 on any verdict mismatch or failed package, 2 when the
run cannot be measured (e.g. the program's sources are missing).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A stopped benchmark still stops its own children (``finally`` blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, BenchError, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in run.details:
        print(json.dumps(record, default=str))
    print(json.dumps(run.result_line(bool(args.trace))))
    return 0 if run.correct and run.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
