"""Traced serving: wrap the layers, then run the unchanged ``repro`` CLI.

    python -m perfbench.serve_launcher LAYERS.json serve --model M.npz ...

Everything after the first argument goes to ``repro.cli.main``.  When
the CLI returns (SIGTERM stops the gateway cleanly), the per-layer
totals are written to ``LAYERS.json``.
"""

from __future__ import annotations

import json
import sys

from perfbench import layers


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    recorder = layers.install(layers.LayerRecorder())
    from repro.cli import main as repro_main  # after install: binds the wrappers

    try:
        return repro_main(cli_args)
    finally:
        with open(out_path, "w") as handle:
            json.dump(recorder.snapshot(), handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
