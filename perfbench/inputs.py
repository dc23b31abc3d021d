"""Benchmark inputs: the trained detector, seeded captures and references.

The detector is trained once per source tree from a fixed training seed
that no workload uses, and cached under ``.bench_build/`` in the
checkout.  Workload captures come from the workload seed only; the
system under test receives the captures, never the seed.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

SCENARIO = "gas_pipeline"
#: Training seed; workload captures are drawn from SeedSequence([CAPTURE_SALT, ...]).
TRAIN_SEED = 7
CAPTURE_SALT = 0x5EED


@dataclass(frozen=True)
class Sizes:
    """Every size knob of the benchmark in one place."""

    hidden: tuple[int, ...] = (64, 64)  # the `default` profile's LSTM
    train_cycles: int = 2000
    epochs: int = 6
    offline_captures: int = 16  # held-out captures detect() cycles through
    offline_len: int = 500  # packages per offline capture
    open_rate: float = 300.0  # offered pkg/s of serve_open_loop, ~1/3 of saturation
    saturate_cap: float = 3000.0  # pkg/s a serve_saturate capture can feed, ~2x its fastest
    saturate_window: int = 64  # in-flight packages per closed-loop connection
    processes: int = 5  # SUT processes per run, each cold-started, then measured
    windows: int = 2  # measurement windows per process (medians are over all)
    warmup_s: float = 1.0  # traffic before a process's first window, not measured


FULL = Sizes()
SMOKE = Sizes(
    hidden=(16,), train_cycles=700, epochs=2, offline_captures=2, offline_len=60,
    open_rate=100.0, saturate_cap=5000.0,
    saturate_window=8, processes=1, windows=2, warmup_s=0.2,
)


def _source_digest(sizes: Sizes) -> str:
    digest = hashlib.sha256(repr((TRAIN_SEED, sizes.hidden, sizes.train_cycles,
                                  sizes.epochs)).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def detector_path(sizes: Sizes) -> Path:
    """Train (or reuse) the benchmark detector; returns its artifact path."""
    from repro import CombinedDetector, DetectorConfig, TimeSeriesDetectorConfig
    from repro.ics.dataset import DatasetConfig, generate_dataset

    path = BUILD / f"detector-{_source_digest(sizes)}.npz"
    if path.exists():
        return path
    dataset = generate_dataset(
        DatasetConfig(scenario=SCENARIO, num_cycles=sizes.train_cycles), seed=TRAIN_SEED
    )
    detector, _ = CombinedDetector.train(
        dataset.train_fragments,
        dataset.validation_fragments,
        DetectorConfig(
            timeseries=TimeSeriesDetectorConfig(
                hidden_sizes=sizes.hidden, epochs=sizes.epochs
            )
        ),
        rng=TRAIN_SEED,
    )
    BUILD.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial.npz")
    detector.save(partial)
    partial.replace(path)
    return path


def capture(seed: int, workload: str, index: int, length: int) -> list:
    """``length`` packages of a seeded gas-pipeline capture.

    Default attack schedule of the scenario; the seed sequence includes
    the workload name so workloads never share a capture.
    """
    from repro.ics.dataset import generate_stream

    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    cycles = math.ceil(length / 4) + 16
    packages = generate_stream(
        SCENARIO, cycles, seed=np.random.SeedSequence([CAPTURE_SALT, seed, tag, index])
    )
    if len(packages) < length:
        raise RuntimeError(f"capture holds {len(packages)} < {length} packages")
    return packages[:length]


def detect_reference(detector, packages) -> tuple[np.ndarray, np.ndarray]:
    """Offline ``detect()`` verdicts and levels of one capture."""
    result = detector.detect(packages)
    return result.is_anomaly, result.level


def engine_reference(detector, packages) -> tuple[np.ndarray, np.ndarray]:
    """The same capture through a 1-stream ``StreamEngine``, one tick per package."""
    engine = detector.engine(1)
    anomalies = np.zeros(len(packages), dtype=bool)
    levels = np.zeros(len(packages), dtype=np.int64)
    for i, package in enumerate(packages):
        verdicts, tags = engine.observe_batch([package])
        anomalies[i] = verdicts[0]
        levels[i] = tags[0] if verdicts[0] else 0
    return anomalies, levels


def write_pickle(path: Path, payload: dict) -> None:
    """Captures for the SUT, and its results back: files only this benchmark writes."""
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def read_pickle(path: Path) -> dict:
    # Only ever reads a file that write_pickle() wrote in this run.
    with open(path, "rb") as handle:
        return pickle.load(handle)
