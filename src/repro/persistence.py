"""Framework-level persistence: train once, deploy anywhere.

The paper's framework is explicitly train-offline / monitor-online
(Fig. 3): the signature database and the LSTM are built from recorded
anomaly-free traffic, then deployed against the live package stream.
This module gives that split a durable form:

- :func:`save_detector` / :func:`load_detector` — a whole trained
  :class:`~repro.core.combined.CombinedDetector` (discretizer cut
  points, signature vocabulary, Bloom filter bits, LSTM weights, chosen
  ``k``) as one versioned ``.npz`` artifact,
- :func:`save_checkpoint` / :func:`load_checkpoint` — a *running*
  :class:`~repro.core.stream_engine.StreamEngine` (stacked recurrent
  states, per-stream clocks, counters) together with its detector, so a
  monitor can fail over to another process and continue bit-identically
  mid-stream.

Both formats ride the schema-checked artifact container of
:mod:`repro.utils.artifact`; loads of corrupt, truncated or
wrong-version files raise :class:`~repro.utils.artifact.ArtifactError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.combined import CombinedDetector
from repro.core.stream_engine import StreamEngine
from repro.utils.artifact import (
    ArtifactError,
    load_artifact,
    read_meta,
    save_artifact,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.profiles import Profile

DETECTOR_KIND = "combined-detector"
CHECKPOINT_KIND = "stream-checkpoint"
GATEWAY_KIND = "gateway-checkpoint"
ROUTED_GATEWAY_KIND = "routed-gateway-checkpoint"


def profile_provenance(profile: "Profile") -> dict[str, Any]:
    """Provenance meta recorded inside artifacts trained from a profile.

    Carries everything needed to regenerate the matching package stream
    later — profile name, simulation scenario, seed and the size
    overrides — so ``detect``/``resume``/``replay`` can rebuild the
    capture a detector was trained against without re-supplying flags.
    """
    return {
        "profile": profile.name,
        "scenario": profile.dataset.scenario,
        "seed": profile.seed,
        "cycles": profile.dataset.num_cycles,
        "epochs": profile.detector.timeseries.epochs,
        "hidden": ",".join(
            str(h) for h in profile.detector.timeseries.hidden_sizes
        ),
    }


def save_detector(
    detector: CombinedDetector,
    path: str | os.PathLike,
    meta: dict[str, Any] | None = None,
) -> None:
    """Persist a trained framework to one ``.npz`` artifact.

    ``meta`` is an optional JSON-able provenance record (profile name,
    seed, dataset description …) readable via
    :func:`repro.utils.artifact.read_meta` without loading the arrays.
    """
    save_artifact(detector.state_dict(), path, kind=DETECTOR_KIND, meta=meta)


def load_detector(path: str | os.PathLike) -> CombinedDetector:
    """Restore a framework saved by :func:`save_detector`.

    The restored detector's :meth:`~CombinedDetector.detect` output is
    bit-identical to the in-memory original on any package stream.
    """
    return CombinedDetector.from_state(load_artifact(path, kind=DETECTOR_KIND))


def save_checkpoint(
    engine: StreamEngine,
    path: str | os.PathLike,
    meta: dict[str, Any] | None = None,
) -> None:
    """Snapshot a running engine (detector included) to one artifact.

    The checkpoint is self-contained: :func:`load_checkpoint` rebuilds
    both the trained detector and the engine's live per-stream state, so
    fail-over needs only this one file.
    """
    state = {
        "detector": engine.detector.state_dict(),
        "engine": engine.state_dict(),
    }
    save_artifact(state, path, kind=CHECKPOINT_KIND, meta=meta)


def load_checkpoint(
    path: str | os.PathLike, detector: CombinedDetector | None = None
) -> StreamEngine:
    """Resume a checkpointed engine, bit-identical to the uninterrupted run.

    Pass ``detector`` to re-attach the engine to an already-loaded
    framework (skipping the embedded copy); otherwise the detector is
    restored from the checkpoint itself.
    """
    state = load_artifact(path, kind=CHECKPOINT_KIND)
    if detector is None:
        detector = CombinedDetector.from_state(state["detector"])
    return StreamEngine.from_state(detector, state["engine"])


def checkpoint_meta(path: str | os.PathLike) -> dict[str, Any]:
    """Provenance metadata stored alongside a checkpoint or detector."""
    return read_meta(path)["meta"]


# ----------------------------------------------------------------------
# gateway checkpoints: many sharded engines + stream-key bindings
# ----------------------------------------------------------------------


@dataclass
class GatewayCheckpoint:
    """A restored gateway state: detector, shard engines, bindings.

    ``bindings`` maps each stream key to its ``(shard_index,
    stream_id)`` home, so reconnecting clients land on the exact
    recurrent state they left behind.
    """

    detector: CombinedDetector
    engines: list[StreamEngine]
    bindings: dict[str, tuple[int, int]]
    meta: dict[str, Any]


def save_gateway_checkpoint(
    path: str | os.PathLike,
    detector: CombinedDetector,
    engines: "list[StreamEngine | dict[str, Any]]",
    bindings: dict[str, tuple[int, int]],
    meta: dict[str, Any] | None = None,
) -> None:
    """Snapshot a sharded gateway (detector + every engine) atomically.

    One artifact holds the trained detector, one engine state per
    shard, and the stream-key → (shard, stream id) binding table — the
    complete fail-over unit for :class:`repro.serve.DetectionGateway`.
    ``engines`` may also be engine state dicts already taken (a serving
    gateway snapshots its shards between ticks and writes off its event
    loop).  The write goes through a same-directory temp file and
    ``os.replace`` so a crash mid-checkpoint can never leave a torn
    artifact where the previous good one stood.
    """
    engine_states = [
        engine if isinstance(engine, dict) else engine.state_dict()
        for engine in engines
    ]
    keys = sorted(bindings)
    for key in keys:
        shard, stream_id = bindings[key]
        if not 0 <= shard < len(engine_states):
            raise ValueError(
                f"binding {key!r} names shard {shard} of {len(engine_states)}"
            )
        if stream_id not in _stream_ids(engine_states[shard]):
            raise ValueError(
                f"binding {key!r} names stream {stream_id} not attached to "
                f"shard {shard}"
            )
    state = {
        "detector": detector.state_dict(),
        "num_shards": len(engine_states),
        "shards": {str(i): s for i, s in enumerate(engine_states)},
        "binding_shards": np.array(
            [bindings[k][0] for k in keys], dtype=np.int64
        ),
        "binding_streams": np.array(
            [bindings[k][1] for k in keys], dtype=np.int64
        ),
    }
    meta = dict(meta or {})
    meta["stream_keys"] = keys
    tmp = f"{os.fspath(path)}.tmp"
    save_artifact(state, tmp, kind=GATEWAY_KIND, meta=meta)
    os.replace(tmp, path)


def load_gateway_checkpoint(
    path: str | os.PathLike, detector: CombinedDetector | None = None
) -> GatewayCheckpoint:
    """Restore a gateway checkpoint; every shard resumes bit-identically.

    Pass ``detector`` to re-attach to an already-loaded framework;
    otherwise the embedded copy is restored.
    """
    state = load_artifact(path, kind=GATEWAY_KIND)
    meta = read_meta(path)["meta"]
    if detector is None:
        detector = CombinedDetector.from_state(state["detector"])
    num_shards = int(state["num_shards"])
    shards = state["shards"]
    if sorted(shards) != [str(i) for i in range(num_shards)]:
        raise ArtifactError(
            f"gateway checkpoint names {sorted(shards)} shards, expected "
            f"{num_shards}"
        )
    engines = [
        StreamEngine.from_state(detector, shards[str(i)]) for i in range(num_shards)
    ]
    keys = list(meta.pop("stream_keys", []))
    shard_idx = np.asarray(state["binding_shards"], dtype=np.int64)
    stream_ids = np.asarray(state["binding_streams"], dtype=np.int64)
    if not (len(keys) == shard_idx.shape[0] == stream_ids.shape[0]):
        raise ArtifactError("gateway checkpoint binding table is torn")
    bindings: dict[str, tuple[int, int]] = {}
    for key, shard, stream_id in zip(keys, shard_idx, stream_ids):
        shard, stream_id = int(shard), int(stream_id)
        if not 0 <= shard < num_shards:
            raise ArtifactError(f"binding {key!r} names missing shard {shard}")
        if stream_id not in engines[shard].stream_ids:
            raise ArtifactError(
                f"binding {key!r} names stream {stream_id} not present in "
                f"shard {shard}"
            )
        bindings[key] = (shard, stream_id)
    return GatewayCheckpoint(
        detector=detector, engines=engines, bindings=bindings, meta=meta
    )


def _stream_ids(engine_state: dict[str, Any]) -> set[int]:
    return {int(i) for i in np.asarray(engine_state["stream_ids"])}


# ----------------------------------------------------------------------
# routed gateway checkpoints: per-shard engine pools keyed by model route
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RouteBinding:
    """One stream key's home in a routed (heterogeneous) gateway.

    ``seq_base`` is the number of packages judged by *earlier* model
    versions on this key (hot-swaps reset the engine-side counter); the
    stream's resume offset is ``seq_base + packages_seen``.

    ``protocol`` records the wire dialect the stream last spoke (see
    :mod:`repro.serve.protocols`) — transport provenance, not routing
    identity; a reconnect may negotiate a different dialect.
    """

    shard: int
    scenario: str
    version: int
    stream_id: int
    seq_base: int = 0
    protocol: str = "modbus"

    @property
    def route(self) -> tuple[str, int]:
        return (self.scenario, self.version)

    @property
    def label(self) -> str:
        return route_label(self.scenario, self.version)


@dataclass
class RoutedGatewayCheckpoint:
    """A restored heterogeneous gateway: engine pools plus route table."""

    shards: list[dict[tuple[str, int], StreamEngine]]
    bindings: dict[str, RouteBinding]
    meta: dict[str, Any]


def route_label(scenario: str, version: int) -> str:
    """Canonical ``scenario@version`` label used in checkpoints/stats."""
    return f"{scenario}@{int(version)}"


def parse_route_label(label: str) -> tuple[str, int]:
    scenario, sep, version = label.rpartition("@")
    if not sep or not scenario:
        raise ArtifactError(f"malformed route label {label!r}")
    try:
        return scenario, int(version)
    except ValueError as exc:
        raise ArtifactError(f"malformed route label {label!r}") from exc


def save_routed_gateway_checkpoint(
    path: str | os.PathLike,
    shards: "list[dict[tuple[str, int], dict[str, Any]]]",
    bindings: dict[str, RouteBinding],
    meta: dict[str, Any] | None = None,
) -> None:
    """Snapshot a registry-backed gateway atomically.

    ``shards`` holds each shard's engine states keyed by route.  Unlike
    the single-detector format, no model weights are embedded: every
    engine is keyed by its ``(scenario, version)`` registry route, and
    restore re-loads those exact artifacts from the registry.  The
    checkpoint is therefore small (recurrent states + route table) and
    the registry stays the single source of model truth.
    """
    keys = sorted(bindings)
    for key in keys:
        binding = bindings[key]
        if not 0 <= binding.shard < len(shards):
            raise ValueError(
                f"binding {key!r} names shard {binding.shard} of {len(shards)}"
            )
        engine_state = shards[binding.shard].get(binding.route)
        if engine_state is None:
            raise ValueError(
                f"binding {key!r} names route {binding.label} absent from "
                f"shard {binding.shard}"
            )
        if binding.stream_id not in _stream_ids(engine_state):
            raise ValueError(
                f"binding {key!r} names stream {binding.stream_id} not "
                f"attached to route {binding.label} on shard {binding.shard}"
            )
        if binding.seq_base < 0:
            raise ValueError(f"binding {key!r} has negative seq_base")
    state: dict[str, Any] = {
        "num_shards": len(shards),
        "shards": {
            str(i): {
                route_label(*route): engine_state
                for route, engine_state in pool.items()
            }
            for i, pool in enumerate(shards)
        },
        "binding_shards": np.array(
            [bindings[k].shard for k in keys], dtype=np.int64
        ),
        "binding_streams": np.array(
            [bindings[k].stream_id for k in keys], dtype=np.int64
        ),
        "binding_seq_bases": np.array(
            [bindings[k].seq_base for k in keys], dtype=np.int64
        ),
    }
    meta = dict(meta or {})
    meta["stream_keys"] = keys
    meta["stream_routes"] = [bindings[k].label for k in keys]
    meta["stream_protocols"] = [bindings[k].protocol for k in keys]
    tmp = f"{os.fspath(path)}.tmp"
    save_artifact(state, tmp, kind=ROUTED_GATEWAY_KIND, meta=meta)
    os.replace(tmp, path)


def load_routed_gateway_checkpoint(
    path: str | os.PathLike,
    resolver: "Any",
) -> RoutedGatewayCheckpoint:
    """Restore a routed gateway checkpoint bit-identically.

    ``resolver(scenario, version)`` must return the
    :class:`CombinedDetector` for an exact registry route — normally
    :meth:`repro.registry.ModelRegistry.load` (or a
    :class:`~repro.registry.ScenarioRouter`'s ``load``).  Exact versions
    are required: restoring against "whatever is active now" would
    resume recurrent states under a different model.
    """
    state = load_artifact(path, kind=ROUTED_GATEWAY_KIND)
    meta = read_meta(path)["meta"]
    num_shards = int(state["num_shards"])
    shard_states = state["shards"]
    if sorted(shard_states) != [str(i) for i in range(num_shards)]:
        raise ArtifactError(
            f"routed gateway checkpoint names {sorted(shard_states)} shards, "
            f"expected {num_shards}"
        )
    detectors: dict[tuple[str, int], CombinedDetector] = {}

    def detector_for(route: tuple[str, int]) -> CombinedDetector:
        if route not in detectors:
            detectors[route] = resolver(*route)
        return detectors[route]

    shards: list[dict[tuple[str, int], StreamEngine]] = []
    for i in range(num_shards):
        pool: dict[tuple[str, int], StreamEngine] = {}
        for label, engine_state in shard_states[str(i)].items():
            route = parse_route_label(label)
            pool[route] = StreamEngine.from_state(
                detector_for(route), engine_state
            )
        shards.append(pool)
    keys = list(meta.pop("stream_keys", []))
    labels = list(meta.pop("stream_routes", []))
    # Pre-protocol checkpoints carry no dialect column: everything they
    # bound spoke Modbus, so the backfill is exact, not a guess.
    protocols = list(meta.pop("stream_protocols", ["modbus"] * len(keys)))
    shard_idx = np.asarray(state["binding_shards"], dtype=np.int64)
    stream_ids = np.asarray(state["binding_streams"], dtype=np.int64)
    seq_bases = np.asarray(state["binding_seq_bases"], dtype=np.int64)
    if not (
        len(keys)
        == len(labels)
        == len(protocols)
        == shard_idx.shape[0]
        == stream_ids.shape[0]
        == seq_bases.shape[0]
    ):
        raise ArtifactError("routed gateway checkpoint binding table is torn")
    bindings: dict[str, RouteBinding] = {}
    for key, label, protocol, shard, stream_id, seq_base in zip(
        keys, labels, protocols, shard_idx, stream_ids, seq_bases
    ):
        scenario, version = parse_route_label(str(label))
        binding = RouteBinding(
            shard=int(shard),
            scenario=scenario,
            version=version,
            stream_id=int(stream_id),
            seq_base=int(seq_base),
            protocol=str(protocol),
        )
        if not 0 <= binding.shard < num_shards:
            raise ArtifactError(
                f"binding {key!r} names missing shard {binding.shard}"
            )
        engine = shards[binding.shard].get(binding.route)
        if engine is None or binding.stream_id not in engine.stream_ids:
            raise ArtifactError(
                f"binding {key!r} names stream {binding.stream_id} of route "
                f"{binding.label} not present in shard {binding.shard}"
            )
        bindings[key] = binding
    return RoutedGatewayCheckpoint(shards=shards, bindings=bindings, meta=meta)
