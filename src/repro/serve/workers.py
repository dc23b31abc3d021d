"""One shard op protocol, two transports.

A gateway shard owns an *engine pool*: one
:class:`~repro.core.stream_engine.StreamEngine` per model route
(``(scenario, version)``, or ``(None, None)`` for the lone slot of a
single-detector gateway).  :class:`EnginePool` implements every shard
operation exactly once:

- ``attach`` a fresh stream to a route's engine (created on first use);
- ``packages_seen`` of one stream;
- ``observe`` one tick: one batched step per route group, timing each
  group's engine seconds;
- ``swap`` one stream onto a new model version (drain-and-swap),
  dropping the old version's engine once its last stream has left;
- ``snapshot`` every engine's state;
- ``stats``: per-engine counters and per-stream package counts.

The gateway drives those ops through one awaitable interface with two
transports, picked by ``GatewayConfig.worker_mode``:

- :class:`LocalPool` (``"thread"``) calls the pool in-process with
  :class:`~repro.ics.features.Package` objects: no encoding, no copy,
  no thread, and no op ever suspends the event loop.
- :class:`WorkerHandle` (``"process"``) runs the pool in a spawned
  worker OS process (:func:`_worker_main`) and speaks to it over a pipe.
  The channel is **pickle-free**: requests and responses are
  hand-framed byte strings (an opcode byte, then the op's fields).
  Feature rows cross as the fixed-layout
  :func:`~repro.serve.transport.encode_stream_data` records (the same
  dialect-neutral binary package record the wire protocols use), and
  engine state crosses as in-memory ``.npz`` blobs
  (:func:`~repro.utils.artifact.state_to_bytes`).  A dedicated I/O
  thread drives the pipe, so the event loop never blocks on it.

Both transports apply ops in the order they are issued: in-process
trivially, over the pipe because it is FIFO and the worker is
single-threaded.  The gateway leans on this for bit-identical
checkpoints and zero-drop hot-swaps in either mode.

Workers are started with the ``spawn`` context: the gateway often runs
on a background thread (:func:`~repro.serve.gateway.start_in_thread`),
and forking a threaded process is a deadlock lottery.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import queue
import struct
import threading
import traceback
from concurrent.futures import Future
from dataclasses import asdict
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.combined import CombinedDetector
    from repro.core.stream_engine import StreamEngine
    from repro.ics.features import Package
    from repro.obs.metrics import MetricsRegistry

#: A model route: ``(scenario, version)``, or ``(None, None)`` for the
#: single-detector slot.
Route = tuple["str | None", "int | None"]

#: Pool label of the lone engine slot in single-detector mode.  Routed
#: labels are ``scenario@version`` (always contain ``@``), so the bare
#: word can never collide with a real route.
SINGLE_LABEL = "default"

#: Kind tag of engine-state blobs crossing the pipe.
STATE_BLOB_KIND = "worker-engine-pool"

# Request opcodes (first byte of every request frame).
OP_INIT = b"I"
OP_ATTACH = b"A"
OP_SEEN = b"P"
OP_OBSERVE = b"O"
OP_SWAP = b"W"
OP_SNAPSHOT = b"S"
OP_STATS = b"T"
OP_QUIT = b"Q"

#: Response marker for a worker-side exception (body = traceback text).
OP_ERROR = b"!"

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

#: Opcode -> metric label for pipe round-trip histograms.
_OP_NAMES = {
    OP_INIT: "init",
    OP_ATTACH: "attach",
    OP_SEEN: "seen",
    OP_OBSERVE: "observe",
    OP_SWAP: "swap",
    OP_SNAPSHOT: "snapshot",
    OP_STATS: "stats",
    OP_QUIT: "quit",
}


class WorkerError(RuntimeError):
    """A shard op failed; the pool behind the transport still serves."""


class WorkerDied(WorkerError):
    """The transport is gone (the worker process died or was closed):
    every later op on it fails too."""


# ----------------------------------------------------------------------
# the engine pool: every shard op, once
# ----------------------------------------------------------------------


class EnginePool:
    """One shard's engines, keyed by model route.

    ``resolve(route)`` returns the trained framework behind a route; a
    single-detector pool ignores the route.
    """

    def __init__(
        self,
        resolve: "Callable[[Route], CombinedDetector]",
        engines: "dict[Route, StreamEngine] | None" = None,
    ) -> None:
        self._resolve = resolve
        self.engines: dict[Route, StreamEngine] = dict(engines or {})

    def _engine_for(self, route: Route) -> "StreamEngine":
        engine = self.engines.get(route)
        if engine is None:
            engine = self._resolve(route).engine(0)
            self.engines[route] = engine
        return engine

    def attach(self, route: Route) -> int:
        """Attach a fresh stream to ``route``'s engine; returns its id."""
        return self._engine_for(route).attach()

    def packages_seen(self, route: Route, stream_id: int) -> int:
        return self.engines[route].packages_seen(stream_id)

    def observe(
        self, groups: "list[tuple[Route, dict[int, Package]]]"
    ) -> tuple[list[bool], list[int], list[float]]:
        """One tick: one batched step per ``(route, {stream_id: package})``.

        Returns the verdicts and levels of every row in request order,
        plus each group's engine seconds (the tracing plane's compute
        stage).
        """
        verdicts: list[bool] = []
        levels: list[int] = []
        seconds: list[float] = []
        for route, batch in groups:
            engine = self.engines[route]
            started = perf_counter()
            group_verdicts, group_levels = engine.observe_batch(batch)
            seconds.append(perf_counter() - started)
            verdicts += group_verdicts.tolist()
            levels += group_levels.tolist()
        return verdicts, levels, seconds

    def swap(
        self, scenario: str, old_version: int, new_version: int, stream_id: int
    ) -> tuple[int, int]:
        """Drain-and-swap one stream onto ``new_version``.

        Returns ``(new_stream_id, packages_seen_by_old_version)``.  The
        old version's recurrent state does not transfer (architectures
        and vocabularies may differ): the stream restarts from a fresh
        zero state, exactly like offline ``detect()`` starting at the
        swap boundary.  An old engine left without streams holds only
        dead recurrent state and is dropped.  The new engine is resolved
        and attached first, so a new version that does not load leaves
        the stream where it was.
        """
        old_route = (scenario, old_version)
        old_engine = self.engines[old_route]
        old_seen = old_engine.packages_seen(stream_id)
        new_id = self._engine_for((scenario, new_version)).attach()
        old_engine.detach(stream_id)
        if old_engine.num_streams == 0:
            del self.engines[old_route]
        return new_id, old_seen

    def snapshot(self) -> "dict[Route, dict[str, Any]]":
        """Every engine's state dict.

        ``StreamEngine.state_dict`` copies its arrays, so a snapshot
        taken between ticks stays valid while later ticks advance the
        engines: it can be written off the event loop.
        """
        return {
            route: engine.state_dict()
            for route, engine in list(self.engines.items())
        }

    def stats(self) -> "dict[Route, dict[str, Any]]":
        """``{route: {"stats": EngineStats dict, "streams": {id: seen}}}``."""
        return {
            route: {
                "stats": asdict(engine.stats),
                "streams": {
                    sid: engine.packages_seen(sid) for sid in engine.stream_ids
                },
            }
            for route, engine in list(self.engines.items())
        }


class LocalPool:
    """In-process transport: the ops run on the caller's event loop.

    No coroutine here ever suspends, so an op issued under a shard lock
    completes before any other task runs — it lands between that
    shard's ticks like a plain call.  A pool exception is raised as
    :class:`WorkerError`, like a worker's error response, so a failed op
    is handled the same whatever the transport; nothing here ever
    raises :class:`WorkerDied`.
    """

    #: Trace stages of one observe: engine compute is the ``tick``, and
    #: there is no IPC stage.
    trace_stages: "tuple[str, str | None]" = ("tick", None)

    def __init__(self, pool: EnginePool) -> None:
        self.pool = pool

    @staticmethod
    def _run(op: Callable, *args: Any) -> Any:
        try:
            return op(*args)
        except Exception as exc:
            raise WorkerError(f"{type(exc).__name__}: {exc}") from exc

    async def attach(self, route: Route) -> int:
        return self._run(self.pool.attach, route)

    async def packages_seen(self, route: Route, stream_id: int) -> int:
        return self._run(self.pool.packages_seen, route, stream_id)

    async def observe(self, groups: "list[tuple[Route, dict[int, Package]]]"):
        return self._run(self.pool.observe, groups)

    async def swap(
        self, scenario: str, old_version: int, new_version: int, stream_id: int
    ) -> tuple[int, int]:
        return self._run(
            self.pool.swap, scenario, old_version, new_version, stream_id
        )

    async def snapshot(self) -> "dict[Route, dict[str, Any]]":
        return self._run(self.pool.snapshot)

    async def stats(self) -> "dict[Route, dict[str, Any]]":
        return self._run(self.pool.stats)

    def stats_now(self) -> "dict[Route, dict[str, Any]]":
        """:meth:`stats` as a plain call, for pollers on other threads."""
        return self._run(self.pool.stats)

    def close(self) -> None:
        """Nothing to release: the engines live with the gateway."""


# ----------------------------------------------------------------------
# pipe codec (shared by both pipe ends)
# ----------------------------------------------------------------------


def pool_label(scenario: str | None, version: int | None) -> str:
    """Wire label of one engine-pool slot (route or the single slot)."""
    if scenario is None:
        return SINGLE_LABEL
    assert version is not None
    from repro.persistence import route_label

    return route_label(scenario, version)


def pool_route(label: str) -> Route:
    """Invert :func:`pool_label`."""
    if label == SINGLE_LABEL:
        return (None, None)
    from repro.persistence import parse_route_label

    return parse_route_label(label)


def _put_str(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    buf += _U16.pack(len(raw))
    buf += raw


def _get_str(view: memoryview, offset: int) -> tuple[str, int]:
    (size,) = _U16.unpack_from(view, offset)
    offset += _U16.size
    return bytes(view[offset : offset + size]).decode("utf-8"), offset + size


def _put_block(buf: bytearray, blob: bytes) -> None:
    buf += _U32.pack(len(blob))
    buf += blob


def _get_block(view: memoryview, offset: int) -> tuple[bytes, int]:
    (size,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    return bytes(view[offset : offset + size]), offset + size


def encode_init(
    detector_blob: bytes | None, registry_root: str | None, pool_blob: bytes
) -> bytes:
    """INIT: single-detector weights *or* a registry root, plus the
    shard's restored engine pool (``{label: engine_state}`` blob)."""
    if (detector_blob is None) == (registry_root is None):
        raise ValueError(
            "pass exactly one of detector_blob (single) or "
            "registry_root (routed)"
        )
    buf = bytearray(OP_INIT)
    if detector_blob is not None:
        buf += b"\x00"
        _put_block(buf, detector_blob)
    else:
        buf += b"\x01"
        _put_str(buf, registry_root)
    _put_block(buf, pool_blob)
    return bytes(buf)


def _request(op: bytes, text: str, *fields: int) -> bytes:
    """ATTACH/SEEN/SWAP: the opcode, one string, then u32 fields."""
    buf = bytearray(op)
    _put_str(buf, text)
    for value in fields:
        buf += _U32.pack(value)
    return bytes(buf)


def encode_attach(label: str) -> bytes:
    return _request(OP_ATTACH, label)


def encode_observe(groups: "list[tuple[str, list[tuple[int, bytes]]]]") -> bytes:
    """OBSERVE: per engine group, the tick's ``(stream_id, record)``
    rows — records are :func:`~repro.serve.transport.encode_stream_data`
    bytes (seq field unused on this hop)."""
    buf = bytearray(OP_OBSERVE)
    buf += _U16.pack(len(groups))
    for label, items in groups:
        _put_str(buf, label)
        buf += _U32.pack(len(items))
        for stream_id, record in items:
            buf += _U32.pack(stream_id)
            _put_block(buf, record)
    return bytes(buf)


def decode_verdicts(
    resp: bytes, count: int
) -> tuple[list[tuple[bool, int]], list[float]]:
    """Per-row ``(verdict, level)`` pairs in request order, plus the
    worker-side seconds each engine group spent in ``observe_batch`` —
    the tracing plane subtracts these from the pipe round-trip to
    attribute worker compute separately from IPC."""
    body = memoryview(resp)[1:]
    rows_end = 2 * count
    if len(body) < rows_end + _U16.size:
        raise WorkerError(
            f"verdict response holds {len(body) // 2} rows, expected {count}"
        )
    (n_groups,) = _U16.unpack_from(body, rows_end)
    timings_at = rows_end + _U16.size
    if len(body) != timings_at + 8 * n_groups:
        raise WorkerError(
            f"verdict response length mismatch ({len(body)} bytes for "
            f"{n_groups} groups), expected {count} rows"
        )
    verdicts = [(bool(body[2 * i]), int(body[2 * i + 1])) for i in range(count)]
    seconds = list(struct.unpack_from(f">{n_groups}d", body, timings_at))
    return verdicts, seconds


def decode_stats(resp: bytes) -> "dict[Route, dict[str, Any]]":
    """The worker's :meth:`EnginePool.stats` (JSON keys turned back
    into routes and integer stream ids)."""
    return {
        pool_route(label): {
            "stats": entry["stats"],
            "streams": {int(sid): seen for sid, seen in entry["streams"].items()},
        }
        for label, entry in json.loads(bytes(resp[1:]).decode("utf-8")).items()
    }


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _pool_from_init(msg: memoryview) -> EnginePool:
    """The worker's engine pool, rebuilt from an INIT request."""
    from repro.core.stream_engine import StreamEngine
    from repro.utils.artifact import state_from_bytes

    offset = 2  # opcode + mode byte
    resolve: "Callable[[Route], CombinedDetector]"
    if msg[1] == 0:
        from repro.core.combined import CombinedDetector

        blob, offset = _get_block(msg, offset)
        detector = CombinedDetector.from_state(
            state_from_bytes(blob, kind=STATE_BLOB_KIND)
        )

        def resolve(route: Route) -> "CombinedDetector":
            return detector
    else:
        from repro.registry.store import ModelRegistry

        root, offset = _get_str(msg, offset)
        registry = ModelRegistry(root)

        def resolve(route: Route) -> "CombinedDetector":
            return registry.load(*route)

    pool_blob, _ = _get_block(msg, offset)
    engines = {}
    for label, state in state_from_bytes(pool_blob, kind=STATE_BLOB_KIND).items():
        route = pool_route(label)
        engines[route] = StreamEngine.from_state(resolve(route), state)
    return EnginePool(resolve, engines)


def _dispatch(pool: EnginePool, op: bytes, msg: memoryview) -> bytes:
    """Decode one request, run it on the pool, encode the response."""
    if op == OP_OBSERVE:
        return _observe(pool, msg)
    if op == OP_ATTACH:
        label, _ = _get_str(msg, 1)
        return OP_ATTACH.lower() + _U32.pack(pool.attach(pool_route(label)))
    if op == OP_SEEN:
        label, offset = _get_str(msg, 1)
        (stream_id,) = _U32.unpack_from(msg, offset)
        seen = pool.packages_seen(pool_route(label), stream_id)
        return OP_SEEN.lower() + _U64.pack(seen)
    if op == OP_SWAP:
        scenario, offset = _get_str(msg, 1)
        old_version, new_version, stream_id = struct.unpack_from(
            ">III", msg, offset
        )
        new_id, old_seen = pool.swap(scenario, old_version, new_version, stream_id)
        return OP_SWAP.lower() + _U32.pack(new_id) + _U64.pack(old_seen)
    if op == OP_SNAPSHOT:
        from repro.utils.artifact import state_to_bytes

        states = {
            pool_label(*route): state for route, state in pool.snapshot().items()
        }
        return OP_SNAPSHOT.lower() + state_to_bytes(states, kind=STATE_BLOB_KIND)
    if op == OP_STATS:
        # json turns the integer stream ids into string keys.
        payload = {pool_label(*route): entry for route, entry in pool.stats().items()}
        return OP_STATS.lower() + json.dumps(payload).encode("utf-8")
    raise WorkerError(f"unknown opcode {bytes(op)!r}")


def _observe(pool: EnginePool, msg: memoryview) -> bytes:
    from repro.serve.transport import decode_stream_data

    (n_groups,) = _U16.unpack_from(msg, 1)
    offset = 1 + _U16.size
    groups = []
    for _ in range(n_groups):
        label, offset = _get_str(msg, offset)
        (n_items,) = _U32.unpack_from(msg, offset)
        offset += _U32.size
        batch: dict[int, Any] = {}
        for _ in range(n_items):
            (stream_id,) = _U32.unpack_from(msg, offset)
            record, offset = _get_block(msg, offset + _U32.size)
            batch[stream_id] = decode_stream_data(record).package
        groups.append((pool_route(label), batch))
    verdicts, levels, seconds = pool.observe(groups)
    out = bytearray(OP_OBSERVE.lower())
    for verdict, level in zip(verdicts, levels):
        out += bytes((1 if verdict else 0, level & 0xFF))
    # Trailer: per-group engine seconds, so the gateway can split
    # worker compute from pipe round-trip in sampled traces.
    out += _U16.pack(len(seconds))
    out += struct.pack(f">{len(seconds)}d", *seconds)
    return bytes(out)


def _worker_main(conn, index: int) -> None:
    """One shard worker: a strict FIFO request/response loop."""
    pool: EnginePool | None = None
    try:
        while True:
            try:
                msg = conn.recv_bytes()
            except (EOFError, OSError):
                break
            op = msg[:1]
            if op == OP_QUIT:
                conn.send_bytes(OP_QUIT.lower())
                break
            try:
                if op == OP_INIT:
                    pool = _pool_from_init(memoryview(msg))
                    resp = OP_INIT.lower()
                elif pool is None:
                    raise WorkerError("worker received ops before INIT")
                else:
                    resp = _dispatch(pool, op, memoryview(msg))
            except BaseException:  # noqa: BLE001 - reported to the gateway
                resp = OP_ERROR + traceback.format_exc().encode(
                    "utf-8", "replace"
                )
            conn.send_bytes(resp)
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# async-side endpoint
# ----------------------------------------------------------------------


class WorkerHandle:
    """The gateway's end of one shard worker's pipe: the pipe transport.

    It offers the same ops as :class:`LocalPool`, run by the worker's
    :class:`EnginePool`.  All pipe traffic runs on a dedicated I/O
    thread so the event loop never blocks on a
    ``send_bytes``/``recv_bytes`` pair; each request resolves a
    :class:`concurrent.futures.Future` in submission order (the pipe is
    FIFO, the worker single-threaded).
    """

    #: Trace stages of one observe: the worker's engine seconds, and the
    #: rest of the round trip (framing + IPC) as ``pipe``.
    trace_stages: "tuple[str, str | None]" = ("worker", "pipe")

    def __init__(
        self,
        index: int,
        start_method: str = "spawn",
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        # Pre-resolve per-opcode round-trip histograms so the I/O loop
        # pays one dict probe per request, not a registry lookup.
        # OBSERVE round-trips are the per-worker batch latency; SNAPSHOT
        # round-trips are the snapshot duration.
        self._timers = (
            None
            if metrics is None
            else {
                op: metrics.histogram(
                    "worker_pipe_roundtrip_seconds",
                    "Pipe send->recv round-trip per worker op",
                    op=name,
                    worker=str(index),
                )
                for op, name in _OP_NAMES.items()
            }
        )
        ctx = multiprocessing.get_context(start_method)
        self._conn, child = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_worker_main,
            args=(child, index),
            name=f"repro-shard-worker-{index}",
            daemon=True,
        )
        self._process.start()
        child.close()
        self._requests: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        self._io = threading.Thread(
            target=self._io_loop, name=f"repro-worker-io-{index}", daemon=True
        )
        self._io.start()

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def submit(self, payload: bytes) -> "Future[bytes]":
        """Queue one request; the future resolves with the response.

        After :meth:`close`/:meth:`kill` the I/O thread is gone, so the
        future fails immediately instead of waiting on a dead queue.
        """
        future: "Future[bytes]" = Future()
        if self._closed:
            future.set_exception(
                WorkerDied(
                    f"shard worker (pid {self._process.pid}) handle is closed"
                )
            )
            return future
        self._requests.put((payload, future))
        return future

    async def call(self, payload: bytes) -> bytes:
        return await asyncio.wrap_future(self.submit(payload))

    def call_sync(self, payload: bytes, timeout: float | None = 60.0) -> bytes:
        return self.submit(payload).result(timeout)

    def _io_loop(self) -> None:
        failure: str | None = None
        while True:
            item = self._requests.get()
            if item is None:
                break
            payload, future = item
            if not future.set_running_or_notify_cancel():
                continue
            if failure is not None:
                future.set_exception(WorkerDied(failure))
                continue
            timer = (
                self._timers.get(payload[:1]) if self._timers else None
            )
            try:
                if timer is not None:
                    with timer.time():
                        self._conn.send_bytes(payload)
                        resp = self._conn.recv_bytes()
                else:
                    self._conn.send_bytes(payload)
                    resp = self._conn.recv_bytes()
            except (EOFError, OSError, ValueError) as exc:
                failure = (
                    f"shard worker (pid {self._process.pid}) channel "
                    f"failed: {exc!r}"
                )
                future.set_exception(WorkerDied(failure))
                continue
            if resp[:1] == OP_ERROR:
                future.set_exception(
                    WorkerError(resp[1:].decode("utf-8", "replace"))
                )
            else:
                future.set_result(resp)
        try:
            self._conn.close()
        except OSError:
            pass

    def close(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: QUIT, join the I/O thread and the process."""
        if self._closed:
            return
        try:
            self.submit(OP_QUIT).result(timeout)
        except Exception:  # noqa: BLE001 - already going down
            pass
        self._closed = True
        self._requests.put(None)
        self._io.join(timeout)
        self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout)

    def kill(self) -> None:
        """Hard-kill the worker (crash drills); pending calls fail."""
        self._closed = True
        if self._process.is_alive():
            self._process.kill()
        self._requests.put(None)

    # -- the shard ops over the pipe -------------------------------------

    async def attach(self, route: Route) -> int:
        resp = await self.call(encode_attach(pool_label(*route)))
        return _U32.unpack_from(resp, 1)[0]

    async def packages_seen(self, route: Route, stream_id: int) -> int:
        resp = await self.call(_request(OP_SEEN, pool_label(*route), stream_id))
        return _U64.unpack_from(resp, 1)[0]

    async def observe(self, groups: "list[tuple[Route, dict[int, Package]]]"):
        from repro.serve.transport import encode_stream_data

        wire = [
            (
                pool_label(*route),
                [(sid, encode_stream_data(pkg, 0)) for sid, pkg in batch.items()],
            )
            for route, batch in groups
        ]
        rows, seconds = decode_verdicts(
            await self.call(encode_observe(wire)),
            sum(len(batch) for _, batch in groups),
        )
        return [v for v, _ in rows], [level for _, level in rows], seconds

    async def swap(
        self, scenario: str, old_version: int, new_version: int, stream_id: int
    ) -> tuple[int, int]:
        resp = await self.call(
            _request(OP_SWAP, scenario, old_version, new_version, stream_id)
        )
        return _U32.unpack_from(resp, 1)[0], _U64.unpack_from(resp, 1 + _U32.size)[0]

    async def snapshot(self) -> "dict[Route, dict[str, Any]]":
        from repro.utils.artifact import state_from_bytes

        resp = await self.call(OP_SNAPSHOT)
        blob = state_from_bytes(bytes(resp[1:]), kind=STATE_BLOB_KIND)
        return {pool_route(label): state for label, state in blob.items()}

    async def stats(self) -> "dict[Route, dict[str, Any]]":
        return decode_stats(await self.call(OP_STATS))

    def stats_now(self) -> "dict[Route, dict[str, Any]]":
        """:meth:`stats` as a blocking poll, for callers on other
        threads (the request rides the I/O thread)."""
        return decode_stats(self.call_sync(OP_STATS))
