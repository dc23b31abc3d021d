"""Single-threaded socket load generator for the serving workloads.

One process, one thread, a few connections.  Each connection is one
stream: it opens a fresh stream key in its dialect and sends its one
capture.  A fresh key starts from a fresh detector state, so the
verdicts must reproduce offline ``detect()`` of the capture's judged
prefix.  A connection never reconnects: the gateway keeps a stream
attached after its client leaves, so a reconnect would change the
engine's tick shape for the rest of the run.  Captures must therefore
outlast the run; one that runs out fails the run.

Open loop (``rate`` set): packages are due at seeded Poisson arrival
times and are sent when due, whatever the gateway is doing.  Each is
timed from its *scheduled* send time to receipt of its verdict.  The
wait uses ``select`` until shortly before the next due time and then
polls, because a coarser sleep would make the generator late.

Closed loop (``window`` set): each connection keeps ``window`` packages
in flight and is timed from actual send time.

The gateway's CPU, the generator's own CPU and the host's steal share
are sampled at window boundaries; throughput counts verdicts received
in each window.
"""

from __future__ import annotations

import select
import socket
import time
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from perfbench import measure

#: ``select`` wakes up to ~60 us late; the last stretch before a send is spun.
SPIN_S = 0.0001
CONNECT_TIMEOUT_S = 10.0


@dataclass
class StreamRecord:
    connection: int
    dialect: str
    anomalies: list[bool] = field(default_factory=list)
    levels: list[int] = field(default_factory=list)


@dataclass
class LoadResult:
    attempted: int
    judged: int
    streams: list[StreamRecord]  # one per connection, in connection order
    windows: list[dict]
    latency_s: np.ndarray  # stamp to verdict, packages stamped in the measured period
    lateness_s: np.ndarray  # open loop: actual minus scheduled send time
    errors: list[str]


class _Connection:
    def __init__(self, index, frames, dialect, key_prefix, arrivals):
        self.index = index
        self.frames = frames  # pre-built DATA frames of the capture
        self.length = len(frames)
        self.arrivals = arrivals  # open loop: due offsets (s); None = closed loop
        self.next_arrival = 0
        self.record = StreamRecord(index, dialect)
        self.sent = 0
        self.judged = 0
        self.stamps: list[float] = []
        self.alive = True
        self.key = f"{key_prefix}-c{index}"

    def open(self, address) -> None:
        from repro.serve.protocols import get_adapter
        from repro.serve.transport import KIND_OPEN_ACK

        self.adapter = get_adapter(self.record.dialect)
        self.decoder = self.adapter.decoder()
        sock = socket.create_connection(address, timeout=CONNECT_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(self.adapter.frame_open(self.key))
        while True:
            data = sock.recv(65536)
            if not data:
                raise ConnectionError(f"gateway closed {self.key} before OPEN_ACK")
            frames = self.decoder.feed(data)
            if frames:
                break
        if frames[0].kind != KIND_OPEN_ACK or len(frames) != 1:
            raise ConnectionError(f"no OPEN_ACK for {self.key}")
        _, seen = self.adapter.decode_open_ack(frames[0].pdu)
        if seen != 0:
            raise ConnectionError(f"fresh stream {self.key} already holds {seen} packages")
        self.sock = sock

    def send(self, stamp: float) -> None:
        self.sock.sendall(self.frames[self.sent])
        self.stamps.append(stamp)
        self.sent += 1


def build_frames(packages, dialect) -> list[bytes]:
    """DATA frames of one capture in ``dialect``; a fresh stream numbers from 0."""
    from repro.serve.protocols import get_adapter

    adapter = get_adapter(dialect)
    return [adapter.frame_data(package, seq) for seq, package in enumerate(packages)]


def run_load(
    address: tuple[str, int],
    plan: list[tuple[str, list[bytes]]],
    *,
    sut_pid: int,
    key_prefix: str,
    warmup_s: float,
    window_s: float,
    windows: int,
    rate: float | None = None,
    window: int | None = None,
    schedule_seed: tuple[int, ...] = (0,),
    drain_s: float = 10.0,
) -> LoadResult:
    """Drive one load run; ``plan`` lists ``(dialect, frames)`` per connection."""
    from repro.serve.transport import KIND_VERDICT

    if (rate is None) == (window is None):
        raise ValueError("give exactly one of rate (open loop) or window (closed loop)")
    duration = warmup_s + window_s * windows
    conns = []
    for index, (dialect, frames) in enumerate(plan):
        arrivals = None
        if rate is not None:
            arrivals = measure.poisson_schedule(
                rate / len(plan), duration, (*schedule_seed, index)
            )
        conns.append(_Connection(index, frames, dialect, key_prefix, arrivals))
    for conn in conns:
        conn.open(address)

    errors: list[str] = []
    stamps_out: list[float] = []
    receipts: list[float] = []
    lateness: list[tuple[float, float]] = []
    attempted = 0

    def fail(conn: _Connection, why: str) -> None:
        errors.append(f"connection {conn.index}: {why}")
        conn.alive = False
        conn.sock.close()

    started = perf_counter()
    boundaries = [started + warmup_s + w * window_s for w in range(windows + 1)]
    samples = []  # (time, sut cpu, generator cpu, host ticks) at each boundary
    end = boundaries[-1]
    while True:
        now = perf_counter()
        if len(samples) < len(boundaries) and now >= boundaries[len(samples)]:
            samples.append((now, measure.tree_cpu_seconds(sut_pid),
                            time.process_time(), measure.host_cpu_ticks()))
            continue
        sending = now < end
        live = [c for c in conns if c.alive]
        if not sending and all(c.judged == c.sent for c in live):
            break
        if not sending and now > end + drain_s:
            for conn in live:
                fail(conn, f"{conn.sent - conn.judged} verdict(s) missing after drain")
            break
        next_due = boundaries[len(samples)] if len(samples) < len(boundaries) else now + 0.05
        for conn in live if sending else ():
            if conn.sent == conn.length:
                fail(conn, f"capture of {conn.length} packages ran out before the run ended")
                continue
            try:
                if conn.arrivals is None:
                    while conn.sent - conn.judged < window and conn.sent < conn.length:
                        conn.send(perf_counter())
                        attempted += 1
                else:
                    while conn.next_arrival < len(conn.arrivals) and conn.sent < conn.length:
                        due = started + conn.arrivals[conn.next_arrival]
                        if due > now:
                            next_due = min(next_due, due)
                            break
                        conn.send(due)
                        lateness.append((due, perf_counter() - due))
                        conn.next_arrival += 1
                        attempted += 1
            except OSError as exc:
                fail(conn, f"send failed: {exc}")
        socks = {c.sock: c for c in conns if c.alive}
        if not socks:
            break
        wait = next_due - perf_counter()
        readable, _, _ = select.select(list(socks), [], [], max(0.0, min(wait - SPIN_S, 0.05)))
        if not readable and wait < 2 * SPIN_S:
            while perf_counter() < next_due:
                pass
        for sock in readable:
            conn = socks[sock]
            try:
                data = sock.recv(65536)
            except OSError as exc:
                fail(conn, f"recv failed: {exc}")
                continue
            received = perf_counter()
            if not data:
                fail(conn, "gateway closed the connection")
                continue
            record = conn.record
            for frame in conn.decoder.feed(data):
                if frame.kind != KIND_VERDICT:
                    fail(conn, f"unexpected frame kind {frame.kind:#04x}")
                    break
                seq, anomaly, level = conn.adapter.decode_verdict(frame.pdu)
                if seq != conn.judged or seq >= conn.sent:
                    fail(conn, f"verdict for seq {seq}, expected {conn.judged}")
                    break
                record.anomalies.append(anomaly)
                record.levels.append(level)
                stamps_out.append(conn.stamps[seq])
                receipts.append(received)
                conn.judged += 1
    for conn in conns:
        if conn.alive:
            conn.sock.close()

    stamps_arr, receipts_arr = np.asarray(stamps_out), np.asarray(receipts)
    window_stats = []
    for (t0, cpu0, gen0, host0), (t1, cpu1, gen1, host1) in zip(samples, samples[1:]):
        window_stats.append({
            "start": t0,
            "packages": int(((receipts_arr >= t0) & (receipts_arr < t1)).sum()),
            "wall": t1 - t0,
            "cpu": cpu1 - cpu0,
            "loadgen_cpu": gen1 - gen0,
            "steal_share": measure.steal_share(host0, host1),
        })
    measured = (stamps_arr >= boundaries[0]) & (stamps_arr < end)
    late = np.asarray(lateness)
    return LoadResult(
        attempted=attempted,
        judged=sum(conn.judged for conn in conns),
        streams=[conn.record for conn in conns],
        windows=window_stats,
        latency_s=(receipts_arr - stamps_arr)[measured],
        lateness_s=late[(late[:, 0] >= boundaries[0]) & (late[:, 0] < end), 1]
        if late.size else late,
        errors=errors,
    )
