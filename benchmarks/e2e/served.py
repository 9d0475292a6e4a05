"""The two served workloads: a server process of its own, and a load
generator with one connection.

``serve-diurnal`` sends one ``place`` per arriving application and waits
for the decision before the next (queue depth 1); ``serve-storm-burst``
puts a whole tick's requests on the wire at once and reads the replies
on a second thread.  Both are closed loops — the next tick's departures
are known only from this tick's replies — so an open-loop rate sweep is
left to a later issue.  Both measure a fixed stretch of the trace
(``metrics.work``) and give up at the ``--seconds`` deadline.

A decision's latency runs from the start of encoding the submission
(the request, or the tick's burst) to its reply decoded.  The host
clock's slices run here, in the load generator, between requests or
bursts, while the server is idle.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.serve.protocol import container_to_wire, encode_frame

from . import tracing
from .hostclock import HostClock
from .metrics import Digest, percentile
from .workloads import TICKS, scenario_plan, scenario_trace

#: ticks replayed one ``place`` per tick before ``serve-diurnal`` measures
DIURNAL_WARMUP_TICKS = 30

_LEN = struct.Struct(">I")


class ServerProcess:
    """``server_main`` in a child process, on a socket in ``workdir``."""

    def __init__(self, root: Path, workdir: Path, family: str, scale: float,
                 trace: bool) -> None:
        # Socket paths are capped near 100 bytes: the child runs in the
        # checkout root and both sides use the path relative to it.
        self.socket_path = os.path.relpath(workdir / "s.sock", root)
        self.report_path = workdir / "server.json"
        self._root = root
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root), str(root / "src"), env.get("PYTHONPATH", "")]
        )
        self._log = open(workdir / "server.log", "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "benchmarks.e2e.server_main",
                "--socket", self.socket_path,
                "--report", str(self.report_path),
                "--family", family, "--scale", str(scale),
                "--trace", str(int(trace)),
            ],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )

    def connect(self, timeout: float = 120.0) -> "Connection":
        """Wait for the server to bind, then connect."""
        deadline = time.monotonic() + timeout
        path = str(self._root / self.socket_path)
        if len(path) > 100:
            path = os.path.relpath(path)
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                sock.settimeout(120.0)
                return Connection(sock)
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.proc.returncode} before "
                        f"binding; see {self._log.name}"
                    )
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)

    def wait_report(self, timeout: float = 120.0) -> dict:
        """After ``shutdown``: wait for the exit, read the report."""
        code = self.proc.wait(timeout=timeout)
        if code != 0:
            raise RuntimeError(
                f"server exited with {code}; see {self._log.name}"
            )
        with open(self.report_path) as fh:
            return json.load(fh)

    def close(self) -> None:
        """Stop the child whatever state the run is in; always waits."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


class Connection:
    """One blocking connection; counts frames so that the k-th frame
    sent pairs with the server's k-th decoded request."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.frames_sent = 0

    def send(self, frames: list[bytes]) -> None:
        self.frames_sent += len(frames)
        self._sock.sendall(frames[0] if len(frames) == 1 else b"".join(frames))

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self._sock.recv(n)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> tuple[bytes, float]:
        """One reply payload and the time its last byte arrived."""
        (length,) = _LEN.unpack(self._recv_exact(_LEN.size))
        payload = self._recv_exact(length)
        return payload, time.monotonic()

    def control(self, rtype: str) -> dict:
        self.send([encode_frame({"type": rtype})])
        reply = json.loads(self.recv()[0])
        if reply.get("status") != "ok":
            raise RuntimeError(f"{rtype}: {reply}")
        return reply

    def close(self) -> None:
        self._sock.close()


def _place_frame(containers, departures) -> bytes:
    return encode_frame({
        "type": "place",
        "containers": [container_to_wire(c) for c in containers],
        "departures": list(departures),
    })


class _Replay:
    """The scenario's arrival plan, tick by tick, with the departure
    booking ``replay_online_schedule`` does from each reply."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self._idx = 0
        self._departures: dict[int, list[int]] = {}

    def tick(self, tick: int) -> tuple[list[int], list[list]]:
        """(departing container ids, one container list per arriving app)"""
        plan = self.plan
        apps = []
        while self._idx < len(plan.apps) and plan.arrival_tick[self._idx] <= tick:
            apps.append(plan.by_app[plan.apps[self._idx].app_id])
            self._idx += 1
        return self._departures.pop(tick, []), apps

    def requests(self, first_tick: int):
        """``(tick, containers, departures)`` per arriving application
        from ``first_tick`` on; a tick's departures ride on its first
        request.  Book each reply before asking for the next."""
        for tick in range(first_tick, TICKS):
            deps, apps = self.tick(tick)
            for containers in apps or [[]]:
                yield tick, containers, deps
                deps = []

    def book(self, tick: int, containers, placements: dict) -> None:
        for c in containers:
            if str(c.container_id) in placements:
                end = tick + self.plan.life_of[c.app_id]
                self._departures.setdefault(end, []).append(c.container_id)


class _Tally:
    """What the load generator saw, request by request."""

    def __init__(self) -> None:
        self.sent = self.decided = self.rejected = self.errors = 0
        self.submitted = self.placed = self.failed = 0
        self.bytes_out = self.bytes_in = 0
        self.encode_s = self.decode_s = 0.0
        #: per decision: (submission start, reply decoded)
        self.decisions: list[tuple[float, float]] = []
        #: wall intervals that cover the measured work, back to back
        self.busy: list[tuple[float, float]] = []
        self.first_tick: int | None = None
        self.digest = Digest()
        #: per request: (frame seq, submission start, send start,
        #: reply received, reply decoded) — the client half of the budget
        self.requests: list[tuple] = []

    def reply(self, reply: dict, containers) -> dict:
        """Count one reply; returns its placements."""
        status = reply.get("status")
        if status == "ok":
            self.decided += 1
            placements = reply.get("placements", {})
            undeployed = reply.get("undeployed", {})
            self.submitted += len(containers)
            self.placed += len(placements)
            self.failed += len(undeployed)
            if self.first_tick is None:
                self.first_tick = reply["tick"]
            return placements
        if status == "rejected":
            self.rejected += 1
        else:
            self.errors += 1
        self.submitted += len(containers)
        self.failed += len(containers)
        return {}


def _setup(root: Path, workdir: Path, family: str, scale: float, seed: int,
           tracer):
    """Server process and client-side trace, built side by side."""
    server = ServerProcess(root, workdir, family, scale, tracer is not None)
    try:
        t0 = time.monotonic()
        with tracing.span(tracer, "trace.build"):
            trace = scenario_trace(family, scale)
        build_s = time.monotonic() - t0
        plan = scenario_plan(trace, family, seed)
        conn = server.connect()
    except BaseException:
        server.close()
        raise
    return server, conn, trace, plan, build_s


def _finish(server: ServerProcess, conn: Connection, clock: HostClock,
            tally: _Tally, work_done: int, truncated: bool,
            warmup_frames: int, stats_before: dict,
            setup: tuple[float, float], trace, info: dict,
            diagnostics: dict) -> dict:
    """Final control reads, shutdown, the server's report — and the
    result record both served workloads share."""
    clock.slice()
    end = time.monotonic()
    stats = conn.control("stats")
    canonical = json.loads(conn.control("result")["canonical"])
    conn.control("shutdown")
    report = server.wait_report()

    samples = canonical["samples"]
    totals = canonical["totals"]
    service = stats["service"]
    first = tally.first_tick if tally.first_tick is not None else len(samples)
    measured = samples[first:]
    log = report["windows"]
    base = log[first - 1] if first > 0 else {"elapsed_s": 0.0, "phase_s": {}}
    last = log[-1] if log else base
    phase_s = {
        name: value - base["phase_s"].get(name, 0.0)
        for name, value in last["phase_s"].items()
    }
    before = stats_before["scheduler"]
    return {
        "clock": clock,
        "setup": setup,
        "busy": tally.busy,
        "decisions": tally.decisions,
        "work_done": work_done,
        "truncated": truncated,
        "interval": (setup[1], end),
        "info": {
            "n_machines": report["n_machines"],
            "n_apps": trace.n_apps, "n_containers": trace.n_containers,
            **info,
        },
        "diagnostics": diagnostics,
        "units": tally.sent,
        "units_failed": tally.rejected + tally.errors,
        "submitted": tally.submitted,
        "placed": tally.placed,
        "sched_elapsed_s": last["elapsed_s"] - base["elapsed_s"],
        "peak_used_machines": max(s["used_machines"] for s in samples),
        "peak_rss_kb": report["ru_maxrss_kb"],
        "digest": tally.digest.hexdigest(),
        "checks": {
            "admitted + rejected == frames sent": (
                service["requests_admitted"] + service["requests_rejected"]
                == warmup_frames + tally.sent
            ),
            "zero errors, zero rejections": (
                tally.errors == 0 and tally.rejected == 0
                and service["replies_failed"] == 0
            ),
            "every request decided": tally.decided == tally.sent,
            "arrived - failed - departed == resident": (
                totals["arrived"] - totals["failed"] - totals["departed"]
                == (samples[-1]["running"] if samples else 0)
            ),
            "zero anti-affinity violations in every sample": all(
                s["violations"] == 0 for s in samples
            ),
            "Eq. 7-9 audit of the final state": report["audit_ok"],
        },
        "client": {
            "sent": tally.sent, "decided": tally.decided,
            "rejected": tally.rejected, "errors": tally.errors,
            "warmup_frames": warmup_frames,
        },
        "counters": {
            name: value - before.get(name, 0)
            for name, value in stats["scheduler"].items()
        },
        "service": service,
        "phase_s": phase_s,
        "explored": sum(s["explored"] for s in measured),
        "evicted": sum(s["departed"] for s in measured),
        "windows": len(measured),
        "server_report": report,
        "tally": tally,
    }


def run_serve_diurnal(root: Path, workdir: Path, seed: int, scale: float,
                      n_ticks: int, seconds: float, tracer) -> dict:
    clock = HostClock()
    t_setup = time.monotonic()
    with clock.sampling():
        server, conn, trace, plan, build_s = _setup(
            root, workdir, "diurnal", scale, seed, tracer
        )
    try:
        replay = _Replay(plan)
        warm = _Tally()
        with clock.sampling():
            for tick in range(DIURNAL_WARMUP_TICKS):
                deps, apps = replay.tick(tick)
                batch = [c for app in apps for c in app]
                conn.send([_place_frame(batch, deps)])
                warm.sent += 1
                reply = json.loads(conn.recv()[0])
                replay.book(tick, batch, warm.reply(reply, batch))
            stats_before = conn.control("stats")
        start = time.monotonic()

        tally = _Tally()
        truncated = False
        ticks_done = n_ticks
        # whole ticks: every seed then submits the same applications
        last_tick = DIURNAL_WARMUP_TICKS + n_ticks - 1
        for tick, containers, deps in itertools.takewhile(
            lambda request: request[0] <= last_tick,
            replay.requests(DIURNAL_WARMUP_TICKS),
        ):
            clock.pace()
            t0 = time.monotonic()
            if t0 >= start + seconds:
                truncated = True
                ticks_done = tick - DIURNAL_WARMUP_TICKS
                break
            frame = _place_frame(containers, deps)
            t_send = time.monotonic()
            conn.send([frame])
            payload, t_recv = conn.recv()
            reply = json.loads(payload)
            t_done = time.monotonic()
            tally.sent += 1
            tally.encode_s += t_send - t0
            tally.decode_s += t_done - t_recv
            tally.bytes_out += len(frame)
            tally.bytes_in += len(payload) + _LEN.size
            tally.decisions.append((t0, t_done))
            tally.requests.append(
                (conn.frames_sent - 1, t0, t_send, t_recv, t_done)
            )
            placed = tally.reply(reply, containers)
            tally.digest.add(placed, reply.get("undeployed", {}))
            replay.book(tick, containers, placed)
            tally.busy.append((t0, time.monotonic()))
        return _finish(
            server, conn, clock, tally, ticks_done, truncated, warm.sent,
            stats_before, (t_setup, start), trace,
            {
                "family": "diurnal", "scale": scale, "trace_build_s": build_s,
                "warmup_ticks": DIURNAL_WARMUP_TICKS,
                "warmup_containers": warm.submitted,
            },
            {},
        )
    finally:
        conn.close()
        server.close()


def run_serve_storm_burst(root: Path, workdir: Path, seed: int, scale: float,
                          n_ticks: int, seconds: float, tracer) -> dict:
    clock = HostClock()
    t_setup = time.monotonic()
    with clock.sampling():
        server, conn, trace, plan, build_s = _setup(
            root, workdir, "churn-storm", scale, seed, tracer
        )
    try:
        replay = _Replay(plan)
        stats_before = conn.control("stats")
        start = time.monotonic()

        tally = _Tally()
        drains_s: list[float] = []
        truncated = False
        for tick in range(min(n_ticks, TICKS)):
            clock.slice()
            t0 = time.monotonic()
            if t0 >= start + seconds:
                truncated = True
                break
            deps, apps = replay.tick(tick)
            apps = apps or [[]]
            frames = [
                _place_frame(containers, deps if i == 0 else ())
                for i, containers in enumerate(apps)
            ]
            t_send = time.monotonic()
            replies: list[tuple] = []
            reader = threading.Thread(
                target=_read_replies, args=(conn, len(frames), replies)
            )
            reader.start()
            first_seq = conn.frames_sent
            conn.send(frames)
            reader.join()
            if len(replies) != len(frames):
                raise ConnectionError("connection lost inside a burst")
            tally.sent += len(frames)
            tally.encode_s += t_send - t0
            tally.bytes_out += sum(len(f) for f in frames)
            placements: dict = {}
            undeployed: dict = {}
            for i, (containers, (reply, size, t_recv, t_done)) in enumerate(
                zip(apps, replies)
            ):
                tally.decode_s += t_done - t_recv
                tally.bytes_in += size
                tally.decisions.append((t0, t_done))
                tally.requests.append((first_seq + i, t0, t_send, t_recv, t_done))
                placed = tally.reply(reply, containers)
                placements.update(placed)
                undeployed.update(reply.get("undeployed", {}))
                replay.book(tick, containers, placed)
            tally.digest.add(placements, undeployed)
            drains_s.append(replies[-1][3] - t0)
            tally.busy.append((t0, time.monotonic()))
        drains_s.sort()
        return _finish(
            server, conn, clock, tally, len(drains_s), truncated, 0,
            stats_before, (t_setup, start), trace,
            {
                "family": "churn-storm", "scale": scale,
                "trace_build_s": build_s,
            },
            # burst start -> last reply of the tick
            {
                "tick_drain_samples": len(drains_s),
                "tick_drain_p50_ms": percentile(drains_s, 0.5) * 1e3,
                "tick_drain_p90_ms": percentile(drains_s, 0.9) * 1e3,
                "tick_drain_max_ms": drains_s[-1] * 1e3,
            } if drains_s else {},
        )
    finally:
        conn.close()
        server.close()


def _read_replies(conn: Connection, n: int, out: list) -> None:
    """Reader thread of a burst: receive, timestamp and decode ``n``
    replies as they arrive (the sender may still be writing)."""
    try:
        for _ in range(n):
            payload, t_recv = conn.recv()
            reply = json.loads(payload)
            out.append((reply, len(payload) + _LEN.size, t_recv, time.monotonic()))
    except (OSError, ValueError):
        pass  # the short list tells the sender the burst was cut off
