"""Asyncio placement service around a scheduler.

The serving loop turns the repository's simulated ticks into live
traffic handling: clients connect over a local socket, speak the
length-prefixed JSON protocol of :mod:`repro.serve.protocol`, and the
server coalesces their placement/departure/fault requests into
*scheduling windows* — the same unit
:func:`repro.sim.online.apply_window` applies in the simulator, which
is why served decisions are bit-identical to a simulated run over the
same request stream.

Life of a request
-----------------
1. **Admission.**  A window-type request either enters the bounded
   queue or — when the queue is at ``max_queue`` — is answered
   immediately with a 429-style ``rejected`` reply carrying
   ``retry_after``.  Nothing is ever silently dropped: every admitted
   request gets exactly one decision reply, every refused one gets
   exactly one rejection.
2. **Coalescing.**  The window loop drains up to ``window_max`` queued
   requests into one window.  Fault/repair requests are vetted against
   the committed state *before* anything mutates — one naming an
   unknown machine (or repairing a machine that still hosts
   containers) gets its own ``error`` reply and is dropped from the
   window, never aborting it half-applied.  Within a window the
   application order is fixed and documented: repairs, then faults
   (two passes in that order, regardless of arrival interleaving;
   displaced containers are requeued ahead of the window's arrivals in
   priority order, minus any container the same window departs), then
   departures, then one scheduler round over the combined batch.
3. **Commit.**  The window mutates the cluster state, appends a
   :class:`~repro.sim.online.TickSample` to the run's
   :class:`~repro.sim.online.OnlineResult`, records per-window
   decisions in a bounded replay log, and — every ``checkpoint_every``
   windows — writes a crash-consistent snapshot (PR 5's envelope).  A
   server SIGKILLed after the commit restarts warm via
   :meth:`PlacementServer.restore`; the lost replies are recoverable
   through the ``decisions`` control request.  The log holds a window's
   placements (warm-pool claims included) as two id arrays, container
   and machine, ~16 B a placement; the ``{str(container_id): machine}``
   reply is rendered only when a client asks.
4. **Reply.**  Replies are serialised and written by an asyncio task
   that runs before the *next* window starts; a slow client's unsent
   bytes wait in its transport, never in front of scheduling.

Every window runs on the event-loop thread, so reads, commits and
control replies never interleave and need no lock.  The trade-off:
frames, control requests and admission decisions (429s included) are
handled *between* windows, so each waits at most one window.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from repro.base import ScheduleResult, Scheduler
from repro.cluster.state import ClusterState
from repro.serve.protocol import (
    ProtocolError,
    encode_frame,
    read_frame,
    validate_request,
)
from repro.sim.faults import fail_machines, repair_machines
from repro.sim.online import (
    OnlineResult,
    apply_window,
    read_run_snapshot,
    record_window,
    write_run_snapshot,
)
from repro.telemetry import ServiceTelemetry

#: snapshot ``kind`` tag of a serve checkpoint
SNAPSHOT_KIND = "serve"


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving loop.

    Parameters
    ----------
    max_queue:
        Admission bound: window-type requests beyond this many waiting
        are rejected with a 429-style reply instead of queued.
    window_max:
        Most requests one scheduling window may coalesce.
    retry_after_s:
        Client back-off hint carried by rejection replies.
    checkpoint_every / checkpoint_path:
        Write a crash-consistent snapshot to ``checkpoint_path`` every
        ``checkpoint_every`` committed windows (0 = never).
    decision_log:
        Committed windows whose decisions stay re-fetchable via the
        ``decisions`` request (the reply-recovery window after a crash).
    """

    max_queue: int = 1024
    window_max: int = 256
    retry_after_s: float = 0.05
    checkpoint_every: int = 0
    checkpoint_path: str | None = None
    decision_log: int = 512

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.window_max < 1:
            raise ValueError("window_max must be >= 1")
        if self.decision_log < 1:
            raise ValueError("decision_log must be >= 1")


class PlacementServer:
    """Serve placement decisions for one scheduler over a unix socket.

    ``on_window(tick, checkpoint_path_or_None)`` — invoked synchronously
    right after a window commits (and its snapshot, if due, is durably
    on disk) but *before* any reply is sent — is the crash-injection
    hook the fault tests and the CLI's ``--crash-after-window`` use.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        state: ClusterState,
        config: ServeConfig | None = None,
        *,
        on_window=None,
        lifecycle=None,
    ) -> None:
        self.scheduler = scheduler
        self.state = state
        self.config = config if config is not None else ServeConfig()
        self.on_window = on_window
        #: optional :class:`~repro.sim.lifecycle.LifecycleRuntime` —
        #: served windows then run the same pool/power phases the
        #: simulator's autoscale windows do
        self.lifecycle = lifecycle
        self.telemetry = ServiceTelemetry()
        #: the run so far, in the simulator's result shape — served and
        #: simulated runs over the same stream compare via canonical_json
        self.result = OnlineResult()
        #: committed windows; doubles as the next window's tick id
        self.windows = 0
        #: tick -> decisions of that committed window (bounded log;
        #: ``placements`` as a (container ids, machine ids) array pair)
        self.decisions: dict[int, dict] = {}
        self._queue: deque = deque()
        self._wakeup = asyncio.Event()
        self._stop = asyncio.Event()
        self._reply_tasks: set[asyncio.Task] = set()
        #: live per-client handler task -> its writer, so shutdown can
        #: close the connections and await the handlers instead of
        #: leaving them for the event loop's teardown to cancel
        self._clients: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def write_checkpoint(self, path: str) -> None:
        """Crash-consistent snapshot of the served run (atomic rename)."""
        write_run_snapshot(
            path, SNAPSHOT_KIND,
            _fingerprint(self.state.n_machines, self.scheduler, self.lifecycle),
            self.scheduler, self.state, self.result, self.lifecycle,
            windows=self.windows, decisions=dict(self.decisions),
        )

    @classmethod
    def restore(
        cls,
        path: str,
        scheduler: Scheduler,
        topology,
        constraints,
        config: ServeConfig | None = None,
        *,
        on_window=None,
        lifecycle=None,
    ) -> "PlacementServer":
        """Rebuild a server warm from a :meth:`write_checkpoint` snapshot.

        The scheduler's cross-round ledgers resync from the persisted
        dirty-log watermark exactly as the online simulator's restore
        path does; a SIGKILLed server restarted this way continues with
        the committed window's state, counters and decision log.  A
        snapshot taken with a lifecycle runtime requires a matching
        ``lifecycle`` (same knobs — enforced by the fingerprint); its
        power states and pool heap restore with it.
        """
        payload, state = read_run_snapshot(
            path, SNAPSHOT_KIND,
            _fingerprint(topology.n_machines, scheduler, lifecycle),
            scheduler, topology, constraints, lifecycle,
        )
        server = cls(
            scheduler, state, config, on_window=on_window, lifecycle=lifecycle
        )
        server.windows = int(payload["windows"])
        server.result = payload["result"]
        server.decisions = {int(t): d for t, d in payload["decisions"].items()}
        for entry in server.decisions.values():
            placed = entry["placements"]
            if isinstance(placed, dict):  # an older snapshot's str keys
                entry["placements"] = _id_arrays(
                    {int(cid): mid for cid, mid in placed.items()}
                )
        return server

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def run(self, socket_path: str, *, ready: threading.Event | None = None):
        """Serve on ``socket_path`` until a shutdown request (or
        :meth:`request_stop`); drains queued windows before returning."""
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_unix_server(self._handle, path=socket_path)
        if ready is not None:
            ready.set()
        window_task = asyncio.create_task(self._window_loop())
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            self._stop.set()  # reached via cancellation too
            self._wakeup.set()
            await window_task
            if self._reply_tasks:
                await asyncio.gather(*self._reply_tasks, return_exceptions=True)
            # hang up on idle clients (their read_frame sees EOF) and
            # wait for every handler to finish on its own
            for client_writer in list(self._clients.values()):
                client_writer.close()
            if self._clients:
                await asyncio.gather(*self._clients, return_exceptions=True)

    def request_stop(self) -> None:
        """Thread-safe shutdown trigger (used by :class:`ServerThread`)."""
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(self._signal_stop)

    def _signal_stop(self) -> None:
        self._stop.set()
        self._wakeup.set()

    # ------------------------------------------------------------------
    # per-client protocol loop
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._clients[task] = writer
        try:
            while True:
                try:
                    req = await read_frame(reader)
                except ProtocolError as exc:
                    # Framing is broken: answer once, then hang up —
                    # the byte stream can no longer be trusted.
                    await self._write(writer, {"status": "error", "error": str(exc)})
                    break
                if req is None:
                    break
                try:
                    validate_request(req)
                except ProtocolError as exc:
                    # The frame was well-formed, so the stream is still
                    # in sync; report and keep serving this client.
                    await self._write(writer, {"status": "error", "error": str(exc)})
                    continue
                rtype = req["type"]
                if rtype == "ping":
                    await self._write(writer, {"status": "ok", "pong": True})
                elif rtype == "stats":
                    await self._write(writer, self._stats_reply())
                elif rtype == "result":
                    canonical = self.result.canonical_json()
                    await self._write(
                        writer, {"status": "ok", "canonical": canonical}
                    )
                elif rtype == "decisions":
                    reply = self._decisions_reply(req["tick"])
                    await self._write(writer, reply)
                elif rtype == "shutdown":
                    await self._write(writer, {"status": "ok", "stopping": True})
                    self._signal_stop()
                else:
                    self._admit(req, writer)
        except (ConnectionError, OSError):
            pass
        finally:
            self._clients.pop(task, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _admit(self, req: dict, writer) -> None:
        if len(self._queue) >= self.config.max_queue or self._stop.is_set():
            self.telemetry.record_rejection()
            task = asyncio.ensure_future(self._write(writer, {
                "status": "rejected",
                "code": 429,
                "retry_after": self.config.retry_after_s,
            }))
            self._track(task)
            return
        self._queue.append((req, writer))
        self.telemetry.record_admission(len(self._queue))
        self._wakeup.set()

    def _stats_reply(self) -> dict:
        return {
            "status": "ok",
            "windows": self.windows,
            "queue_depth": len(self._queue),
            "service": self.telemetry.counters(),
            "scheduler": self.result.telemetry.counters(),
            "totals": {
                "arrived": self.result.total_arrived,
                "departed": self.result.total_departed,
                "failed": self.result.total_failed,
                "migrations": self.result.total_migrations,
            },
        }

    def _decisions_reply(self, tick: int) -> dict:
        entry = self.decisions.get(tick)
        if entry is None:
            return {
                "status": "error",
                "error": f"window {tick} is not in the decision log "
                f"(committed: {self.windows}, log keeps "
                f"{self.config.decision_log})",
            }
        containers, machines = entry["placements"]
        placements = zip(map(str, containers.tolist()), machines.tolist())
        return {"status": "ok", "tick": tick, **entry,
                "placements": dict(placements)}

    async def _write(self, writer, obj: dict) -> bool:
        try:
            writer.write(encode_frame(obj))
            await writer.drain()
            return True
        except (ConnectionError, OSError, RuntimeError):
            # The client went away; the window still committed and its
            # decisions stay re-fetchable from the decision log.
            self.telemetry.replies_failed += 1
            return False

    def _track(self, task: asyncio.Task) -> None:
        self._reply_tasks.add(task)
        task.add_done_callback(self._reply_tasks.discard)

    # ------------------------------------------------------------------
    # window loop
    # ------------------------------------------------------------------
    async def _window_loop(self) -> None:
        while True:
            if not self._queue:
                if self._stop.is_set():
                    return
                self._wakeup.clear()
                # Re-check under the cleared event: a request admitted
                # between the emptiness check and clear() has set it.
                if not self._queue and not self._stop.is_set():
                    await self._wakeup.wait()
                continue
            window = []
            while self._queue and len(window) < self.config.window_max:
                window.append(self._queue.popleft())
            self.telemetry.record_window(len(window))
            try:
                replies = self._apply_window(window)
            except Exception as exc:
                # Last resort for a genuine scheduler bug — protocol-
                # valid requests can no longer land here, because
                # _validate_window vets fault/repair targets before
                # the window mutates any state.
                replies = [
                    (w, {"status": "error",
                         "error": f"window failed: {exc!r}"})
                    for _req, w in window
                ]
            # One yield per window: the reply task runs (and any handler
            # already runnable reads) before the next window starts.
            self._track(asyncio.create_task(self._send_replies(replies)))
            await asyncio.sleep(0)

    async def _send_replies(self, replies) -> None:
        for writer, obj in replies:
            await self._write(writer, obj)

    # ------------------------------------------------------------------
    # window application
    # ------------------------------------------------------------------
    def _validate_window(self, window) -> dict[int, str]:
        """Vet fault/repair requests against the committed state.

        Runs before *anything* mutates, so one bad request can never
        abort — or half-apply — the window it coalesced into.  Returns
        ``id(req) -> message`` for requests that cannot apply; each
        gets its own ``error`` reply and is excluded from the window.

        The checks mirror exactly what would make the apply helpers
        raise: :func:`fail_machines` rejects out-of-range ids, already
        -down machines and duplicates; :func:`repair_machines` rejects
        out-of-range ids, machines still hosting containers, and
        machines that were never failed.  Repairs apply first (in
        arrival order) and faults second, so eligibility is tracked
        through the window: a repair makes its machine faultable again
        within the same window, and two faults naming the same machine
        reject the later one.

        With a lifecycle runtime, machines the power planner holds in
        ``draining``/``off`` are additionally off-limits to both —
        powered-down is not failed, and a repair would silently undo
        the planner's seal.
        """
        errors: dict[int, str] = {}
        n = self.state.n_machines
        hosts = self.state.machine_containers
        avail = self.state.available

        def is_down(m: int) -> bool:
            return not hosts.get(m) and not avail[m].any()

        def powered_down(machines) -> list[int]:
            if self.lifecycle is None:
                return []
            return [m for m in machines if not self.lifecycle.power.is_on(m)]

        repaired: set[int] = set()
        for req, _writer in window:
            if req["type"] != "repair":
                continue
            bad = [m for m in req["machines"] if not 0 <= m < n]
            if bad:
                errors[id(req)] = (
                    f"repair: machines {bad} out of range "
                    f"(cluster has {n} machines)"
                )
                continue
            sealed = powered_down(req["machines"])
            if sealed:
                errors[id(req)] = (
                    f"repair: machines {sealed} are powered down, "
                    "not failed"
                )
                continue
            hosting = [m for m in req["machines"] if hosts.get(m)]
            if hosting:
                errors[id(req)] = (
                    f"repair: machines {hosting} host containers; "
                    "they were not failed"
                )
                continue
            healthy = [
                m for m in req["machines"]
                if m not in repaired and not is_down(m)
            ]
            if healthy:
                errors[id(req)] = (
                    f"repair: machines {healthy} are not failed"
                )
                continue
            repaired.update(req["machines"])

        faulted: set[int] = set()
        for req, _writer in window:
            if req["type"] != "fault":
                continue
            bad = [m for m in req["machines"] if not 0 <= m < n]
            if bad:
                errors[id(req)] = (
                    f"fault: machines {bad} out of range "
                    f"(cluster has {n} machines)"
                )
                continue
            sealed = powered_down(req["machines"])
            if sealed:
                errors[id(req)] = (
                    f"fault: machines {sealed} are powered down"
                )
                continue
            seen: set[int] = set()
            down = []
            for m in req["machines"]:
                if (
                    m in seen
                    or m in faulted
                    or (is_down(m) and m not in repaired)
                ):
                    down.append(m)
                seen.add(m)
            if down:
                errors[id(req)] = (
                    f"fault: machines {down} are already failed"
                )
                continue
            faulted.update(req["machines"])
        return errors

    def _apply_window(self, window) -> list:
        """Commit one coalesced window; returns ``(writer, reply)`` pairs.

        Fault/repair requests are validated by :meth:`_validate_window`
        before any state mutates; invalid ones are answered with
        per-request ``error`` replies and skipped, so the window always
        commits atomically for the requests that remain.

        Application order within the window: repairs → faults →
        departures → one scheduler round over requeued-displaced +
        placement arrivals.  Repairs and faults apply as two passes in
        that order — never interleaved by arrival — so a window's
        outcome does not depend on how its requests happened to be
        ordered on the wire.  A fault-displaced container that the same
        window departs is dropped from the requeue, mirroring a
        departure that raced the failure.
        """
        tick = self.windows
        errors = self._validate_window(window)
        live = [(req, w) for req, w in window if id(req) not in errors]
        departures: list[int] = []
        requeue: list = []
        arrivals: list = []
        faulted: dict[int, list[int]] = {}
        for req, _writer in live:
            if req["type"] == "repair":
                repair_machines(self.state, req["machines"])
        for req, _writer in live:
            if req["type"] == "fault":
                report = fail_machines(self.state, req["machines"])
                displaced = sorted(
                    report.displaced,
                    key=lambda c: (-c.priority, c.container_id),
                )
                faulted[id(req)] = [c.container_id for c in displaced]
                requeue.extend(displaced)
        for req, _writer in live:
            rtype = req["type"]
            if rtype == "depart":
                departures.extend(req["containers"])
            elif rtype == "place":
                departures.extend(req.get("departures", ()))
                arrivals.extend(req["_containers"])
            # "step" contributes nothing beyond forcing the window

        departing = set(departures)
        batch = [
            c for c in requeue if c.container_id not in departing
        ] + arrivals

        sample, schedule = apply_window(
            self.scheduler, self.state,
            tick=tick, departures=departures, batch=batch,
            lifecycle=self.lifecycle,
        )
        warm = self.lifecycle.last_warm if self.lifecycle is not None else {}
        penalties = (
            self.lifecycle.last_penalties if self.lifecycle is not None else {}
        )
        record_window(self.result, sample, schedule)
        self._log_decisions(tick, sample, schedule, warm, penalties)
        self.windows += 1

        ckpt = None
        cfg = self.config
        if (
            cfg.checkpoint_every
            and cfg.checkpoint_path
            and self.windows % cfg.checkpoint_every == 0
        ):
            self.write_checkpoint(cfg.checkpoint_path)
            ckpt = cfg.checkpoint_path
        if self.on_window is not None:
            self.on_window(tick, ckpt)

        return self._build_replies(
            window, tick, sample, schedule, faulted, errors, warm, penalties
        )

    def _log_decisions(
        self,
        tick,
        sample,
        schedule: ScheduleResult | None,
        warm=(),
        penalties=(),
    ):
        placed = schedule.placements if schedule is not None else {}
        # Warm-pool claims are placements too — they just never reached
        # the scheduler.  Replay clients must see them to book departures.
        entry = {
            "placements": _id_arrays(placed, dict(warm)),
            "undeployed": {
                str(cid): reason.value
                for cid, reason in schedule.undeployed.items()
            } if schedule is not None else {},
            "departed": sample.departed_containers,
        }
        if self.lifecycle is not None:
            entry["penalties"] = {
                str(cid): t for cid, t in dict(penalties).items()
            }
            entry["pool"] = sample.pool_size
        self.decisions[tick] = entry
        while len(self.decisions) > self.config.decision_log:
            self.decisions.pop(min(self.decisions))

    def _build_replies(
        self, window, tick, sample, schedule, faulted, errors,
        warm=(), penalties=(),
    ) -> list:
        placements = dict(
            schedule.placements if schedule is not None else {}
        )
        placements.update(dict(warm))
        undeployed = schedule.undeployed if schedule is not None else {}
        penalties = dict(penalties)
        out = []
        for req, writer in window:
            failed = errors.get(id(req))
            if failed is not None:
                out.append((writer, {"status": "error", "error": failed}))
                continue
            rtype = req["type"]
            reply: dict = {"status": "ok", "tick": tick}
            if rtype == "place":
                mine = [c.container_id for c in req["_containers"]]
                reply["placements"] = {
                    str(cid): placements[cid] for cid in mine
                    if cid in placements
                }
                reply["undeployed"] = {
                    str(cid): undeployed[cid].value for cid in mine
                    if cid in undeployed
                }
                reply["departed"] = sum(
                    1 for cid in req.get("departures", ())
                    if cid not in self.state.assignment
                )
                if self.lifecycle is not None:
                    reply["penalties"] = {
                        str(cid): penalties[cid] for cid in mine
                        if cid in penalties
                    }
                    # Replay clients use the pool size to know when the
                    # run has fully drained.
                    reply["pool"] = sample.pool_size
            elif rtype == "depart":
                reply["departed"] = sum(
                    1 for cid in req["containers"]
                    if cid not in self.state.assignment
                )
            elif rtype == "fault":
                displaced = faulted.get(id(req), [])
                reply["displaced"] = displaced
                reply["placements"] = {
                    str(cid): placements[cid] for cid in displaced
                    if cid in placements
                }
                reply["undeployed"] = {
                    str(cid): undeployed[cid].value for cid in displaced
                    if cid in undeployed
                }
            elif rtype == "repair":
                reply["repaired"] = list(req["machines"])
            elif rtype == "step":
                reply["running"] = sample.running_containers
            out.append((writer, reply))
        return out


def _fingerprint(n_machines: int, scheduler: Scheduler, lifecycle) -> dict:
    """What a serve snapshot must match to be restorable."""
    return {
        "n_machines": n_machines,
        "scheduler": scheduler.name,
        "lifecycle": (
            asdict(lifecycle.config) if lifecycle is not None else None
        ),
    }


def _id_arrays(*placed: dict) -> tuple[np.ndarray, np.ndarray]:
    """The ``{container: machine}`` maps ``placed``, chained, as container
    and machine id arrays: int64, or objects for container ids past it
    (the protocol bounds them below only)."""
    n = sum(map(len, placed))
    machines = np.fromiter(chain(*(p.values() for p in placed)), np.int64, n)
    try:
        return np.fromiter(chain(*placed), np.int64, n), machines
    except OverflowError:
        return np.array([*chain(*placed)], dtype=object), machines


# ----------------------------------------------------------------------
# thread harness
# ----------------------------------------------------------------------
class ServerThread:
    """Run a :class:`PlacementServer` on a background event loop.

    The in-process harness the tests, docs snippets and benchmarks use:
    ``with ServerThread(server, path):`` serves on ``path`` until the
    block exits (shutdown is requested and the drain awaited).  The
    context manager re-raises a server crash instead of hiding it.
    """

    def __init__(self, server: PlacementServer, socket_path: str) -> None:
        self.server = server
        self.socket_path = socket_path
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, name="aladdin-serve", daemon=True
        )

    def _main(self) -> None:
        try:
            asyncio.run(self.server.run(self.socket_path, ready=self._ready))
        except BaseException as exc:  # surfaced by stop()/__exit__
            self._error = exc
        finally:
            self._ready.set()

    def start(self) -> "ServerThread":
        self._thread.start()
        became_ready = self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if not became_ready:
            raise RuntimeError(
                "serve thread did not become ready within 30s"
            )
        return self

    def stop(self, timeout: float = 60) -> None:
        self.server.request_stop()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not drain in time")
        if self._error is not None:
            raise self._error

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
