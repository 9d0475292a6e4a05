"""Blocking client for the placement service, plus the replay driver.

:class:`ServeClient` is the synchronous counterpart of the asyncio
server: one unix-socket connection, one frame out, one frame back.  It
is what the tests, the load generator and the benchmark use — and what
an operator poking at a live server with a REPL would use.

:func:`replay_online_schedule` is the serving-mode differential's
engine: it recomputes the simulator's seeded arrival/departure plan
(:func:`repro.sim.online.arrival_schedule`) and drives it through a
live server **one request per simulated tick**, so the server's window
counter stays aligned with the simulator's tick counter and the two
runs apply byte-identical windows.
"""

from __future__ import annotations

import socket
import time

from repro.serve.protocol import container_to_wire, recv_frame, send_frame
from repro.sim.online import (
    OnlineConfig,
    arrival_schedule,
    lifecycle_horizon_tail,
)
from repro.trace.schema import Trace


class ServeError(RuntimeError):
    """The server answered ``status: error``."""


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.PlacementServer`.

    ``connect_timeout`` covers the wait for the socket to appear —
    subprocess-spawned servers need a moment to bind.
    """

    def __init__(
        self,
        socket_path: str,
        *,
        timeout: float = 120.0,
        connect_timeout: float = 30.0,
    ) -> None:
        self.socket_path = socket_path
        deadline = time.monotonic() + connect_timeout
        while True:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self._sock.connect(socket_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                self._sock.close()
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)
        self._sock.settimeout(timeout)

    # ------------------------------------------------------------------
    def request(self, obj: dict) -> dict:
        """One request/reply round-trip; raises on connection loss."""
        send_frame(self._sock, obj)
        reply = recv_frame(self._sock)
        if reply is None:
            raise ConnectionError("server closed the connection")
        return reply

    def _checked(self, obj: dict) -> dict:
        reply = self.request(obj)
        if reply.get("status") == "error":
            raise ServeError(reply.get("error", "unknown server error"))
        return reply

    # -- window requests ------------------------------------------------
    def place(
        self, containers, departures=(), *, honor_retry: bool = True
    ) -> dict:
        """Submit a placement batch (optionally with departures).

        With ``honor_retry`` (the default), a 429-style rejection is
        retried after the server's ``retry_after`` hint until admitted —
        the well-behaved closed-loop client.  Without it, the rejection
        reply is returned as-is.
        """
        req = {
            "type": "place",
            "containers": [container_to_wire(c) for c in containers],
            "departures": list(departures),
        }
        while True:
            reply = self._checked(req)
            if reply.get("status") != "rejected" or not honor_retry:
                return reply
            time.sleep(reply.get("retry_after", 0.05))

    def depart(self, container_ids) -> dict:
        return self._checked(
            {"type": "depart", "containers": list(container_ids)}
        )

    def fault(self, machine_ids) -> dict:
        return self._checked({"type": "fault", "machines": list(machine_ids)})

    def repair(self, machine_ids) -> dict:
        return self._checked({"type": "repair", "machines": list(machine_ids)})

    def step(self) -> dict:
        """Force an empty window boundary."""
        return self._checked({"type": "step"})

    # -- control requests ----------------------------------------------
    def ping(self) -> bool:
        return bool(self._checked({"type": "ping"}).get("pong"))

    def stats(self) -> dict:
        return self._checked({"type": "stats"})

    def result(self) -> str:
        """The served run's canonical JSON so far."""
        return self._checked({"type": "result"})["canonical"]

    def decisions(self, tick: int) -> dict:
        """Re-fetch a committed window's decisions from the server log."""
        return self._checked({"type": "decisions", "tick": tick})

    def shutdown(self) -> dict:
        return self._checked({"type": "shutdown"})

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# serving-mode replay
# ----------------------------------------------------------------------
def replay_online_schedule(
    client: ServeClient,
    trace: Trace,
    config: OnlineConfig,
    *,
    decisions: dict | None = None,
    start_tick: int = 0,
) -> dict:
    """Drive the simulator's seeded schedule through a live server.

    Mirrors :meth:`repro.sim.online.OnlineSimulator.run` request for
    request: every simulated tick becomes exactly one ``place`` request
    carrying that tick's departures and arrivals (idle ticks included,
    so server windows stay tick-aligned), and future departures are
    booked from the placements each reply reports — the same
    read-your-writes bookkeeping the simulator does in-process.

    ``decisions`` (tick → reply) is mutated in place as replies land,
    so a caller that loses the connection mid-replay keeps the partial
    transcript.  On resume, pass the transcript back with ``start_tick``
    set to the server's committed window count: pre-crash ticks replay
    from the transcript, and a tick whose reply was lost to the crash
    (committed but never delivered) is re-fetched from the server's
    decision log instead of re-sent.

    Returns the completed transcript.
    """
    sched = arrival_schedule(trace, config)
    departures: dict[int, list[int]] = {}
    idx = 0
    if decisions is None:
        decisions = {}
    # Autoscale runs outlive the nominal horizon: cold-start penalties
    # push departures later and pooled containers drain one keep-alive
    # after the last departure — the same stretch the simulator applies.
    horizon = sched.horizon + lifecycle_horizon_tail(config.autoscale)
    for tick in range(horizon):
        deps = departures.pop(tick, ())
        batch = []
        while idx < len(sched.apps) and sched.arrival_tick[idx] <= tick:
            app = sched.apps[idx]
            batch.extend(sched.by_app[app.app_id])
            idx += 1

        if tick in decisions:
            reply = decisions[tick]
        elif tick < start_tick:
            # Committed before the crash but the reply never arrived:
            # recover it from the server's decision log.
            reply = client.decisions(tick)
            decisions[tick] = reply
        else:
            reply = client.place(batch, departures=deps)
            decisions[tick] = reply

        placed = reply["placements"]
        penalties = reply.get("penalties", {})
        for c in batch:
            cid = str(c.container_id)
            if cid in placed:
                # Same booking rule as the simulator: a cold start
                # extends the container's residency.
                end = (
                    tick
                    + sched.life_of[c.app_id]
                    + penalties.get(cid, 0)
                )
                departures.setdefault(end, []).append(c.container_id)
        if (
            idx >= len(sched.apps)
            and not departures
            and reply.get("pool", 0) == 0
        ):
            break
    return decisions
