"""Backpressure property: decided or rejected, never dropped.

The admission contract of the bounded queue: every window-type request
a client puts on the wire gets exactly one reply — a decision if it was
admitted, a 429-style rejection with ``retry_after`` if the queue was
full — and the server's admission/rejection counters account for every
single send.  A deliberately slow scheduler makes windows take long
enough that a handful of concurrent clients overruns a tiny queue.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import AladdinScheduler
from repro.serve import (
    PlacementServer,
    ServeClient,
    ServeConfig,
    ServerThread,
    run_load,
    synthetic_batch,
)


class SlowScheduler:
    """Aladdin with an artificial per-round delay (forces queueing)."""

    def __init__(self, delay_s: float = 0.03) -> None:
        self._inner = AladdinScheduler()
        self._delay_s = delay_s
        self.name = "Slow"

    def schedule(self, batch, state):
        time.sleep(self._delay_s)
        return self._inner.schedule(batch, state)


@pytest.fixture
def slow_server(serve_trace, serve_topology, sock_path):
    from repro.cluster.state import ClusterState

    server = PlacementServer(
        SlowScheduler(),
        ClusterState(serve_topology, serve_trace.constraints),
        ServeConfig(max_queue=3, window_max=1, retry_after_s=0.01),
    )
    with ServerThread(server, sock_path):
        yield server


def test_every_request_decided_or_rejected(slow_server, sock_path):
    """8 clients × 6 requests against a 3-deep queue draining one slow
    window at a time: replies partition exactly into decisions and
    rejections, rejections actually happen, and the telemetry counters
    sum to the requests sent."""
    n_clients, n_requests = 8, 6
    statuses: list[str] = []
    lock = threading.Lock()

    def client_main(w: int) -> None:
        with ServeClient(sock_path) as client:
            for i in range(n_requests):
                reply = client.place(
                    synthetic_batch(w, i, 2), honor_retry=False
                )
                with lock:
                    statuses.append(reply["status"])

    threads = [
        threading.Thread(target=client_main, args=(w,))
        for w in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    sent = n_clients * n_requests
    decided = statuses.count("ok")
    rejected = statuses.count("rejected")
    # every request answered, with one of exactly two statuses
    assert len(statuses) == sent
    assert decided + rejected == sent
    assert rejected > 0, "load never overran the queue — test is vacuous"
    assert decided > 0

    tele = slow_server.telemetry
    # the server-side ledger accounts for every send: admitted+rejected
    # partitions the stream, and each admitted request became part of
    # exactly one committed window
    assert tele.requests_admitted + tele.requests_rejected == sent
    assert tele.requests_admitted == decided
    assert tele.requests_rejected == rejected
    assert tele.window_requests == decided
    assert tele.peak_queue_depth <= slow_server.config.max_queue


def test_rejection_reply_carries_retry_after(slow_server, sock_path):
    """Flood the queue from one thread with fire-and-forget sends (the
    blocking client would serialise itself below the bound): overflow
    replies are 429s carrying the server's configured retry hint."""
    import socket as socketlib

    from repro.serve.protocol import container_to_wire, recv_frame, send_frame

    socks = []
    try:
        # 12 one-shot connections, frames sent without awaiting replies:
        # the server reads them between windows, queues 3, and the rest
        # that arrive before the queue drains must bounce
        for w in range(12):
            s = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            s.connect(sock_path)
            s.settimeout(60)
            send_frame(s, {
                "type": "place",
                "containers": [
                    container_to_wire(c) for c in synthetic_batch(w, 0, 2)
                ],
            })
            socks.append(s)
        replies = [recv_frame(s) for s in socks]
    finally:
        for s in socks:
            s.close()
    rejected = [r for r in replies if r["status"] == "rejected"]
    decided = [r for r in replies if r["status"] == "ok"]
    assert len(rejected) + len(decided) == 12
    assert rejected, "queue never overflowed"
    for r in rejected:
        assert r["code"] == 429
        assert r["retry_after"] == pytest.approx(0.01)


def test_honored_retries_eventually_decide_everything(slow_server, sock_path):
    """Well-behaved clients (honor the retry-after hint) get every
    batch decided despite transient rejections, and the ledger still
    balances: admitted + rejected == frames sent (retries included)."""
    result = run_load(
        sock_path, clients=6, duration_s=1.0, batch_size=2,
        honor_retry=True,
    )
    assert result.errors == 0
    assert result.decided > 0
    tele = slow_server.telemetry
    assert tele.requests_admitted + tele.requests_rejected == result.sent
    assert tele.requests_admitted == result.decided
