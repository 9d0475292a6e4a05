"""Fault injection against the serving stack.

Two failure modes, each exercised for real:

* a client that disconnects mid-response — the window still commits,
  the server keeps serving, and the decisions stay recoverable;
* a server SIGKILLed between window commit and reply — a subprocess
  ``repro serve --crash-after-window`` dies hard after the snapshot is
  durable, and a warm ``--restore`` restart resumes the exact run (the
  lost reply is re-fetched from the decision log, and the completed
  replay is bit-identical to the uninterrupted simulation).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core import AladdinScheduler
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerThread,
    replay_online_schedule,
    send_frame,
)
from repro.serve.protocol import container_to_wire
from repro.sim.online import OnlineConfig, OnlineSimulator
from repro.trace import load_trace, save_trace
from tests.serve.conftest import HookedScheduler


# ----------------------------------------------------------------------
# client disconnect mid-response
# ----------------------------------------------------------------------
@pytest.fixture
def gated(make_server, sock_path):
    """A server whose rounds wait until the returned gate is set."""
    gate = threading.Event()
    server = make_server(scheduler=HookedScheduler(
        lambda: gate.wait(timeout=60)
    ))
    with ServerThread(server, sock_path):
        with ServeClient(sock_path) as client:
            yield server, client, gate


def test_client_disconnect_mid_response(gated, serve_trace, sock_path):
    """A client that sends a placement and hangs up before reading the
    reply: the window commits anyway, the undeliverable reply is
    counted, the serving loop survives, and the orphaned decisions stay
    fetchable from the decision log."""
    server, client, gate = gated
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(sock_path)
    batch = serve_trace.containers[:5]
    send_frame(raw, {
        "type": "place",
        "containers": [container_to_wire(c) for c in batch],
    })
    raw.close()  # gone before the reply...
    gate.set()  # ...because the window could not commit until now

    # the window must still commit (poll via the surviving client)
    deadline = time.monotonic() + 30
    while client.stats()["windows"] < 1:
        assert time.monotonic() < deadline, "window never committed"
        time.sleep(0.01)

    # server alive, next window serves normally
    reply = client.place(serve_trace.containers[5:8])
    assert reply["status"] == "ok" and reply["tick"] == 1

    # the orphaned window's decisions are in the log
    logged = client.decisions(0)
    decided = set(logged["placements"]) | set(logged["undeployed"])
    assert decided == {str(c.container_id) for c in batch}

    # and the failed delivery is accounted (flushed by reply time above)
    assert server.telemetry.replies_failed >= 1


def test_disconnect_storm_leaves_consistent_state(served, serve_trace,
                                                  sock_path):
    """Ten hang-up clients in a row: every window commits, none is
    double-applied, and a clean client sees a consistent run."""
    server, client = served
    for i in range(10):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(sock_path)
        send_frame(raw, {
            "type": "place",
            "containers": [
                container_to_wire(c)
                for c in serve_trace.containers[i * 2:(i + 1) * 2]
            ],
        })
        raw.close()
    # queued requests may coalesce into fewer than 10 windows; wait for
    # all 10 *requests* to have been committed through some window
    deadline = time.monotonic() + 30
    while client.stats()["service"]["window_requests"] < 10:
        assert time.monotonic() < deadline, "requests never drained"
        time.sleep(0.01)
    stats = client.stats()
    assert stats["totals"]["arrived"] == 20
    assert len(server.state.assignment) == stats["totals"]["arrived"] - (
        stats["totals"]["failed"]
    )


# ----------------------------------------------------------------------
# SIGKILL between window commit and reply
# ----------------------------------------------------------------------
CRASH_WINDOW = 4
SERVE_TICKS = 15


def _spawn_server(sock, stem, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--load", stem, "--ticks", str(SERVE_TICKS), *extra],
        env=env, cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


@pytest.mark.slow
def test_sigkill_between_commit_and_reply_resumes_exactly(
    serve_trace, sock_dir
):
    """The crown crash test, across a real process boundary: the server
    checkpoints every window and SIGKILLs itself right after window
    CRASH_WINDOW commits (snapshot durable, reply unsent).  The replay
    client loses its connection, a second server starts warm from the
    snapshot, the lost window's decisions are recovered from the
    restored decision log, and the completed replay's canonical JSON is
    bit-identical to the uninterrupted in-process simulation."""
    stem = os.path.join(sock_dir, "t")
    save_trace(serve_trace, stem)
    # the subprocess server loads the trace from disk, and the CSV
    # roundtrip does not preserve config.n_machines — so the in-process
    # baseline must run from the *loaded* trace to share the pool size
    trace = load_trace(stem)
    cfg = OnlineConfig(ticks=SERVE_TICKS)
    expected = (
        OnlineSimulator(trace, cfg)
        .run(AladdinScheduler())
        .canonical_json()
    )

    ckpt = os.path.join(sock_dir, "c.ckpt")
    sock1 = os.path.join(sock_dir, "a.sock")
    transcript: dict = {}
    # ``with`` closes each server's stdout pipe on every path
    with _spawn_server(
        sock1, stem, "--checkpoint", ckpt, "--checkpoint-every", "1",
        "--crash-after-window", str(CRASH_WINDOW),
    ) as proc:
        try:
            with ServeClient(sock1) as client:
                with pytest.raises(ConnectionError):
                    replay_online_schedule(
                        client, trace, cfg, decisions=transcript
                    )
        finally:
            assert proc.wait(timeout=60) == -signal.SIGKILL
    # replies for windows 0..K-1 landed; window K's was lost to the kill
    assert sorted(transcript) == list(range(CRASH_WINDOW))

    sock2 = os.path.join(sock_dir, "b.sock")
    with _spawn_server(sock2, stem, "--restore", ckpt) as proc2:
        try:
            with ServeClient(sock2) as client:
                stats = client.stats()
                # the crashed window committed before the kill
                assert stats["windows"] == CRASH_WINDOW + 1
                replay_online_schedule(
                    client, trace, cfg,
                    decisions=transcript, start_tick=stats["windows"],
                )
                # the lost window was recovered from the log, not re-sent
                assert transcript[CRASH_WINDOW]["tick"] == CRASH_WINDOW
                served = client.result()
                client.shutdown()
        finally:
            assert proc2.wait(timeout=60) == 0, proc2.stdout.read()
    assert served == expected

