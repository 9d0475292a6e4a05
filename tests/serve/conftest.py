"""Shared fixtures for the serving-stack tests.

Unix socket paths are capped around 100 characters on Linux, so every
socket lives in a short ``/tmp`` directory rather than pytest's deeply
nested ``tmp_path``.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro.cluster.state import ClusterState
from repro.core import AladdinScheduler
from repro.serve import PlacementServer, ServeClient, ServeConfig, ServerThread
from repro.sim.online import OnlineConfig, pool_topology
from repro.trace import generate_trace


class HookedScheduler:
    """Aladdin that calls ``hook()`` at the start of every round."""

    def __init__(self, hook) -> None:
        self._inner = AladdinScheduler()
        self._hook = hook
        self.name = self._inner.name

    def schedule(self, batch, state):
        self._hook()
        return self._inner.schedule(batch, state)


@pytest.fixture
def sock_dir():
    d = tempfile.mkdtemp(prefix="ald", dir="/tmp")
    yield d
    shutil.rmtree(d, ignore_errors=True)


@pytest.fixture
def sock_path(sock_dir):
    return os.path.join(sock_dir, "s.sock")


@pytest.fixture(scope="session")
def serve_trace():
    """The trace every serve test schedules from (session-cached)."""
    return generate_trace(scale=0.02, seed=0)


@pytest.fixture(scope="session")
def serve_topology(serve_trace):
    return pool_topology(serve_trace, OnlineConfig())


@pytest.fixture
def make_server(serve_trace, serve_topology):
    """Factory: a fresh PlacementServer over a fresh cluster state."""

    def build(config: ServeConfig | None = None, *, scheduler=None,
              on_window=None) -> PlacementServer:
        return PlacementServer(
            scheduler if scheduler is not None else AladdinScheduler(),
            ClusterState(serve_topology, serve_trace.constraints),
            config,
            on_window=on_window,
        )

    return build


@pytest.fixture
def served(make_server, sock_path):
    """A running default server plus one connected client."""
    server = make_server()
    with ServerThread(server, sock_path):
        with ServeClient(sock_path) as client:
            yield server, client
