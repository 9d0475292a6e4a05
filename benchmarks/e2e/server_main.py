"""The server process of the served workloads.

Built from the public API (not the CLI): one scenario trace, its machine
pool, a default :class:`AladdinScheduler` and a :class:`PlacementServer`
on a unix socket.  Runs until the load generator sends ``shutdown``,
then audits the final state and writes one JSON report: peak RSS, the
per-window log (commit time, cumulative scheduler seconds and phase
times), the Eq. 7-9 audit and — when traced — the span summary and the
per-request timestamps the budget is built from.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import resource
import time

from repro import AladdinScheduler
from repro.cluster.state import ClusterState
from repro.core.validate import validate_state
from repro.serve import PlacementServer, ServeConfig
from repro.sim.online import OnlineConfig, pool_topology

from . import tracing
from .workloads import scenario_trace


def _request_labels() -> dict:
    """Request ids for the per-request spans.

    One connection, served in order: the k-th frame decoded is the k-th
    frame the load generator sent, and the k-th reply encoded answers
    it.  A window's id is the list of the requests it coalesced.
    """
    decoded = itertools.count()
    validated = itertools.count()
    encoded = itertools.count()
    seq_of: dict[int, int] = {}

    def on_validate(args, _kwargs, _result):
        seq = next(validated)
        seq_of[id(args[0])] = seq
        return seq

    def on_window(args, _kwargs, _result):
        # args = (server, window); window = [(request, writer), ...]
        return [seq_of.pop(id(req), -1) for req, _writer in args[1]]

    return {
        "protocol.decode": lambda *_: next(decoded),
        "protocol.validate": on_validate,
        "protocol.encode": lambda *_: next(encoded),
        "server.window": on_window,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--family", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, labels=_request_labels())

    t0 = time.monotonic()
    trace = scenario_trace(args.family, args.scale)
    build_s = time.monotonic() - t0
    state = ClusterState(pool_topology(trace, OnlineConfig()), trace.constraints)

    windows: list[dict] = []

    def on_window(tick: int, _checkpoint) -> None:
        windows.append({
            "tick": tick,
            "t": time.monotonic(),
            "elapsed_s": server.result.total_elapsed_s,
            "phase_s": dict(server.result.telemetry.phase_time_s),
        })

    server = PlacementServer(
        AladdinScheduler(), state, ServeConfig(), on_window=on_window
    )
    asyncio.run(server.run(args.socket))

    audit = validate_state(state)
    report = {
        "trace_build_s": build_s,
        "n_machines": state.n_machines,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "windows": windows,
        "scheduler_counters": server.result.telemetry.counters(),
        "service_counters": server.telemetry.counters(),
        "audit_ok": audit.ok,
        "audit_violations": audit.by_kind(),
    }
    if tracer is not None:
        report["absent"] = tracer.absent
        report["spans"] = tracer.threads()
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
