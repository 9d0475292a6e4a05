"""The two in-process workloads: no socket, no server process — the
runner calls the program's window loop / scheduler directly.

Both measure a fixed stretch of their input (``metrics.work``), one
*application decision* per sample (see ``metrics.WORKLOADS``), and give
up at the ``--seconds`` deadline (``truncated``).  Both return wall
intervals — ``setup``, ``busy`` (the measured units) and ``decisions`` —
with the :class:`HostClock` whose slices were taken between the units;
``cli.run_workload`` turns them into reference seconds.
"""

from __future__ import annotations

import resource
import time

from repro import AladdinScheduler
from repro.cluster.constraints import ConstraintSet
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core.validate import validate_state
from repro.sim import online
from repro.telemetry import SchedulerTelemetry

from . import tracing
from .hostclock import HostClock, pin_to_one_cpu
from .metrics import Digest
from .workloads import TICKS, rescue_stream, scenario_plan, scenario_trace

#: independent pools one ``tight-rescue`` run churns, one after another
RESCUE_STREAMS = 3


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_sim_mixed_lla(seed: int, scale: float, n_ticks: int, seconds: float,
                      tracer) -> dict:
    """Family ``mixed-lla`` through the simulator's own window helpers.

    The loop is ``OnlineSimulator._run`` without checkpoints over the
    first ``n_ticks`` ticks: departures, one ``apply_window`` round over
    the tick's arrivals, ``record_window``, departure booking.
    """
    pin_to_one_cpu()
    clock = HostClock()
    t_setup = time.monotonic()
    with clock.sampling():
        with tracing.span(tracer, "trace.build"):
            trace = scenario_trace("mixed-lla", scale)
        build_s = time.monotonic() - t_setup
        plan = scenario_plan(trace, "mixed-lla", seed)
        state = ClusterState(
            online.pool_topology(trace, online.OnlineConfig()),
            trace.constraints,
        )
        engine = AladdinScheduler()
        result = online.OnlineResult()
    t_ready = time.monotonic()

    digest = Digest()
    departures: dict[int, list[int]] = {}
    busy: list[tuple[float, float]] = []
    apps_in: list[int] = []
    idx = 0
    n_ticks = min(n_ticks, TICKS)
    start = time.monotonic()
    for tick in range(n_ticks):
        clock.slice()
        t0 = time.monotonic()
        if t0 >= start + seconds:
            break
        deps = departures.pop(tick, ())
        batch: list = []
        n_apps = 0
        while idx < len(plan.apps) and plan.arrival_tick[idx] <= tick:
            batch.extend(plan.by_app[plan.apps[idx].app_id])
            idx += 1
            n_apps += 1
        sample, schedule = online.apply_window(
            engine, state, tick=tick, departures=deps, batch=batch
        )
        online.record_window(result, sample, schedule)
        placed = schedule.placements if schedule is not None else {}
        for c in batch:
            if c.container_id in placed:
                end = tick + plan.life_of[c.app_id]
                departures.setdefault(end, []).append(c.container_id)
        busy.append((t0, time.monotonic()))
        apps_in.append(n_apps)
        digest.add(placed, schedule.undeployed if schedule is not None else ())
    clock.slice()
    end = time.monotonic()

    audit = validate_state(state)
    return {
        "clock": clock,
        "setup": (t_setup, t_ready),
        "busy": busy,
        # every application of a tick waits for the whole round
        "decisions": [
            span for span, n in zip(busy, apps_in) for _ in range(n)
        ],
        "work_done": len(result.samples),
        "truncated": len(result.samples) < n_ticks,
        "units": sum(apps_in),
        "units_failed": 0,
        "submitted": result.total_arrived,
        "placed": result.total_arrived - result.total_failed,
        "sched_elapsed_s": result.total_elapsed_s,
        "peak_used_machines": result.peak_used_machines,
        "peak_rss_kb": _peak_rss_kb(),
        "digest": digest.hexdigest(),
        "interval": (start, end),
        "checks": {
            "arrived - failed - departed == resident": (
                result.total_arrived - result.total_failed
                - result.total_departed == len(state.assignment)
            ),
            "zero anti-affinity violations in every sample": all(
                s.violations == 0 for s in result.samples
            ),
            "Eq. 7-9 audit of the final state": audit.ok,
        },
        "info": {
            "family": "mixed-lla", "scale": scale,
            "n_machines": state.n_machines,
            "n_apps": trace.n_apps, "n_containers": trace.n_containers,
            "trace_build_s": build_s,
        },
        "counters": result.telemetry.counters(),
        "phase_s": dict(result.telemetry.phase_time_s),
        "explored": sum(s.explored for s in result.samples),
        "evicted": result.total_departed,
        "windows": len(result.samples),
    }


def run_tight_rescue(seed: int, n_apps: int, churn_ticks: int, seconds: float,
                     tracer) -> dict:
    """Fill pools past their capacity, then churn them one application
    at a time: each tick's departures leave with its first arrival,
    every arrival is its own ``schedule`` round (closed loop, like
    ``serve-diurnal``).

    ``RESCUE_STREAMS`` independent pools churn ``churn_ticks`` ticks each,
    one pool after another, each inside its equal share of ``seconds``.  One tight pool has a mood — how fragmented
    it happens to be decides for the whole run how often rescue fails —
    so a single pool of any size repeats to 14-19 %; three to about the
    host's own noise.  The fills are set-up.
    """
    pin_to_one_cpu()
    clock = HostClock()
    t_setup = time.monotonic()
    build_s = 0.0
    pools = []
    fill_failed = 0
    with clock.sampling():
        for k in range(RESCUE_STREAMS):
            t0 = time.monotonic()
            with tracing.span(tracer, "trace.build"):
                stream = rescue_stream(k, seed, n_apps, churn_ticks)
            build_s += time.monotonic() - t0
            state = ClusterState(
                build_cluster(stream.n_machines, machines_per_rack=8),
                ConstraintSet.from_applications(stream.applications),
            )
            engine = AladdinScheduler()
            for batch in stream.fill:
                fill_failed += engine.schedule(batch, state).n_undeployed
            pools.append((stream, state, engine))
    t_ready = time.monotonic()

    digest = Digest()
    total = SchedulerTelemetry()
    decisions: list[tuple[float, float]] = []
    submitted = failed = evicted = explored = 0
    elapsed_s = 0.0
    peak_used = 0
    start = time.monotonic()
    ticks_done = 0
    for k, (stream, state, engine) in enumerate(pools):
        deadline = start + seconds * (k + 1) / RESCUE_STREAMS
        for departing, arriving in stream.churn:
            if time.monotonic() >= deadline:
                break
            ticks_done += 1
            first = True
            for block in _by_application(arriving):
                clock.pace()
                t0 = time.monotonic()
                if first:
                    evicted += state.evict_block(departing)
                    first = False
                outcome = engine.schedule(block, state)
                decisions.append((t0, time.monotonic()))
                submitted += len(block)
                failed += outcome.n_undeployed
                elapsed_s += outcome.elapsed_s
                explored += outcome.explored
                total.merge(outcome.telemetry)
                digest.add(outcome.placements, outcome.undeployed)
            peak_used = max(peak_used, state.used_machines())
    clock.slice()
    end = time.monotonic()

    return {
        "clock": clock,
        "setup": (t_setup, t_ready),
        "busy": decisions,
        "decisions": decisions,
        "work_done": ticks_done // RESCUE_STREAMS,
        "truncated": ticks_done < churn_ticks * RESCUE_STREAMS,
        "units": len(decisions),
        "units_failed": 0,
        "submitted": submitted,
        "placed": submitted - failed,
        "sched_elapsed_s": elapsed_s,
        "peak_used_machines": peak_used,
        "peak_rss_kb": _peak_rss_kb(),
        "digest": digest.hexdigest(),
        "interval": (start, end),
        "checks": {
            "zero anti-affinity violations at the end": all(
                state.anti_affinity_violations() == 0 for _, state, _ in pools
            ),
            "Eq. 7-9 audit of the final states": all(
                validate_state(state).ok for _, state, _ in pools
            ),
        },
        "info": {
            "pools": RESCUE_STREAMS, "n_fill_apps": n_apps,
            "n_machines": pools[0][1].n_machines,
            "n_apps": sum(len(p[0].applications) for p in pools),
            "n_containers": sum(
                a.n_containers for p in pools for a in p[0].applications
            ),
            "trace_build_s": build_s,
            "fill_undeployed": fill_failed,
        },
        "counters": total.counters(),
        "phase_s": dict(total.phase_time_s),
        "explored": explored,
        "evicted": evicted,
        "windows": 0,
    }


def _by_application(containers: list) -> list[list]:
    blocks: list[list] = []
    for c in containers:
        if blocks and blocks[-1][0].app_id == c.app_id:
            blocks[-1].append(c)
        else:
            blocks.append([c])
    return blocks
