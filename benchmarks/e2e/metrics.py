"""Metric and workload definitions — the single source `BENCHMARK.json` is
written from (at the end of a full ``python -m benchmarks.e2e``).

Every end-to-end metric is reported by every workload (the benchmark
contract wants one metric set), so the latency pair is named after what
all four have in common — a *decision*: the wall time between handing
the program an application's containers and holding their placement.
How applications are handed over is the workload's own (see
``WORKLOADS[...]["unit"]``).
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

from .hostclock import REF_SLICE_S

#: seconds one run measures (``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 18

#: name -> why it exists, its decision unit, whether equal seeds give equal
#: decisions (a burst's window composition depends on timing), and the
#: work one run measures per second of ``--seconds`` (see :func:`work`)
WORKLOADS: dict[str, dict] = {
    "serve-diurnal": {
        "why": (
            "closed loop, depth 1, one app per window at 12k machines: "
            "per-window serve/sampling cost dominates, the scheduler is a few %"
        ),
        "unit": "one application = one place request, closed loop",
        "deterministic": True,
        "work_per_s": (1 / 9, "ticks"),
    },
    "serve-storm-burst": {
        "why": (
            "a tick's requests pipelined at once: admission queue, window "
            "coalescing, JSON codec and block mutators carry the load"
        ),
        "unit": "one application = one request of a tick's burst, from burst start",
        "deterministic": False,
        "work_per_s": (3, "ticks"),
    },
    "sim-mixed-lla": {
        "why": (
            "in-process, ~300 apps per round: bypasses serve entirely, "
            "scheduler search (feascache/machindex/batchkernel) is most of the wall"
        ),
        "unit": "one application; a tick's ~300 share one round and its wall",
        "deterministic": True,
        "work_per_s": (6, "ticks"),
    },
    "tight-rescue": {
        "why": (
            "pools offered 1.06x their CPU: the only workload where rescue "
            "(migration/consolidation/preemption) runs and placements fail"
        ),
        "unit": "one application = one schedule() round, closed loop",
        "deterministic": True,
        "work_per_s": (2.5, "churn ticks per pool"),
    },
}

#: (name, unit, better, bound) — bound is the share of the parent's
#: median a later change may lose before it counts as a regression.
#: The three timings are in reference seconds (hostclock.py): the host
#: changes speed by up to 2x for minutes on end, and wall readings of ten
#: runs spread 6-17 % on an ordinary day and 34-41 % on a rough one,
#: where these stay at 1-8 %.  The bounds are 25 % all the same: the
#: driver refuses a benchmark whose own spread reaches its bound.
#: No tail percentile is gated: one of the two vCPUs is at times starved
#: for seconds on end, so 5-25 % of a served run's decisions take twice
#: as long and p75-p95 land on either side of that gap from run to run
#: (two runs of one seed, wall: p95 40.7 and 56.7 ms, p50 21.4 and 22.2).
#: The issue's rule — lower the percentile until it repeats — ends at the
#: median here; p90, p95, p99 and the maximum are printed and recorded
#: with every run, in wall milliseconds.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("containers_per_s", "1/s", "higher", 0.25),
    ("decision_p50_ms", "ms", "lower", 0.25),
    ("placed_share", "ratio", "higher", 0.01),
    # 10 %, not 5: on serve-storm-burst the arrival order alone moves the
    # peak by up to 8 % (inter-quartile spread over ten seeds 4.6 %)
    ("peak_used_machines", "machines", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

#: (name, unit, better).  Grouped by layer = module; README.md says which
#: end-to-end metric each should move, on which workload.
PER_LAYER: list[tuple[str, str, str]] = [
    # serve.client (the load side)
    ("client.encode_ms_per_req", "ms", "lower"),
    ("client.decode_ms_per_reply", "ms", "lower"),
    # serve.protocol
    ("protocol.decode_ms_per_req", "ms", "lower"),
    ("protocol.encode_ms_per_reply", "ms", "lower"),
    ("protocol.bytes_in_per_req", "B", "lower"),
    ("protocol.bytes_out_per_reply", "B", "lower"),
    ("protocol.containers_decoded", "count", "lower"),
    # serve.server
    ("server.read_wait_ms_p50", "ms", "lower"),
    ("server.queue_wait_ms_p50", "ms", "lower"),
    ("server.queue_wait_ms_p95", "ms", "lower"),
    ("server.window_self_ms", "ms", "lower"),
    ("server.reply_wait_ms_p50", "ms", "lower"),
    ("server.reply_flush_ms_p50", "ms", "lower"),
    ("server.windows_committed", "count", "lower"),
    ("server.window_size_mean", "count", "higher"),
    ("server.peak_queue_depth", "count", "lower"),
    ("server.requests_rejected", "count", "lower"),
    # sim.online
    ("online.apply_window_ms_p50", "ms", "lower"),
    ("online.apply_window_self_s", "s", "lower"),
    ("online.window_departures_s", "s", "lower"),
    ("online.window_sample_s", "s", "lower"),
    ("online.window_record_s", "s", "lower"),
    ("online.windows", "count", "lower"),
    # cluster.state
    ("state.evict_block_s", "s", "lower"),
    ("state.deploy_block_s", "s", "lower"),
    ("state.sample_s", "s", "lower"),
    ("state.anti_affinity_violations_s", "s", "lower"),
    ("state.evicted", "count", "higher"),
    ("state.deployed", "count", "higher"),
    # core.scheduler
    # Eq. 11: the time the scheduler reports for itself, per container
    ("scheduler.us_per_container", "us", "lower"),
    ("scheduler.schedule_s", "s", "lower"),
    ("scheduler.self_s", "s", "lower"),
    ("scheduler.rounds", "count", "lower"),
    ("scheduler.search_s", "s", "lower"),
    ("scheduler.requeue_s", "s", "lower"),
    ("scheduler.repair_s", "s", "lower"),
    ("scheduler.machines_examined", "count", "lower"),
    ("scheduler.machines_skipped", "count", "higher"),
    ("scheduler.dl_prune_hits", "count", "higher"),
    # core.feascache
    ("feascache.query_s", "s", "lower"),
    ("feascache.queries", "count", "lower"),
    ("feascache.hit_rate", "ratio", "higher"),
    ("feascache.invalidations", "count", "lower"),
    # core.machindex
    ("machindex.sync_s", "s", "lower"),
    ("machindex.candidates_s", "s", "lower"),
    ("machindex.resyncs", "count", "lower"),
    # core.batchkernel
    ("batchkernel.block_plan_s", "s", "lower"),
    ("batchkernel.invocations", "count", "higher"),
    # core.rescuekernel + core.migration
    ("rescue.plan_s", "s", "lower"),
    ("rescue.attempts", "count", "lower"),
    ("rescue.migrations", "count", "lower"),
    ("rescue.preemptions", "count", "lower"),
    ("rescue.machines_scanned", "count", "lower"),
    ("rescue.success_ratio", "ratio", "higher"),
    # trace.scenarios / trace.generator
    ("trace.build_s", "s", "lower"),
    ("trace.n_apps", "count", "higher"),
    ("trace.n_containers", "count", "higher"),
    # the budget itself
    ("budget.measured_s", "s", "higher"),
    ("budget.residual_ratio", "ratio", "lower"),
    # hostclock.py: the host's slowdown while the layers above were timed
    # (their seconds are wall seconds; divide by this to compare two runs)
    ("host.slowdown", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def work(name: str, seconds: float) -> int:
    """How much of its input a run of workload ``name`` measures.

    Work, not time, ends a run: the traces are not stationary (the
    diurnal curve climbs, pools fragment), so a run that simply stopped
    at ``--seconds`` would let a faster program reach a busier stretch
    and read as worse on ``peak_used_machines`` or the percentiles.  The
    rates are about 0.55 of what the commit that added the benchmark did
    per second on its 2-vCPU host in a quiet spell, so that run is done
    in about 0.55 of ``--seconds``; they belong to the ruler and stay
    when the program gets faster.  ``--seconds`` remains as the deadline:
    a run that has not finished its work by then (a host or program 1.8
    times slower) stops, says so, and no longer compares on decisions.
    That keeps the driver's 92 runs inside its hour when the host drops
    to half speed, as it does for minutes on end.
    """
    per_s, _unit = WORKLOADS[name]["work_per_s"]
    return max(1, round(per_s * seconds))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return float(ordered[rank])


class Digest:
    """sha256 over the sorted container -> machine decisions of every
    measured unit, in order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, placements: dict, undeployed) -> None:
        for cid in sorted(placements):
            self._hash.update(f"{cid}:{placements[cid]},".encode())
        for cid in sorted(undeployed):
            self._hash.update(f"{cid}:-,".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def manifest() -> dict:
    """The `BENCHMARK.json` object, exactly the contract's keys."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": spec["why"]}
            for name, spec in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def header(repo_root: Path) -> dict:
    """Provenance stamped into every run output (read at run time)."""
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=repo_root,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
        "argv": sys.argv[1:],
        "ref_slice_s": REF_SLICE_S,
        "end_to_end": manifest()["end_to_end"],
        "per_layer": manifest()["per_layer"],
    }
