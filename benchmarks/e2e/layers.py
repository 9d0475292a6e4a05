"""Per-layer metrics and the budget of a traced run.

Inputs are the runner's result, the local tracer's spans (the load
generator, or the in-process runner) and — for served workloads — the
server's spans from its report.  A metric whose wrapped target is gone
reads ``None``; so does a layer the workload never enters (``serve.*``
on the in-process workloads).
"""

from __future__ import annotations

from . import tracing
from .metrics import PER_LAYER, percentile

#: the ``cluster.state`` reads one ``apply_window`` sample makes
_SAMPLE_SPANS = (
    "state.used_machines",
    "state.used_utilization",
    "state.anti_affinity_violations",
)


def per_layer(run: dict, tracer: tracing.Tracer) -> tuple[dict, dict]:
    """``(metrics, budget)`` for one traced run.

    ``budget["rows"]`` are ``(name, value, share)``; the unindented rows
    sum to ``budget["total"]`` — mean client latency per request for the
    served workloads, measured wall for the in-process ones — and the
    last of them is the residual.  Indented rows split their parent.
    """
    since, until = run["interval"]
    served = "server_report" in run
    threads = tracer.threads()
    absent = set(tracer.absent)
    if served:
        report = run["server_report"]
        threads = threads + report["spans"]  # JSON lists, same layout
        absent |= set(report["absent"])
    summary = tracing.summarize(threads, since, until)
    zero = {"count": 0, "total_s": 0.0, "self_s": 0.0}

    def field(name: str, key: str):
        return None if name in absent else summary.get(name, zero)[key]

    counters = run["counters"]
    phase = run["phase_s"]
    info = run["info"]
    m: dict = {name: None for name, _unit, _better in PER_LAYER}

    # -- sim.online / cluster.state / core.* : the same on every workload
    windows = [
        s[2] - s[1] for s in tracing.spans_named(
            threads, "online.apply_window", since, until
        )
    ]
    if "online.apply_window" not in absent:
        m["online.apply_window_ms_p50"] = (
            percentile(windows, 0.5) * 1e3 if windows else 0.0
        )
    m["online.apply_window_self_s"] = field("online.apply_window", "self_s")
    m["online.window_departures_s"] = phase.get("window_departures", 0.0)
    m["online.window_sample_s"] = phase.get("window_sample", 0.0)
    m["online.window_record_s"] = phase.get("window_record", 0.0)
    m["online.windows"] = run["windows"]

    m["state.evict_block_s"] = field("state.evict_block", "total_s")
    m["state.deploy_block_s"] = field("state.deploy_block", "total_s")
    sample_parts = [field(name, "total_s") for name in _SAMPLE_SPANS]
    m["state.sample_s"] = (
        None if None in sample_parts else sum(sample_parts)
    )
    m["state.anti_affinity_violations_s"] = field(
        "state.anti_affinity_violations", "total_s"
    )
    m["state.evicted"] = run["evicted"]
    m["state.deployed"] = run["placed"]

    m["scheduler.us_per_container"] = (
        run["sched_elapsed_s"] / max(1, run["submitted"]) * 1e6
    )
    m["scheduler.schedule_s"] = field("scheduler.schedule", "total_s")
    m["scheduler.self_s"] = field("scheduler.schedule", "self_s")
    m["scheduler.rounds"] = field("scheduler.schedule", "count")
    m["scheduler.search_s"] = phase.get("search", 0.0)
    m["scheduler.requeue_s"] = phase.get("requeue", 0.0)
    m["scheduler.repair_s"] = phase.get("repair", 0.0)
    m["scheduler.machines_examined"] = run["explored"]
    m["scheduler.machines_skipped"] = counters.get("machines_skipped")
    m["scheduler.dl_prune_hits"] = counters.get("dl_prune_hits")

    m["feascache.query_s"] = field("feascache.query", "total_s")
    m["feascache.queries"] = field("feascache.query", "count")
    hits, misses = counters.get("cache_hits"), counters.get("cache_misses")
    if hits is not None and misses is not None:
        m["feascache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["feascache.invalidations"] = counters.get("cache_invalidations")

    m["machindex.sync_s"] = field("machindex.sync", "total_s")
    m["machindex.candidates_s"] = field("machindex.candidates", "self_s")
    m["machindex.resyncs"] = counters.get("index_resyncs")

    m["batchkernel.block_plan_s"] = field("batchkernel.block_plan", "total_s")
    m["batchkernel.invocations"] = counters.get("batch_kernel_invocations")

    m["rescue.plan_s"] = field("rescue.plan", "total_s")
    m["rescue.attempts"] = counters.get("rescue_attempts")
    m["rescue.migrations"] = counters.get("rescue_migrations")
    m["rescue.preemptions"] = counters.get("rescue_preemptions")
    m["rescue.machines_scanned"] = counters.get("rescue_machines_scanned")
    if "rescue.plan" not in absent:
        outcomes = [
            s[4] for s in tracing.spans_named(threads, "rescue.plan", since, until)
        ]
        m["rescue.success_ratio"] = (
            sum(outcomes) / len(outcomes) if outcomes else 0.0
        )

    m["trace.build_s"] = info["trace_build_s"]
    m["trace.n_apps"] = info["n_apps"]
    m["trace.n_containers"] = info["n_containers"]
    m["budget.measured_s"] = run["measured_s"]

    if served:
        budget = _served_layers(run, threads, absent, m, summary)
    else:
        budget = _inproc_budget(run, tracer.threads(), summary, since, until)
    m["budget.residual_ratio"] = budget["residual_ratio"]
    return m, budget


def _inproc_budget(run, threads, summary, since, until) -> dict:
    """Top-level spans of the runner's thread against the measured wall;
    the residual is the runner's own loop (batch building, booking)."""
    wall = run["measured_s"]
    top: dict[str, float] = {}
    for spans in threads:
        for s in spans:
            if s is not None and s[3] == -1 and since <= s[1] <= until:
                top[s[0]] = top.get(s[0], 0.0) + s[2] - s[1]
    rows = [(name, total, total / wall) for name, total in sorted(top.items())]
    residual = wall - sum(top.values())
    rows.append(("residual (runner loop)", residual, residual / wall))
    # every span's self time: the same seconds as the top-level rows,
    # attributed to the layer that spent them
    rows += [
        (f"  self: {name}", r["self_s"], r["self_s"] / wall)
        for name, r in sorted(summary.items())
    ]
    return {
        "unit": "s", "total": wall, "rows": rows,
        "residual_ratio": residual / wall,
    }


def _served_layers(run, threads, absent, m, summary) -> list:
    """Fill the ``client.*``/``protocol.*``/``server.*`` metrics and build
    the per-request budget: each measured request's latency split along
    the path it took through both processes."""
    tally = run["tally"]
    service = run["service"]
    n = max(1, tally.sent)
    m["client.encode_ms_per_req"] = tally.encode_s / n * 1e3
    m["client.decode_ms_per_reply"] = tally.decode_s / n * 1e3
    m["protocol.bytes_in_per_req"] = tally.bytes_out / n
    m["protocol.bytes_out_per_reply"] = tally.bytes_in / n
    m["protocol.containers_decoded"] = tally.submitted
    m["server.windows_committed"] = run["windows"]
    m["server.window_size_mean"] = n / max(1, run["windows"])
    m["server.peak_queue_depth"] = service["peak_queue_depth"]
    m["server.requests_rejected"] = service["requests_rejected"]

    needed = ("protocol.decode", "protocol.validate", "protocol.encode",
              "server.window")
    if any(name in absent for name in needed):
        return {"unit": "ms", "total": None, "rows": [], "residual_ratio": None}
    by_seq = {
        name: {s[4]: s for s in tracing.spans_named(threads, name)}
        for name in needed[:3]
    }
    window_of: dict[int, tuple] = {}
    for s in tracing.spans_named(threads, "server.window"):
        for seq in s[4]:
            window_of[seq] = s

    parts: dict[str, list[float]] = {
        key: [] for key in (
            "client.encode", "transport.request (read wait)",
            "protocol.decode", "server.queue_wait", "server.window",
            "transport.reply (reply wait)", "protocol.encode",
            "server.reply_flush", "client.decode",
        )
    }
    latency = 0.0
    for seq, t0, t_send, t_recv, t_done in tally.requests:
        dec = by_seq["protocol.decode"][seq]
        val = by_seq["protocol.validate"][seq]
        enc = by_seq["protocol.encode"][seq]
        win = window_of[seq]
        latency += t_done - t0
        parts["client.encode"].append(t_send - t0)
        parts["transport.request (read wait)"].append(dec[1] - t_send)
        parts["protocol.decode"].append(dec[2] - dec[1] + val[2] - val[1])
        parts["server.queue_wait"].append(win[1] - val[2])
        parts["server.window"].append(win[2] - win[1])
        parts["transport.reply (reply wait)"].append(enc[1] - win[2])
        parts["protocol.encode"].append(enc[2] - enc[1])
        parts["server.reply_flush"].append(t_recv - enc[2])
        parts["client.decode"].append(t_done - t_recv)

    def ms(values, q=None):
        if not values:
            return 0.0
        return (percentile(values, q) if q else sum(values) / len(values)) * 1e3

    m["protocol.decode_ms_per_req"] = ms(parts["protocol.decode"])
    m["protocol.encode_ms_per_reply"] = ms(parts["protocol.encode"])
    m["server.read_wait_ms_p50"] = ms(parts["transport.request (read wait)"], 0.5)
    m["server.queue_wait_ms_p50"] = ms(parts["server.queue_wait"], 0.5)
    m["server.queue_wait_ms_p95"] = ms(parts["server.queue_wait"], 0.95)
    m["server.reply_wait_ms_p50"] = ms(parts["transport.reply (reply wait)"], 0.5)
    m["server.reply_flush_ms_p50"] = ms(parts["server.reply_flush"], 0.5)
    window = summary.get("server.window")
    m["server.window_self_ms"] = (
        window["self_s"] / window["count"] * 1e3 if window else 0.0
    )

    zero = {"count": 0, "total_s": 0.0, "self_s": 0.0}
    # What the windows spent their time on is scaled to what the requests
    # waited for them: a window of k requests counts k times.
    waited = sum(parts["server.window"])
    scale = waited / window["total_s"] if window and window["total_s"] else 0.0
    rows = []

    def add(label, seconds):
        rows.append((label, seconds / n * 1e3, seconds / latency))

    def total(name, key="total_s"):
        return summary.get(name, zero)[key] * scale

    for name, values in parts.items():
        add(name, sum(values))
        if name != "server.window":
            continue
        add("  online.apply_window", total("online.apply_window"))
        for inner in ("state.evict_block", "scheduler.schedule", *_SAMPLE_SPANS):
            add(f"    {inner}", total(inner))
        add("    online.apply_window (self)", total("online.apply_window", "self_s"))
        add("  online.record_window", total("online.record_window"))
        add("  server.window (self)", total("server.window", "self_s"))
    residual = latency - sum(sum(v) for v in parts.values())
    add("residual (span gaps)", residual)
    return {
        "unit": "ms per request", "total": latency / n * 1e3, "rows": rows,
        "residual_ratio": residual / latency,
        # ROADMAP item 1's first question, in numbers
        "share_of_latency": {
            "scheduler.schedule_s": total("scheduler.schedule") / latency,
            "online.window_sample_s": (
                run["phase_s"].get("window_sample", 0.0) * scale / latency
            ),
        },
    }
