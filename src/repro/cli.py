"""Command-line interface.

``python -m repro <command>`` exposes the reproduction's main entry
points without writing any Python:

* ``gen-trace``   — generate and save a calibrated synthetic trace;
* ``stats``       — print the Fig. 8 workload statistics of a trace;
* ``replay``      — replay a trace through one or more schedulers;
* ``min-cluster`` — the Fig. 10 minimum-cluster-size search;
* ``online``      — the arrival/departure churn simulation;
* ``serve``       — live placement serving over a unix socket;
* ``faults``      — replay, kill machines, recover;
* ``experiments`` — regenerate the full evaluation as markdown.

Every command accepts ``--scale`` and ``--seed`` (or ``--load`` for a
previously saved trace) and prints the same tables the benchmark
harness emits.
"""

from __future__ import annotations

import argparse
import sys

from repro.baselines import SCHEDULERS
from repro.core import AladdinConfig, AladdinScheduler, FlowPathSearch
from repro.report import format_series, format_table, metrics_table
from repro.sim import Simulator, minimum_cluster_size
from repro.trace import (
    SCENARIOS,
    ArrivalOrder,
    generate_trace,
    load_trace,
    save_trace,
    workload_stats,
)

#: CLI scheduler names → factories (registry plus Aladdin variants).
def _scheduler_factories() -> dict[str, object]:
    out = {name: factory for name, (factory, _) in SCHEDULERS.items()}
    out["Aladdin"] = lambda: AladdinScheduler()
    out["Aladdin-noopt"] = lambda: AladdinScheduler(
        AladdinConfig(enable_il=False, enable_dl=False)
    )
    return out


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.05,
                        help="trace scale relative to the paper's (default 0.05)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--load", metavar="STEM",
                        help="load a saved trace instead of generating one")


def _trace_from(args) -> object:
    if args.load:
        return load_trace(args.load)
    return generate_trace(scale=args.scale, seed=args.seed)


def _order_from(args) -> ArrivalOrder:
    return ArrivalOrder(args.order)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    """The workload-source flags shared by ``online`` and ``serve``."""
    parser.add_argument("--trace", dest="trace_source", default="synthetic",
                        choices=["synthetic", "azure"],
                        help="workload source: the calibrated Alibaba-style "
                             "generator (default) or the Azure Functions "
                             "2019 serverless trace (see docs/WORKLOADS.md)")
    parser.add_argument("--scenario", default=None,
                        choices=sorted(SCENARIOS),
                        help="scenario family for --trace azure "
                             "(default: diurnal)")
    parser.add_argument("--azure-data", metavar="DIR", default=None,
                        help="directory holding the Azure Functions 2019 "
                             "CSVs; omitted = the seeded synthetic "
                             "fallback, so no download is ever required")


def _workload_trace(args) -> tuple[object, str | None]:
    """(trace, scenario name or None) from the workload flags."""
    if getattr(args, "trace_source", "synthetic") != "azure":
        if getattr(args, "scenario", None):
            print("--scenario requires --trace azure", file=sys.stderr)
            raise SystemExit(2)
        return _trace_from(args), None
    from repro.trace import TraceConfig, azure_dataset, build_scenario

    scenario = args.scenario or "diurnal"
    if args.load:
        # A saved scenario trace is self-describing (arrival plan in
        # the names); only the nominal cluster scale must be re-attached.
        trace = load_trace(
            args.load, config=TraceConfig(scale=args.scale, seed=args.seed)
        )
    else:
        dataset = azure_dataset(args.azure_data, seed=args.seed)
        trace = build_scenario(
            scenario, dataset,
            scale=args.scale, seed=args.seed, ticks=args.ticks,
        )
    return trace, scenario


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_gen_trace(args) -> int:
    trace = generate_trace(scale=args.scale, seed=args.seed)
    apps_path, conflicts_path = save_trace(trace, args.out)
    print(f"wrote {apps_path} and {conflicts_path}")
    print(f"  {trace.n_apps} applications, {trace.n_containers} containers")
    return 0


def cmd_stats(args) -> int:
    trace = _trace_from(args)
    rows = [[k, v] for k, v in workload_stats(trace).as_rows()]
    print(format_table(["metric", "value"], rows, title="Workload statistics"))
    return 0


def cmd_replay(args) -> int:
    trace = _trace_from(args)
    factories = _scheduler_factories()
    names = args.schedulers or list(factories)
    unknown = [n for n in names if n not in factories]
    if unknown:
        print(f"unknown schedulers: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(factories)}", file=sys.stderr)
        return 2
    sim = Simulator(
        trace,
        n_machines=args.machines,
        machine_pool_factor=args.pool_factor,
    )
    metrics = []
    for name in names:
        result = sim.run(factories[name](), _order_from(args))
        metrics.append(result.metrics)
        print(result.summary())
        tele = result.schedule.telemetry
        if tele is not None and tele.counters() != type(tele)().counters():
            print(f"  telemetry: {tele.summary()}")
    print()
    print(metrics_table(metrics, title=f"Replay [{args.order}]"))
    return 0


def cmd_min_cluster(args) -> int:
    trace = _trace_from(args)
    factories = _scheduler_factories()
    names = args.schedulers or ["Aladdin", "Go-Kube"]
    rows = []
    for name in names:
        if name not in factories:
            print(f"unknown scheduler {name}", file=sys.stderr)
            return 2
        n = minimum_cluster_size(trace, factories[name], _order_from(args))
        rows.append([name, n])
        print(f"{name}: {n} machines")
    print()
    print(format_table(["scheduler", "machines used"], rows,
                       title=f"Minimum cluster size [{args.order}]"))
    return 0


def cmd_online(args) -> int:
    from repro.sim.online import OnlineConfig, OnlineSimulator

    trace, scenario = _workload_trace(args)
    factories = _scheduler_factories()
    if args.scheduler not in factories:
        print(f"unknown scheduler {args.scheduler}", file=sys.stderr)
        return 2
    if scenario is not None:
        print(f"workload: azure scenario={scenario} "
              f"({trace.n_apps} apps, {trace.n_containers} containers)")
    sim = OnlineSimulator(
        trace,
        OnlineConfig(
            ticks=args.ticks,
            arrival_order=_order_from(args),
            seed=args.seed,
            scenario=scenario,
            autoscale=_lifecycle_config(args),
        ),
    )
    scheduler = _aladdin_variant(args, factories)
    on_checkpoint = None
    if args.crash_at_tick is not None:
        import os
        import signal

        def on_checkpoint(tick, path, _k=args.crash_at_tick):
            # Crash-injection for the resume tests: die hard (no
            # cleanup, no atexit) once a snapshot at or past tick _k
            # is durably on disk.
            if tick >= _k:
                os.kill(os.getpid(), signal.SIGKILL)

    result = sim.run(
        scheduler,
        checkpoint_every=args.checkpoint_every or None,
        checkpoint_path=args.checkpoint,
        restore_from=args.restore,
        on_checkpoint=on_checkpoint,
    )
    if args.canonical_out:
        from pathlib import Path

        Path(args.canonical_out).write_text(result.canonical_json())
        print(f"wrote canonical metrics to {args.canonical_out}")
    step = max(1, len(result.samples) // 20)
    print(format_series(
        "running containers over time",
        result.series("running_containers")[::step],
    ))
    print(f"\narrived {result.total_arrived}, departed "
          f"{result.total_departed}, failed {result.total_failed} "
          f"({result.failure_rate:.1%}), peak machines "
          f"{result.peak_used_machines}, migrations {result.total_migrations}")
    if args.autoscale:
        from repro.sim.metrics import power_metrics

        pm = power_metrics(result, sim._topology.n_machines)
        print(f"power: {pm.machine_ticks} machine-ticks "
              f"(always-on {pm.always_on_machine_ticks}, "
              f"{pm.savings_pct:.1f}% saved), peak powered "
              f"{pm.peak_powered}, warm hits {pm.warm_hits}, "
              f"cold starts {pm.cold_starts} "
              f"({pm.cold_start_rate:.1%} of arrivals)")
    tele = result.telemetry
    if tele.counters() != type(tele)().counters():
        print(f"telemetry: {tele.summary()}")
        print(f"scheduling wall time {result.total_elapsed_s * 1000:.1f} ms "
              f"across {sum(1 for s in result.samples if s.arrived_containers)}"
              " rounds")
    if args.profile:
        _write_profile(args.profile, result)
    return 0


def _write_profile(path: str, result) -> None:
    """Write the per-tick, per-phase wall-time breakdown (``--profile``).

    The JSON carries the run-level ``phase_time_s`` totals (window
    phases from :func:`repro.sim.online.apply_window` plus the
    scheduler's search/rescue/requeue/repair phases) and the same
    breakdown per tick — wall times, so *not* part of the canonical
    metrics; use ``--canonical-out`` for bit-identity comparisons.
    """
    import json
    from pathlib import Path

    payload = {
        "total_elapsed_s": round(result.total_elapsed_s, 6),
        "phase_time_s": {
            name: round(dt, 6)
            for name, dt in sorted(result.telemetry.phase_time_s.items())
        },
        "ticks": [
            {
                "tick": s.tick,
                "arrived": s.arrived_containers,
                "departed": s.departed_containers,
                "phase_s": {
                    name: round(dt, 6)
                    for name, dt in sorted(s.phase_s.items())
                },
            }
            for s in result.samples
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote per-phase profile to {path}")


def _aladdin_variant(args, factories):
    """The scheduler an ``online``/``serve`` invocation asked for."""
    if args.scheduler == "Aladdin" and args.engine == "flow":
        return FlowPathSearch()
    return factories[args.scheduler]()


def cmd_serve(args) -> int:
    import asyncio

    from repro.cluster.state import ClusterState
    from repro.serve import PlacementServer, ServeConfig
    from repro.sim.lifecycle import LifecycleRuntime
    from repro.sim.online import OnlineConfig, pool_topology

    trace, scenario = _workload_trace(args)
    factories = _scheduler_factories()
    if args.scheduler not in factories:
        print(f"unknown scheduler {args.scheduler}", file=sys.stderr)
        return 2
    scheduler = _aladdin_variant(args, factories)
    online_cfg = OnlineConfig(
        ticks=args.ticks,
        arrival_order=_order_from(args),
        seed=args.seed,
        machine_pool_factor=args.pool_factor,
        scenario=scenario,
        autoscale=_lifecycle_config(args),
    )
    topology = pool_topology(trace, online_cfg)
    lifecycle = (
        LifecycleRuntime(trace, online_cfg.autoscale, topology.n_machines)
        if online_cfg.autoscale is not None
        else None
    )
    serve_cfg = ServeConfig(
        max_queue=args.max_queue,
        window_max=args.window_max,
        retry_after_s=args.retry_after,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint,
    )
    on_window = None
    if args.crash_after_window is not None:
        import os
        import signal

        def on_window(tick, ckpt, _k=args.crash_after_window):
            # Crash-injection for the serve fault tests: die hard
            # after the first checkpointed window at or past _k — the
            # window is committed and its snapshot durable, but no
            # reply has gone out yet.
            if tick >= _k and ckpt is not None:
                os.kill(os.getpid(), signal.SIGKILL)

    if args.restore:
        server = PlacementServer.restore(
            args.restore, scheduler, topology, trace.constraints,
            serve_cfg, on_window=on_window, lifecycle=lifecycle,
        )
    else:
        server = PlacementServer(
            scheduler, ClusterState(topology, trace.constraints),
            serve_cfg, on_window=on_window, lifecycle=lifecycle,
        )
    print(f"serving on {args.socket}: {topology.n_machines} machines, "
          f"scheduler {scheduler.name}, queue bound {args.max_queue}, "
          f"window max {args.window_max}", flush=True)
    asyncio.run(server.run(args.socket))
    print(f"served {server.windows} windows; {server.telemetry.summary()}")
    if args.profile:
        _write_profile(args.profile, server.result)
    return 0


def cmd_experiments(args) -> int:
    from repro.report import ExperimentOptions, run_all_experiments

    trace = _trace_from(args)
    options = ExperimentOptions(
        include_fig10=not args.quick,
        include_fig12=not args.quick,
    )
    report = run_all_experiments(trace, options)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def cmd_faults(args) -> int:
    from repro.sim.faults import fail_machines, random_failures, recover

    import numpy as np

    trace = _trace_from(args)
    sim = Simulator(trace, machine_pool_factor=args.pool_factor)
    run = sim.run(AladdinScheduler(), _order_from(args))
    state = run.state
    victims = random_failures(
        state, args.failures, rng=np.random.default_rng(args.seed)
    )
    report = fail_machines(state, victims)
    recover(report, state, AladdinScheduler())
    print(f"failed machines: {victims}")
    print(f"displaced {report.n_displaced} containers; recovered "
          f"{report.recovered}, lost {report.lost} "
          f"(migrations {report.recovery_migrations})")
    sizes = {a.app_id: a.n_containers for a in trace.applications}
    print(f"worst per-app downtime fraction: "
          f"{report.max_app_downtime_fraction(sizes):.1%}")
    print(f"violations after recovery: {state.anti_affinity_violations()}")
    return 0


# ----------------------------------------------------------------------
def _add_variant_args(parser: argparse.ArgumentParser) -> None:
    """The Aladdin engine and run options shared by ``online`` and
    ``serve``."""
    parser.add_argument("--engine", default="batch",
                        choices=["batch", "flow"],
                        help="placement engine (Aladdin only): the "
                             "vectorised incremental scheduler (default) "
                             "or the flow-network reference")
    parser.add_argument("--profile", metavar="PATH",
                        help="write a per-tick, per-phase wall-time "
                             "breakdown (window apply, departures, "
                             "sampling, scheduler phases) to PATH as "
                             "JSON after the run")


def _add_autoscale_args(parser: argparse.ArgumentParser) -> None:
    """Warm-pool / power-lifecycle knobs shared by ``online`` and
    ``serve``.  Each flag stores to its
    :class:`~repro.sim.lifecycle.LifecycleConfig` field and defaults to
    that field's default; all of them are ignored without
    ``--autoscale``, and the default-off run stays bit-identical to a
    build without the feature.
    """
    from repro.sim.lifecycle import KEEP_ALIVE_CHOICES, LifecycleConfig

    knobs = LifecycleConfig()
    parser.add_argument("--autoscale", action="store_true",
                        help="enable the machine power lifecycle (drain "
                             "idle machines to off, wake on demand) and "
                             "the warm container pool; off by default "
                             "and bit-identical to today's runs when "
                             "off")
    parser.add_argument("--keep-alive", default=knobs.keep_alive,
                        choices=list(KEEP_ALIVE_CHOICES),
                        help="warm-pool keep-alive policy (with "
                             "--autoscale): fixed window, ttl "
                             "(refresh-on-hit), lru (evict-oldest on "
                             "overflow), or none (no pool — every "
                             "function placement cold-starts)")
    parser.add_argument("--keep-alive-ticks", type=int,
                        default=knobs.keep_alive_ticks, metavar="N",
                        help="ticks a pooled container stays warm "
                             "(default %(default)s)")
    parser.add_argument("--pool-capacity", type=int,
                        default=knobs.pool_capacity, metavar="N",
                        help="most containers the warm pool parks at "
                             "once (default %(default)s)")
    parser.add_argument("--cold-start-ticks", type=int,
                        default=knobs.cold_start_ticks, metavar="N",
                        help="extra lifetime ticks a cold-started "
                             "function container occupies (default "
                             "%(default)s)")
    parser.add_argument("--drain-ticks", type=int,
                        default=knobs.drain_ticks, metavar="N",
                        help="ticks a draining machine lingers before "
                             "powering off (default %(default)s)")
    parser.add_argument("--min-on", type=int, default=knobs.min_on,
                        metavar="N",
                        help="machines the drain planner always keeps "
                             "powered (default %(default)s)")
    parser.add_argument("--power-headroom", dest="headroom", type=float,
                        default=knobs.headroom, metavar="X",
                        help="spare capacity the planner keeps, in "
                             "mean-machine-CPU units (default "
                             "%(default)s)")


def _lifecycle_config(args):
    """The run's :class:`~repro.sim.lifecycle.LifecycleConfig` under
    ``--autoscale``, ``None`` without it."""
    from dataclasses import fields

    from repro.sim.lifecycle import LifecycleConfig

    if not args.autoscale:
        return None
    return LifecycleConfig(
        **{f.name: getattr(args, f.name) for f in fields(LifecycleConfig)}
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Aladdin (IPDPS 2019): trace "
        "generation, replays and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="generate and save a trace")
    p.add_argument("out", help="output stem (writes <out>.apps.csv etc.)")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_trace)

    p = sub.add_parser("stats", help="Fig. 8 workload statistics")
    _add_trace_args(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("replay", help="replay a trace through schedulers")
    _add_trace_args(p)
    p.add_argument("--schedulers", nargs="*", metavar="NAME",
                   help="subset of schedulers (default: all)")
    p.add_argument("--order", default="trace",
                   choices=[o.value for o in ArrivalOrder])
    p.add_argument("--machines", type=int, default=None)
    p.add_argument("--pool-factor", type=float, default=1.0)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("min-cluster",
                       help="Fig. 10 minimum cluster size per scheduler")
    _add_trace_args(p)
    p.add_argument("--schedulers", nargs="*", metavar="NAME")
    p.add_argument("--order", default="trace",
                   choices=[o.value for o in ArrivalOrder])
    p.set_defaults(fn=cmd_min_cluster)

    p = sub.add_parser("online", help="arrival/departure churn simulation")
    _add_trace_args(p)
    _add_workload_args(p)
    p.add_argument("--scheduler", default="Aladdin")
    p.add_argument("--ticks", type=int, default=50)
    p.add_argument("--order", default="trace",
                   choices=[o.value for o in ArrivalOrder])
    _add_variant_args(p)
    _add_autoscale_args(p)
    p.add_argument("--checkpoint", metavar="PATH",
                   help="write a crash-consistent snapshot to PATH "
                        "every --checkpoint-every ticks")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   metavar="N", help="checkpoint period in ticks "
                        "(0 = never; requires --checkpoint)")
    p.add_argument("--restore", metavar="PATH",
                   help="resume from a snapshot written by a previous "
                        "run; finishes bit-identical to an "
                        "uninterrupted run")
    p.add_argument("--canonical-out", metavar="PATH",
                   help="write the run's canonical JSON metrics to "
                        "PATH (for bit-identity comparison)")
    p.add_argument("--crash-at-tick", type=int, default=None, metavar="K",
                   help="SIGKILL the process after the first snapshot "
                        "at or past tick K (crash-resume testing)")
    p.set_defaults(fn=cmd_online)

    p = sub.add_parser("serve",
                       help="serve live placement requests over a socket")
    _add_trace_args(p)
    _add_workload_args(p)
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="unix socket path to serve on (keep it short: "
                        "the OS caps socket paths at ~100 chars)")
    p.add_argument("--scheduler", default="Aladdin")
    p.add_argument("--ticks", type=int, default=50,
                   help="arrival-phase length assumed by replaying "
                        "clients (part of the run fingerprint)")
    p.add_argument("--order", default="trace",
                   choices=[o.value for o in ArrivalOrder])
    p.add_argument("--pool-factor", type=float, default=1.2,
                   help="machine pool headroom over the trace's nominal "
                        "cluster (default 1.2)")
    _add_variant_args(p)
    _add_autoscale_args(p)
    p.add_argument("--max-queue", type=int, default=1024,
                   help="admission bound: requests beyond this many "
                        "queued are rejected 429-style (default 1024)")
    p.add_argument("--window-max", type=int, default=256,
                   help="most requests one scheduling window coalesces "
                        "(default 256)")
    p.add_argument("--retry-after", type=float, default=0.05,
                   metavar="SECONDS",
                   help="back-off hint carried by rejection replies")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="write a crash-consistent snapshot to PATH "
                        "every --checkpoint-every windows")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="checkpoint period in committed windows "
                        "(0 = never; requires --checkpoint)")
    p.add_argument("--restore", metavar="PATH",
                   help="start warm from a serve snapshot written by a "
                        "previous (possibly SIGKILLed) server")
    p.add_argument("--crash-after-window", type=int, default=None,
                   metavar="K",
                   help="SIGKILL the server after the first checkpointed "
                        "window at or past K, before its replies go out "
                        "(crash-recovery testing)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("experiments",
                       help="regenerate the full evaluation as markdown")
    _add_trace_args(p)
    p.add_argument("--out", help="write the report to a file")
    p.add_argument("--quick", action="store_true",
                   help="skip the slow Fig. 10/12 sections")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser("faults", help="fail machines and recover")
    _add_trace_args(p)
    p.add_argument("--failures", type=int, default=5)
    p.add_argument("--order", default="trace",
                   choices=[o.value for o in ArrivalOrder])
    p.add_argument("--pool-factor", type=float, default=1.2)
    p.set_defaults(fn=cmd_faults)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
