"""Fig. 12+ ablation report: the optimisation trajectory as JSON.

Runs the online churn workload through the cumulative optimisation
stack — plain Aladdin, +IL+DL, +batch kernel —
and writes the latency trajectory to
``BENCH_fig12.json``.  This is the committed, re-measurable form of the
repository's performance claims: each variant reports best-of-N
scheduling wall time, the deterministic machines-examined counter, and
the telemetry that proves the variant's optimisation was actually in
play.

Entry points (also wired into CI as a non-gating smoke job)::

    PYTHONPATH=src python -m benchmarks.bench_report                # full
    PYTHONPATH=src python -m benchmarks.bench_report --smoke        # CI
    PYTHONPATH=src python -m benchmarks.bench_report --mode serve   # SLO

``--smoke`` refuses to overwrite a committed ``BENCH_*.json`` (e.g.
``BENCH_fig12.json``): it writes the ``*_smoke.json`` twin unless
``--out`` names another path explicitly (``--force`` overrides).

The default mode reproduces the acceptance-scale measurement: the
0.05-scale trace under ``machine_pool_factor=8.0`` yields a
4000-machine cluster, the scale at which the batched vs per-container
loop ratio is asserted (≤ 0.7x) by ``bench_fig12_latency.py``.  The
committed ``BENCH_fig12.json`` predates the deletion of the cross-round
feasibility cache and still carries its ``+cache`` stage as history.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from pathlib import Path

from repro import AladdinConfig, AladdinScheduler, generate_trace
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.sim import OnlineConfig, OnlineSimulator
from tests.core.walk_oracle import walk_blocks

def host_info() -> dict:
    """Provenance header stamped into every ``BENCH_*.json`` setup.

    A committed measurement is only re-measurable if the report says
    what it was measured *on*: CPU budget, platform, interpreter and
    the git revision of the code that produced it.
    """
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        git_rev = rev.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_rev": git_rev,
    }


#: The cumulative ablation trajectory, in presentation order: name ->
#: scheduler factory.  Each stage adds one optimisation on top of the
#: previous stage; ``+IL+DL`` is the per-container walk of the walk
#: oracle, whose kernel places nothing.
VARIANTS = {
    "plain": lambda: AladdinScheduler(
        AladdinConfig(enable_il=False, enable_dl=False)
    ),
    "+IL+DL": lambda: walk_blocks(AladdinScheduler()),
    "+batch": AladdinScheduler,  # everything on: the production default
}


def measure(trace, cfg: OnlineConfig, make_scheduler, repeats: int) -> dict:
    """Best-of-``repeats`` churn run of one scheduler variant."""
    sim = OnlineSimulator(trace, cfg)
    runs = [sim.run(make_scheduler()) for _ in range(repeats)]
    best = min(runs, key=lambda r: r.total_elapsed_s)
    tele = best.telemetry
    return {
        "wall_time_ms": round(best.total_elapsed_s * 1000, 2),
        "machines_examined": sum(s.explored for s in best.samples),
        "failed": best.total_failed,
        "migrations": best.total_migrations,
        "peak_used_machines": best.peak_used_machines,
        "batch_kernel_invocations": tele.batch_kernel_invocations,
        "index_resyncs": tele.index_resyncs,
        "machines_skipped": tele.machines_skipped,
    }


def run_report(
    scale: float,
    seed: int,
    ticks: int,
    pool_factor: float,
    repeats: int,
) -> dict:
    trace = generate_trace(scale=scale, seed=seed)
    cfg = OnlineConfig(
        ticks=ticks, seed=seed, machine_pool_factor=pool_factor
    )
    n_machines = max(
        1, round(trace.config.n_machines * pool_factor)
    )
    report: dict = {
        "figure": "Fig. 12+ (online churn ablation)",
        "setup": {
            "scale": scale,
            "seed": seed,
            "ticks": ticks,
            "machine_pool_factor": pool_factor,
            "n_machines": n_machines,
            "n_containers": trace.n_containers,
            "repeats": repeats,
        },
        "variants": {},
    }
    for name, variant in VARIANTS.items():
        report["variants"][name] = measure(trace, cfg, variant, repeats)
        print(
            f"{name:>10}: {report['variants'][name]['wall_time_ms']:8.1f} ms, "
            f"{report['variants'][name]['machines_examined']:>12,} machines examined"
        )
    loop = report["variants"]["+IL+DL"]["wall_time_ms"]
    batched = report["variants"]["+batch"]["wall_time_ms"]
    report["batched_over_loop"] = round(batched / loop, 3) if loop else None
    print(f"batched/loop wall-time ratio: {report['batched_over_loop']}")
    return report


# ----------------------------------------------------------------------
# --mode restore: warm ledger resync vs cold rebuild after a restart
# ----------------------------------------------------------------------
def run_restore_report(
    scale: float, seed: int, pool_factor: float, repeats: int
) -> dict:
    """First-round-after-restart latency: cold rebuild vs warm resync.

    Warms an engine over the whole calibrated trace (many rounds, many
    demand signatures), checkpoints engine + state, dirties a small
    churn window, then measures the *first scheduling round* of

    * ``cold-rebuild`` — a fresh engine on the restored state, which
      rebuilds the packed-first index from scratch, and
    * ``warm-resync`` — ``AladdinScheduler.from_checkpoint``, which
      restarts the index from the persisted dirty-log watermark and
      re-keys only the churned machines.

    Both rounds must place identically (the ledgers are semantically
    transparent); the report commits the warm/cold latency ratio.
    ``BENCH_restore.json`` was measured while the engine still kept a
    cross-round feasibility cache, which the warm side also resumed.
    """
    trace = generate_trace(scale=scale, seed=seed)
    n_machines = max(1, round(trace.config.n_machines * pool_factor))
    topo = build_cluster(n_machines)
    state = ClusterState(topo, trace.constraints)
    engine = AladdinScheduler()

    by_app = trace.containers_by_app()
    apps = sorted(by_app)
    n_probe = max(4, len(apps) // 50)
    fill, probe_apps = apps[:-n_probe], apps[-n_probe:]
    probe = [c for a in probe_apps for c in by_app[a]]

    # Warm phase: many rounds over the full demand-signature mix.
    for i in range(0, len(fill), 40):
        batch = [c for a in fill[i : i + 40] for c in by_app[a]]
        engine.schedule(batch, state)
    # A small churn window after the last sync point, so the warm
    # restore has a realistic non-empty dirty set to replay.
    for cid in list(state.assignment)[:: max(1, len(state.assignment) // 64)]:
        state.evict(cid)

    engine_image = engine.checkpoint()
    state_image = state.checkpoint_payload()

    def first_round(warm: bool) -> tuple[float, dict]:
        rstate = ClusterState.from_payload(state_image, topo, trace.constraints)
        if warm:
            e = AladdinScheduler.from_checkpoint(engine_image, rstate)
        else:
            e = AladdinScheduler()
        t0 = time.perf_counter()
        result = e.schedule(list(probe), rstate)
        dt = time.perf_counter() - t0
        return dt, dict(result.placements)

    report: dict = {
        "figure": "Restore path (warm ledger resync vs cold rebuild)",
        "setup": {
            "scale": scale,
            "seed": seed,
            "machine_pool_factor": pool_factor,
            "n_machines": n_machines,
            "n_containers": trace.n_containers,
            "probe_containers": len(probe),
            "repeats": repeats,
        },
        "variants": {},
    }
    placements: dict[str, dict] = {}
    for name, warm in (("cold-rebuild", False), ("warm-resync", True)):
        best = min(
            (first_round(warm) for _ in range(repeats)),
            key=lambda r: r[0],
        )
        placements[name] = best[1]
        report["variants"][name] = {
            "first_round_ms": round(best[0] * 1000, 3),
            "placed": len(best[1]),
        }
        print(f"{name:>13}: first round {best[0] * 1000:8.2f} ms, "
              f"{len(best[1])} placed")
    report["decisions_identical"] = (
        placements["cold-rebuild"] == placements["warm-resync"]
    )
    cold = report["variants"]["cold-rebuild"]["first_round_ms"]
    warm = report["variants"]["warm-resync"]["first_round_ms"]
    report["warm_over_cold"] = round(warm / cold, 3) if cold else None
    print(f"decisions identical: {report['decisions_identical']}; "
          f"warm/cold first-round ratio: {report['warm_over_cold']}")
    if not report["decisions_identical"]:
        raise SystemExit("warm-restored engine diverged from cold rebuild")
    return report


def resolve_out(out: str | None, smoke: bool, force: bool, mode: str = "fig12") -> str:
    """Output-path policy: smoke runs must not clobber the committed
    full measurement.

    Without ``--out`` the full run writes the mode's committed file
    (``BENCH_fig12.json``, ``BENCH_restore.json``, ...) and the smoke run
    its ``*_smoke.json`` twin; a smoke run that explicitly names a
    committed file is refused unless forced.
    """
    committed = {
        "fig12": "BENCH_fig12.json",
        "restore": "BENCH_restore.json",
        "serve": "BENCH_serve.json",
        "trace": "BENCH_trace.json",
        "power": "BENCH_power.json",
    }
    if out is None:
        base = committed[mode]
        return base.replace(".json", "_smoke.json") if smoke else base
    if smoke and Path(out).name in committed.values() and not force:
        raise SystemExit(
            f"refusing to overwrite the committed {Path(out).name} with a "
            "--smoke run; pick another --out or pass --force"
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fig. 12+ churn ablation -> BENCH_fig12.json"
    )
    parser.add_argument("--mode",
                        choices=("fig12", "restore", "serve",
                                 "trace", "power"),
                        default="fig12",
                        help="fig12: cumulative ablation trajectory; "
                             "restore: first-round "
                             "latency after a restart, warm ledger "
                             "resync vs cold rebuild; serve: closed-loop "
                             "SLO load against the async placement "
                             "service (req/s, p50/p99 decision latency); "
                             "trace: "
                             "Azure-scenario sweep (diurnal/burst/churn-"
                             "storm/mixed-lla vs the LLA-only baseline) "
                             "across the batch axis; "
                             "power: machine-hours and cold-start rate "
                             "per keep-alive policy with the "
                             "autoscaling lifecycle on "
                             "(diurnal/churn-storm vs always-on)")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="trace scale (default 0.05 -> 4000 machines "
                             "under the default pool factor)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ticks", type=int, default=60)
    parser.add_argument("--pool-factor", type=float, default=8.0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-time repetitions per variant (best-of)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="serve mode: measured seconds per operating "
                             "point")
    parser.add_argument("--clients", type=int, default=8,
                        help="serve mode: closed-loop clients at the "
                             "saturated operating point")
    parser.add_argument("--batch-size", type=int, default=16,
                        help="serve mode: containers per placement request")
    parser.add_argument("--trace-ticks", type=int, default=48,
                        help="trace mode: tick bins the Azure day is "
                             "folded into (default 48 -> 30-minute "
                             "ticks)")
    parser.add_argument("--n-functions", type=int, default=160,
                        help="trace mode: synthetic-fallback dataset "
                             "size")
    parser.add_argument("--power-pool-factor", type=float, default=2.5,
                        help="power mode machine pool factor: provisions "
                             "for peak concurrency plus cold-start "
                             "lifetime inflation; the lifecycle powers "
                             "the surplus down, always-on pays for it")
    parser.add_argument("--serve-pool-factor", type=float, default=20.0,
                        help="serve mode machine pool factor (20.0 puts "
                             "the default 0.05-scale trace at 10,000 "
                             "machines)")
    parser.add_argument("--out", default=None,
                        help="output path (default per --mode: "
                             "BENCH_fig12.json, BENCH_restore.json, ..., or "
                             "the *_smoke.json twin under --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke mode: tiny scale, one repetition, "
                             "no ratio assertion")
    parser.add_argument("--force", action="store_true",
                        help="allow a --smoke run to overwrite "
                             "BENCH_fig12.json")
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale, args.ticks, args.repeats = 0.02, 20, 1
        args.duration, args.clients = 2.0, 4
        args.trace_ticks, args.n_functions = 16, 64
        if args.mode in ("trace", "power"):
            args.scale = 0.01
    out = resolve_out(args.out, args.smoke, args.force, mode=args.mode)

    if args.mode == "power":
        from benchmarks.bench_power import run_power_report

        report = run_power_report(
            args.scale, args.seed, args.trace_ticks, args.repeats,
            n_functions=args.n_functions,
            pool_factor=args.power_pool_factor,
        )
    elif args.mode == "trace":
        from benchmarks.bench_trace import run_trace_report

        report = run_trace_report(
            args.scale, args.seed, args.trace_ticks, args.repeats,
            n_functions=args.n_functions,
        )
    elif args.mode == "serve":
        from benchmarks.bench_serve import run_serve_report

        report = run_serve_report(
            args.scale, args.seed, args.serve_pool_factor,
            args.duration, args.clients, args.batch_size,
        )
    elif args.mode == "restore":
        report = run_restore_report(
            args.scale, args.seed, args.pool_factor, args.repeats
        )
    else:
        report = run_report(
            args.scale, args.seed, args.ticks, args.pool_factor,
            args.repeats,
        )
    # Every committed BENCH_*.json carries the same provenance header.
    report.setdefault("setup", {}).update(host_info())
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
