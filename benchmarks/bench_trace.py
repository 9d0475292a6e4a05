"""Azure-trace scenario sweep: the serverless workload ablation.

Runs every scenario family of :mod:`repro.trace.scenarios` — built on
the seeded synthetic fallback, so the benchmark needs nothing on disk —
through the Aladdin optimisation axis (full stack, no batch kernel)
and commits the result as ``BENCH_trace.json``.  Two claims are
asserted, not just reported:

* **decision parity** — the batch axis is semantically transparent, so
  every variant's decision signature (per-tick
  arrived/departed/running/used-machines/failures/migrations/violations
  plus the run totals) must be identical per scenario;
* **the churn-storm story** — the report carries an ``lla-only`` row
  (the synthetic Alibaba-style workload at the same scale) so the
  committed numbers show how much more churn per busy tick the
  serverless scenarios put through the engine (see EXPERIMENTS.md).

The committed ``BENCH_trace.json`` predates the deletion of the
cross-round feasibility cache: its ``no-cache`` rows, full/no-cache
ratios and cache hit rates are history, not something this sweep
still measures.
"""

from __future__ import annotations

from repro import AladdinScheduler, generate_trace
from repro.sim import OnlineConfig, OnlineSimulator
from repro.trace import SCENARIOS, build_scenario
from tests.core.walk_oracle import walk_blocks

#: optimisation axes swept per scenario: name -> scheduler factory
#: (``no-batch`` is the walk oracle, whose kernel places nothing)
TRACE_VARIANTS = {
    "full": AladdinScheduler,
    "no-batch": lambda: walk_blocks(AladdinScheduler()),
}


def decision_signature(result) -> tuple:
    """Everything a semantically-transparent optimisation must preserve."""
    return (
        result.total_arrived,
        result.total_departed,
        result.total_failed,
        result.total_migrations,
        tuple(
            (
                s.tick,
                s.arrived_containers,
                s.departed_containers,
                s.running_containers,
                s.pending_failures,
                s.used_machines,
                s.migrations,
                s.violations,
            )
            for s in result.samples
        ),
    )


def _measure_interleaved(
    trace, cfg: OnlineConfig, variants: dict, repeats: int
) -> dict[str, dict]:
    """Best-of-``repeats`` rows for every variant, repeats interleaved.

    Round-robin across the variants (run 1 of each, then run 2 of
    each, …) rather than back-to-back per variant: on a contended host
    a load burst then degrades every variant's round about equally
    instead of landing entirely on whichever variant was being timed,
    so best-of-N ratios between variants converge much faster.
    """
    sims = {name: OnlineSimulator(trace, cfg) for name in variants}
    runs: dict[str, list] = {name: [] for name in variants}
    for _ in range(repeats):
        for name, make_scheduler in variants.items():
            runs[name].append(sims[name].run(make_scheduler()))
    return {
        name: _row(min(results, key=lambda r: r.total_elapsed_s))
        for name, results in runs.items()
    }


def _row(best) -> dict:
    tele = best.telemetry
    busy_ticks = sum(1 for s in best.samples if s.arrived_containers)
    return {
        "wall_time_ms": round(best.total_elapsed_s * 1000, 2),
        "arrived": best.total_arrived,
        "departed": best.total_departed,
        "failed": best.total_failed,
        "migrations": best.total_migrations,
        "peak_used_machines": best.peak_used_machines,
        "busy_ticks": busy_ticks,
        "churn_per_busy_tick": (
            round((best.total_arrived + best.total_departed) / busy_ticks, 1)
            if busy_ticks else 0.0
        ),
        "machines_examined": sum(s.explored for s in best.samples),
        "batch_kernel_invocations": tele.batch_kernel_invocations,
        # Wall seconds per tick phase (window apply + scheduler phases),
        # from the same best-of-repeats run as wall_time_ms.
        "phase_time_s": {
            name: round(dt, 4)
            for name, dt in sorted(tele.phase_time_s.items())
        },
        "_signature": decision_signature(best),
    }


def run_trace_report(
    scale: float,
    seed: int,
    ticks: int,
    repeats: int,
    scenarios: tuple[str, ...] = (),
    variants: tuple[str, ...] = (),
    n_functions: int = 160,
) -> dict:
    """Sweep scenarios × optimisation axes; assert per-scenario parity."""
    scenario_names = list(scenarios) or sorted(SCENARIOS)
    variant_names = list(variants) or list(TRACE_VARIANTS)
    report: dict = {
        "figure": "Azure-trace scenarios (serverless churn ablation)",
        "setup": {
            "scale": scale,
            "seed": seed,
            "ticks": ticks,
            "repeats": repeats,
            "n_functions": n_functions,
            "dataset": f"synthetic-fallback:seed={seed}",
            "scenarios": scenario_names,
            "variants": variant_names,
        },
        "scenarios": {},
    }

    workloads: dict[str, tuple] = {}
    for name in scenario_names:
        trace = build_scenario(
            name, scale=scale, seed=seed, ticks=ticks, n_functions=n_functions
        )
        cfg = OnlineConfig(seed=seed, scenario=name)
        workloads[name] = (trace, cfg)
    # The LLA-only baseline: the synthetic Alibaba-style generator at
    # the same scale, which is what every pre-trace benchmark measured.
    lla_trace = generate_trace(scale=scale, seed=seed)
    workloads["lla-only"] = (
        lla_trace,
        OnlineConfig(ticks=ticks, seed=seed),
    )

    for name, (trace, cfg) in workloads.items():
        rows = _measure_interleaved(
            trace, cfg,
            {v: TRACE_VARIANTS[v] for v in variant_names},
            repeats,
        )
        for vname in variant_names:
            r = rows[vname]
            print(
                f"{name:>12} / {vname:<9}: {r['wall_time_ms']:8.1f} ms, "
                f"arrived {r['arrived']:>6}, churn/tick "
                f"{r['churn_per_busy_tick']:>7}"
            )
        signatures = {v: rows[v].pop("_signature") for v in rows}
        baseline = signatures[variant_names[0]]
        diverged = [v for v, sig in signatures.items() if sig != baseline]
        if diverged:
            raise SystemExit(
                f"scenario {name}: variants {diverged} diverged from "
                f"{variant_names[0]} — the optimisation axes must be "
                "semantically transparent"
            )
        report["scenarios"][name] = {
            "n_apps": trace.n_apps,
            "n_containers": trace.n_containers,
            "n_machines": trace.config.n_machines,
            "decisions_identical": True,
            "variants": rows,
        }

    storm = report["scenarios"].get("churn-storm")
    lla = report["scenarios"].get("lla-only")
    if storm and lla:
        report["churn_storm_vs_lla_only"] = {
            "churn_per_busy_tick": [
                storm["variants"]["full"]["churn_per_busy_tick"],
                lla["variants"]["full"]["churn_per_busy_tick"],
            ],
        }
        print(
            "churn-storm vs lla-only: churn/tick "
            f"{report['churn_storm_vs_lla_only']['churn_per_busy_tick']}"
        )
    return report
