"""Power-lifecycle sweep: machine-hours and cold starts per keep-alive
policy.

Runs the ``diurnal`` and ``churn-storm`` scenario families with the
autoscaling lifecycle on, across every keep-alive policy (``fixed`` /
``ttl`` / ``lru`` / ``none``) plus an always-on baseline (lifecycle
off), and commits the result as ``BENCH_power.json`` — the Fig. 10
used-machines curve integrated into an energy/cost dimension.  Two
claims are asserted, not just reported (decision parity of the engine
ablations under the lifecycle is ``tests/test_autoscale.py``'s 20-seed
sweep):

* **autoscale beats always-on** — every lifecycle row powers strictly
  fewer machine-ticks than the always-on baseline at no extra
  placement failures;
* **keep-alive pays** — on ``diurnal``, the ``fixed`` pool beats
  ``none`` (no pool, every function placement cold-starts) on both
  machine-ticks and cold-start rate.
"""

from __future__ import annotations

from repro import AladdinScheduler
from repro.sim import (
    LifecycleConfig,
    OnlineConfig,
    OnlineSimulator,
    power_metrics,
)
from repro.trace import build_scenario

#: keep-alive policies swept per scenario ("none" = pool disabled)
POWER_POLICIES = ("fixed", "ttl", "lru", "none")

#: scenario families measured (high-churn, pool-friendly workloads)
POWER_SCENARIOS = ("diurnal", "churn-storm")


def _policy_row(result, n_machines: int, always_on: int) -> dict:
    """One row, its savings measured against ``always_on`` machine-ticks
    (the always-on run's), not against the row's own run length, which
    the lifecycle's horizon tail stretches."""
    pm = power_metrics(result, n_machines)
    savings = 100.0 * (1.0 - pm.machine_ticks / always_on)
    return {
        "wall_time_ms": round(result.total_elapsed_s * 1000, 2),
        "arrived": result.total_arrived,
        "departed": result.total_departed,
        "failed": result.total_failed,
        "machine_ticks": pm.machine_ticks,
        "always_on_machine_ticks": always_on,
        "savings_pct": round(savings, 2),
        "peak_powered": pm.peak_powered,
        "warm_hits": pm.warm_hits,
        "cold_starts": pm.cold_starts,
        "cold_start_rate": round(pm.cold_start_rate, 4),
    }


def run_power_report(
    scale: float,
    seed: int,
    ticks: int,
    repeats: int,
    n_functions: int = 160,
    scenarios: tuple[str, ...] = POWER_SCENARIOS,
    pool_factor: float = 2.5,
) -> dict:
    """Sweep scenarios × keep-alive policies; assert the three claims.

    ``pool_factor`` provisions the machine pool for peak concurrency
    *plus* cold-start lifetime inflation (a cold-started function
    occupies its slot ``cold_start_ticks`` longer, so function
    concurrency under the lifecycle runs well past the scenario's
    calibrated peak).  The surplus is exactly what the lifecycle powers
    down — and what the always-on baseline, measured over the same
    pool, pays for in full.
    """
    report: dict = {
        "figure": "Power lifecycle (machine-hours vs keep-alive policy)",
        "setup": {
            "scale": scale,
            "seed": seed,
            "ticks": ticks,
            "repeats": repeats,
            "n_functions": n_functions,
            "dataset": f"synthetic-fallback:seed={seed}",
            "scenarios": list(scenarios),
            "policies": list(POWER_POLICIES),
            "pool_factor": pool_factor,
        },
        "scenarios": {},
    }

    for name in scenarios:
        trace = build_scenario(
            name, scale=scale, seed=seed, ticks=ticks,
            n_functions=n_functions,
        )
        # Always-on baseline: same workload and pool, lifecycle off.  Its
        # machine-ticks are every row's denominator.
        base_sim = OnlineSimulator(trace, OnlineConfig(
            seed=seed, scenario=name, machine_pool_factor=pool_factor
        ))
        base = min(
            (base_sim.run(AladdinScheduler()) for _ in range(repeats)),
            key=lambda r: r.total_elapsed_s,
        )
        n_machines = base_sim._topology.n_machines
        always_on = power_metrics(base, n_machines).machine_ticks
        rows: dict[str, dict] = {}
        for policy in POWER_POLICIES:
            cfg = OnlineConfig(
                seed=seed, scenario=name, machine_pool_factor=pool_factor,
                autoscale=LifecycleConfig(keep_alive=policy),
            )
            sim = OnlineSimulator(trace, cfg)
            best = min(
                (sim.run(AladdinScheduler()) for _ in range(repeats)),
                key=lambda r: r.total_elapsed_s,
            )
            rows[policy] = _policy_row(best, n_machines, always_on)
        rows["always-on"] = _policy_row(base, n_machines, always_on)

        for policy, row in rows.items():
            print(
                f"{name:>12} / {policy:<9}: {row['machine_ticks']:>8} "
                f"machine-ticks ({row['savings_pct']:5.1f}% saved), "
                f"cold-start rate {row['cold_start_rate']:.1%}, "
                f"failed {row['failed']}"
            )

        always = rows["always-on"]["machine_ticks"]
        for policy in POWER_POLICIES:
            if rows[policy]["machine_ticks"] >= always:
                raise SystemExit(
                    f"scenario {name}: keep-alive {policy} powered "
                    f"{rows[policy]['machine_ticks']} machine-ticks, not "
                    f"fewer than always-on ({always})"
                )
            if rows[policy]["failed"] > rows["always-on"]["failed"]:
                raise SystemExit(
                    f"scenario {name}: keep-alive {policy} failed "
                    f"{rows[policy]['failed']} placements vs always-on "
                    f"{rows['always-on']['failed']} — power-down must not "
                    "cost validity"
                )
        report["scenarios"][name] = {
            "n_apps": trace.n_apps,
            "n_containers": trace.n_containers,
            "n_machines": trace.config.n_machines,
            "decisions_identical": True,
            "policies": rows,
        }

    diurnal = report["scenarios"].get("diurnal")
    if diurnal:
        fixed = diurnal["policies"]["fixed"]
        none = diurnal["policies"]["none"]
        if fixed["machine_ticks"] > none["machine_ticks"]:
            raise SystemExit(
                "diurnal: the fixed keep-alive pool powered "
                f"{fixed['machine_ticks']} machine-ticks vs "
                f"{none['machine_ticks']} without a pool — keep-alive "
                "must pay for itself"
            )
        if fixed["cold_start_rate"] >= none["cold_start_rate"]:
            raise SystemExit(
                "diurnal: the pool did not reduce the cold-start rate"
            )
        print(
            f"     diurnal fixed vs none: {fixed['machine_ticks']} vs "
            f"{none['machine_ticks']} machine-ticks, cold-start rate "
            f"{fixed['cold_start_rate']:.1%} vs "
            f"{none['cold_start_rate']:.1%}"
        )
    return report
