"""Experiment sweeps (the grids behind Figs. 9–13)."""

from __future__ import annotations

from collections.abc import Iterable

from repro.base import Scheduler
from repro.sim.online import OnlineConfig, OnlineResult, OnlineSimulator
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator
from repro.trace.arrival import ArrivalOrder
from repro.trace.schema import Trace


def run_online(
    trace: Trace,
    scheduler: Scheduler,
    ticks: int = 50,
    seed: int = 0,
    order: ArrivalOrder = ArrivalOrder.TRACE,
    machine_pool_factor: float = 1.2,
) -> OnlineResult:
    """One online (arrival/departure churn) run — the repeated-round
    workload where the engines' cross-round ledgers earn their keep.

    The scheduler instance is reused across every tick on purpose:
    cross-round ledgers (machine index, rescue memos) only help when
    they survive rounds, and the per-tick telemetry in the returned
    :class:`OnlineResult` records exactly how much they helped.
    """
    sim = OnlineSimulator(
        trace,
        OnlineConfig(
            ticks=ticks,
            arrival_order=order,
            seed=seed,
            machine_pool_factor=machine_pool_factor,
        ),
    )
    return sim.run(scheduler)


def run_experiment(
    trace: Trace,
    schedulers: Iterable[Scheduler],
    orders: Iterable[ArrivalOrder] = (ArrivalOrder.TRACE,),
    n_machines: int | None = None,
    machine_pool_factor: float = 1.0,
) -> list[SimulationResult]:
    """Run every (scheduler, arrival order) pair on a fresh cluster."""
    sim = Simulator(
        trace, n_machines=n_machines, machine_pool_factor=machine_pool_factor
    )
    results: list[SimulationResult] = []
    for order in orders:
        for scheduler in schedulers:
            results.append(sim.run(scheduler, order))
    return results


def minimum_cluster_size(
    trace: Trace,
    scheduler_factory,
    order: ArrivalOrder = ArrivalOrder.TRACE,
    lo: int | None = None,
    hi: int | None = None,
    tolerance: float = 0.02,
) -> int:
    """Smallest cluster on which the scheduler deploys the whole trace
    cleanly (no undeployed containers, no violating placements).

    This is the Fig. 10 quantity ``num(scheduler)``: the paper reports
    Go-Kube needing up to 14,211 machines against Aladdin's 9,242 for
    the same 100k containers.  A binary search over the machine count
    runs the full replay per probe; ``tolerance`` bounds the relative
    gap between the returned value and the true minimum.

    Returns ``hi`` when even the upper bound fails (the scheduler
    cannot cleanly place the trace at any probed size).
    """
    total_cpu = sum(a.cpu * a.n_containers for a in trace.applications)
    per_machine = 32.0  # homogeneous Alibaba machines
    if lo is None:
        lo = max(1, int(total_cpu // per_machine))
    if hi is None:
        hi = max(lo + 1, 4 * lo)

    def clean(n: int) -> bool:
        sim = Simulator(trace, n_machines=n)
        result = sim.run(scheduler_factory(), order)
        return (
            result.metrics.n_undeployed == 0
            and result.metrics.n_violating_placements == 0
        )

    if not clean(hi):
        return hi
    while hi - lo > max(1, int(tolerance * hi)):
        mid = (lo + hi) // 2
        if clean(mid):
            hi = mid
        else:
            lo = mid
    return hi


def latency_sweep(
    trace: Trace,
    scheduler_factory,
    machine_counts: Iterable[int],
    order: ArrivalOrder = ArrivalOrder.TRACE,
) -> list[SimulationResult]:
    """The Fig. 12/13 shape: one run per cluster size.

    ``scheduler_factory`` is called once per point so schedulers with
    internal caches cannot leak state between cluster sizes.
    """
    results: list[SimulationResult] = []
    for n in machine_counts:
        sim = Simulator(trace, n_machines=n)
        results.append(sim.run(scheduler_factory(), order))
    return results
