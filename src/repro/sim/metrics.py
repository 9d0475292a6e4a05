"""Evaluation metrics (Sections V.B–V.D).

* **Placement quality** (Fig. 9) — the paper's "constraint violations
  (%)": containers that are undeployed *or* deployed in violation of a
  constraint, as a share of the workload; plus the anti-affinity share
  of those violations (Fig. 9e).
* **Resource efficiency** (Fig. 10/11) — machines used, Equation 10's
  relative efficiency, and the per-machine utilisation range.
* **Placement latency / overhead** (Fig. 12/13) — Equation 11's average
  per-container latency, total wall time, and migration/preemption
  counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.base import FailureReason, ScheduleResult
from repro.cluster.container import Container
from repro.cluster.state import ClusterState


@dataclass(frozen=True)
class SimulationMetrics:
    """Every number the evaluation section reports, for one run."""

    scheduler: str
    arrival_order: str
    n_total: int
    n_deployed: int
    n_undeployed: int
    n_violating_placements: int
    #: Fig. 9 y-axis: (undeployed + violating placements) / total * 100
    violation_pct: float
    undeployed_pct: float
    #: violation breakdown for Fig. 9(e)
    anti_affinity_violations: int
    priority_violations: int
    resource_failures: int
    anti_affinity_share_pct: float
    #: Fig. 10/11
    used_machines: int
    utilization_min: float
    utilization_max: float
    utilization_mean: float
    #: Fig. 13
    migrations: int
    preemptions: int
    explored: int
    #: Fig. 12: Equation 11, milliseconds per container
    latency_total_s: float
    latency_per_container_ms: float
    #: scheduler telemetry (all 0 for schedulers without the layer):
    #: SPFA relaxations and IL/DL pruning hits
    spfa_relaxations: int = 0
    il_prune_hits: int = 0
    dl_prune_hits: int = 0

    def row(self) -> dict[str, object]:
        """Flat dict for table rendering / JSON dumps."""
        return dict(self.__dict__)


def compute_metrics(
    scheduler_name: str,
    arrival_order: str,
    result: ScheduleResult,
    state: ClusterState,
    containers: list[Container] | None = None,
) -> SimulationMetrics:
    """Derive all metrics from a finished schedule.

    ``containers`` (the scheduled stream) enables the priority-inversion
    classification of undeployed resource failures; without it they all
    count as plain resource failures.
    """
    n_total = result.n_total
    n_undeployed = result.n_undeployed
    n_violating = len(result.violating)
    by_id = {c.container_id: c for c in containers} if containers else {}

    # --- violation breakdown (Fig. 9e) --------------------------------
    aa_violations = n_violating  # placed-in-violation is an AA violation
    priority_violations = 0
    resource_failures = 0
    deployed_priorities = _deployed_priority_capacity(result, state)
    for cid, reason in result.undeployed.items():
        if reason is FailureReason.ANTI_AFFINITY:
            aa_violations += 1
        elif reason is FailureReason.PREEMPTED:
            priority_violations += 1
        else:
            # A resource failure is a *priority* violation when some
            # strictly lower-priority container of comparable size was
            # deployed — the scheduler inverted the priority order.
            container = by_id.get(cid)
            if container is not None and _priority_inverted(
                container, deployed_priorities
            ):
                priority_violations += 1
            else:
                resource_failures += 1

    total_violations = aa_violations + priority_violations + resource_failures
    aa_share = 100.0 * aa_violations / total_violations if total_violations else 0.0

    # --- efficiency (Fig. 10/11) ---------------------------------------
    used = state.used_machines()
    if used:
        util = state.used_utilization(dim=0)
        u_min, u_max, u_mean = (
            float(util.min()),
            float(util.max()),
            float(util.mean()),
        )
    else:
        u_min = u_max = u_mean = 0.0

    per_container_ms = (
        1000.0 * result.elapsed_s / n_total if n_total else 0.0
    )
    tele = result.telemetry
    return SimulationMetrics(
        scheduler=scheduler_name,
        arrival_order=arrival_order,
        n_total=n_total,
        n_deployed=result.n_deployed,
        n_undeployed=n_undeployed,
        n_violating_placements=n_violating,
        violation_pct=100.0 * (n_undeployed + n_violating) / n_total
        if n_total
        else 0.0,
        undeployed_pct=100.0 * n_undeployed / n_total if n_total else 0.0,
        anti_affinity_violations=aa_violations,
        priority_violations=priority_violations,
        resource_failures=resource_failures,
        anti_affinity_share_pct=aa_share,
        used_machines=used,
        utilization_min=u_min,
        utilization_max=u_max,
        utilization_mean=u_mean,
        migrations=result.migrations,
        preemptions=result.preemptions,
        explored=result.explored,
        latency_total_s=result.elapsed_s,
        latency_per_container_ms=per_container_ms,
        spfa_relaxations=tele.spfa_relaxations if tele else 0,
        il_prune_hits=tele.il_prune_hits if tele else 0,
        dl_prune_hits=tele.dl_prune_hits if tele else 0,
    )


@dataclass(frozen=True)
class PowerMetrics:
    """Energy/cost view of an online run — the Fig. 10 machine curve
    integrated over time.

    ``machine_ticks`` sums powered (on + draining) machines per sampled
    tick; samples without lifecycle telemetry (autoscale off) count the
    full cluster, so the always-on baseline and an autoscale run read
    through the same accessor.  ``cold_start_rate`` is cold starts per
    arrived container.
    """

    machine_ticks: int
    always_on_machine_ticks: int
    savings_pct: float
    peak_powered: int
    warm_hits: int
    cold_starts: int
    cold_start_rate: float

    def row(self) -> dict[str, object]:
        return dict(self.__dict__)


def power_metrics(
    result, n_machines: int, always_on: int | None = None
) -> PowerMetrics:
    """Fold an :class:`~repro.sim.online.OnlineResult`'s per-tick power
    telemetry into one :class:`PowerMetrics`, its savings measured
    against ``always_on`` machine-ticks — pass the always-on run's: the
    default, the whole cluster over this run's own ticks, counts the
    ticks the lifecycle's horizon tail stretched it by."""
    machine_ticks = 0
    peak = 0
    warm_hits = 0
    cold_starts = 0
    for s in result.samples:
        if s.powered_machines is None:
            powered = n_machines
        else:
            powered = s.powered_machines + s.draining_machines
            warm_hits += s.warm_hits
            cold_starts += s.cold_starts
        machine_ticks += powered
        peak = max(peak, powered)
    if always_on is None:
        always_on = n_machines * len(result.samples)
    savings = (
        100.0 * (1.0 - machine_ticks / always_on) if always_on else 0.0
    )
    rate = (
        cold_starts / result.total_arrived if result.total_arrived else 0.0
    )
    return PowerMetrics(
        machine_ticks=machine_ticks,
        always_on_machine_ticks=always_on,
        savings_pct=savings,
        peak_powered=peak,
        warm_hits=warm_hits,
        cold_starts=cold_starts,
        cold_start_rate=rate,
    )


def relative_efficiency(metrics: list[SimulationMetrics]) -> dict[str, float]:
    """Equation 10: ``num(i) / min_j num(j) - 1`` per scheduler.

    0.0 marks the most efficient scheduler; 0.5 means 50 % more machines
    than the best — the paper's "improves resource efficiency by 50 %"
    headline is this quantity.
    """
    if not metrics:
        return {}
    best = min(m.used_machines for m in metrics)
    if best == 0:
        return {m.scheduler: 0.0 for m in metrics}
    return {m.scheduler: m.used_machines / best - 1.0 for m in metrics}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _deployed_priority_capacity(
    result: ScheduleResult, state: ClusterState
) -> dict[int, float]:
    """Max deployed CPU demand per priority class, for inversion checks."""
    max_cpu: dict[int, float] = {}
    for cid in result.placements:
        c = state.container(cid)
        if c.cpu > max_cpu.get(c.priority, 0.0):
            max_cpu[c.priority] = c.cpu
    return max_cpu


def _priority_inverted(container, max_cpu_by_priority: dict[int, float]) -> bool:
    """True when a strictly lower-priority, same-or-larger container won."""
    return any(
        p < container.priority and cpu >= container.cpu
        for p, cpu in max_cpu_by_priority.items()
    )
