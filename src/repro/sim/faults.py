"""Machine-failure injection and recovery.

The paper motivates within-app anti-affinity with hardware failures:
"containers belonging to the same application should be placed on
different machines to decrease the downtime likelihood in case of
hardware failures" (Section II.A).  This module closes that loop: it
kills machines under a live cluster state, measures the blast radius
per application, and drives the scheduler to re-place the displaced
containers — the event-driven counterpart of the EHC's "changes in the
LLAs' life-cycles and resources".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.base import Scheduler
from repro.cluster.container import Container
from repro.cluster.state import ClusterState


@dataclass
class FaultReport:
    """Outcome of one failure-and-recovery episode."""

    failed_machines: list[int]
    displaced: list[Container]
    recovered: int = 0
    lost: int = 0
    recovery_migrations: int = 0
    recovery_preemptions: int = 0
    recovery_s: float = 0.0
    #: app id -> number of its containers displaced by the failure
    blast_radius: dict[int, int] = field(default_factory=dict)

    @property
    def n_displaced(self) -> int:
        return len(self.displaced)

    def max_app_downtime_fraction(self, app_sizes: dict[int, int]) -> float:
        """Largest fraction of any single application taken down.

        Anti-affinity within an application exists precisely to keep
        this number small: replicas on distinct machines mean one
        machine failure downs at most 1/n of the application.
        """
        worst = 0.0
        for app_id, hit in self.blast_radius.items():
            size = app_sizes.get(app_id, hit)
            worst = max(worst, hit / size if size else 0.0)
        return worst


def machine_is_down(state: ClusterState, machine_id: int) -> bool:
    """True when a machine admits nothing and hosts nothing.

    This is the state :func:`fail_machines` leaves a victim in (and the
    state a powered-off machine of
    :class:`repro.cluster.power.PowerManager` presents): an all-zero
    ``available`` row with no residents.  A fully packed machine also
    reads all-zero but still hosts containers, so it is *not* down.
    """
    return (
        not state.machine_containers.get(machine_id)
        and not state.available[machine_id].any()
    )


def fail_machines(state: ClusterState, machine_ids: list[int]) -> FaultReport:
    """Kill machines: evict their containers and zero their capacity.

    The machines stay in the topology (ids are stable) but admit no
    further placements; :func:`repair_machines` restores them.

    The whole list is validated before anything mutates — every id must
    be in range (``IndexError``) and name a machine that is not already
    down, with no duplicates (``ValueError``) — so a bad id at position
    k can no longer leave machines ``0..k-1`` half-failed.
    """
    seen: set[int] = set()
    for machine_id in machine_ids:
        if not 0 <= machine_id < state.n_machines:
            raise IndexError(f"machine {machine_id} out of range")
        if machine_id in seen or machine_is_down(state, machine_id):
            raise ValueError(f"machine {machine_id} is already failed")
        seen.add(machine_id)
    displaced: list[Container] = []
    blast: dict[int, int] = {}
    for machine_id in machine_ids:
        for cid in list(state.machine_containers.get(machine_id, ())):
            container = state.evict(cid)
            displaced.append(container)
            blast[container.app_id] = blast.get(container.app_id, 0) + 1
        state.available[machine_id] = 0.0
        # Direct capacity mutation: tell the dirty log so cross-round
        # ledgers (machine index, resident ledger) resync this machine.
        state.touch(machine_id)
    return FaultReport(
        failed_machines=list(machine_ids),
        displaced=displaced,
        blast_radius=blast,
    )


def repair_machines(state: ClusterState, machine_ids: list[int]) -> None:
    """Bring failed machines back empty at full capacity.

    Validates the whole list before anything mutates, mirroring
    :func:`fail_machines`: out-of-range ids raise ``IndexError`` (a
    negative id no longer wraps around and silently "repairs" the last
    machine), machines still hosting containers raise ``ValueError``
    (unchanged semantics), and so does repairing a machine that was
    never failed — its capacity row is not all-zero, so there is
    nothing to restore and the call was almost certainly a bug.
    """
    seen: set[int] = set()
    for machine_id in machine_ids:
        if not 0 <= machine_id < state.n_machines:
            raise IndexError(f"machine {machine_id} out of range")
        if state.machine_containers.get(machine_id):
            raise ValueError(
                f"machine {machine_id} hosts containers; it was not failed"
            )
        if machine_id not in seen and state.available[machine_id].any():
            raise ValueError(f"machine {machine_id} is not failed")
        seen.add(machine_id)
    for machine_id in machine_ids:
        state.available[machine_id] = state.topology.capacity[machine_id]
        state.touch(machine_id)


def recover(
    report: FaultReport, state: ClusterState, scheduler: Scheduler
) -> FaultReport:
    """Re-place the displaced containers through ``scheduler``.

    Containers are resubmitted highest-priority first (the paper's
    weighted-flow order); the report is updated in place and returned.
    """
    ordered = sorted(report.displaced, key=lambda c: -c.priority)
    result = scheduler.schedule(ordered, state)
    report.recovered = result.n_deployed
    report.lost = result.n_undeployed
    report.recovery_migrations = result.migrations
    report.recovery_preemptions = result.preemptions
    report.recovery_s = result.elapsed_s
    return report


def random_failures(
    state: ClusterState,
    n_failures: int,
    rng: np.random.Generator | None = None,
    used_only: bool = True,
) -> list[int]:
    """Pick machines to kill, uniformly over (used) machines."""
    if rng is None:
        rng = np.random.default_rng(0)
    if used_only:
        pool = np.flatnonzero(state.container_count > 0)
    else:
        pool = np.arange(state.n_machines)
    if pool.size == 0:
        return []
    n_failures = min(n_failures, pool.size)
    return [int(m) for m in rng.choice(pool, size=n_failures, replace=False)]
