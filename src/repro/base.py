"""Shared scheduler interface.

Every scheduler in the reproduction — Aladdin and the Table-I baselines —
consumes an ordered container stream plus a mutable
:class:`~repro.cluster.state.ClusterState` and produces a
:class:`ScheduleResult`.  The simulator only depends on this module, so
schedulers are interchangeable in every experiment.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field

from repro.cluster.container import Container
from repro.cluster.state import ClusterState
from repro.telemetry import SchedulerTelemetry


class FailureReason(enum.Enum):
    """Why a container could not be deployed.

    The breakdown feeds Fig. 9(e): an undeployed container whose
    placement was blocked purely by anti-affinity (resources existed) is
    an anti-affinity failure; resource exhaustion and priority pressure
    are tracked separately.
    """

    ANTI_AFFINITY = "anti_affinity"
    RESOURCES = "resources"
    PREEMPTED = "preempted"


@dataclass
class ScheduleResult:
    """Outcome of scheduling one container stream.

    ``placements`` maps container id → machine id for every deployed
    container.  ``violating`` lists containers deployed *in violation*
    of an anti-affinity rule (some baselines knowingly do this);
    ``undeployed`` maps failed containers to their failure reason.
    """

    placements: dict[int, int] = field(default_factory=dict)
    undeployed: dict[int, FailureReason] = field(default_factory=dict)
    violating: set[int] = field(default_factory=set)
    migrations: int = 0
    preemptions: int = 0
    #: machines examined / paths explored — the algorithm-overhead proxy
    explored: int = 0
    #: scheduler-reported wall-clock seconds spent inside schedule()
    elapsed_s: float = 0.0
    #: counters and phase timings collected during schedule(); ``None``
    #: for schedulers that predate the telemetry layer
    telemetry: SchedulerTelemetry | None = None

    @property
    def n_deployed(self) -> int:
        return len(self.placements)

    @property
    def n_undeployed(self) -> int:
        return len(self.undeployed)

    @property
    def n_total(self) -> int:
        return self.n_deployed + self.n_undeployed

    def merge(self, other: "ScheduleResult") -> None:
        """Fold another result (e.g. a later window) into this one."""
        overlap = self.placements.keys() & other.placements.keys()
        if overlap:
            raise ValueError(f"containers scheduled twice: {sorted(overlap)[:5]}")
        self.placements.update(other.placements)
        self.undeployed.update(other.undeployed)
        self.violating.update(other.violating)
        self.migrations += other.migrations
        self.preemptions += other.preemptions
        self.explored += other.explored
        self.elapsed_s += other.elapsed_s
        if other.telemetry is not None:
            if self.telemetry is None:
                self.telemetry = SchedulerTelemetry()
            self.telemetry.merge(other.telemetry)


class Scheduler(abc.ABC):
    """Base class for all schedulers."""

    #: Display name used in experiment tables (e.g. ``"Aladdin(16)"``).
    name: str = "scheduler"

    @abc.abstractmethod
    def schedule(
        self, containers: list[Container], state: ClusterState
    ) -> ScheduleResult:
        """Place ``containers`` (already in arrival order) onto ``state``.

        Implementations mutate ``state`` (deployments, migrations,
        evictions) and must keep it consistent with the returned
        ``placements``: every placement is reflected in ``state`` and
        vice versa.
        """

    def checkpoint(self) -> dict | None:
        """Image of the ledgers that outlive a round, for a run snapshot;
        ``None`` for a scheduler that keeps none."""
        return None

    def restore_checkpoint(self, payload: dict, state: ClusterState) -> None:
        """Adopt a :meth:`checkpoint` image against a restored ``state``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
