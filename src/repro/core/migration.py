"""Priority-aware preemption and migration (Section III.B, Fig. 3/7).

Plain maximum-flow offers two flow-increasing mechanisms — preemption
and migration — but neither is priority-aware.  Aladdin constrains them:

* **Migration** (Fig. 3b, Fig. 7): a blocked container may be admitted
  by *moving* deployed containers elsewhere — either containers whose
  anti-affinity blacklists the machine, or small containers whose
  eviction-by-relocation frees enough resources (consolidation).  Moved
  containers stay deployed, so migration never harms any priority class.
* **Preemption**: a machine may be freed by *evicting* strictly
  lower-priority containers; the weighted-flow ordering (Equation 5)
  guarantees the reverse never happens.  Victims are re-queued by the
  scheduler and may land elsewhere or end up undeployed.

The strategies are implemented once, in
:class:`~repro.core.rescuekernel.RescueKernel`.  :class:`RescuePlanner`
is the per-round front the vectorised scheduler and the flow-path
search engine share: it carries the round's state, configuration and
Equation 9 guard weights, reports telemetry, and hands each attempt to
its kernel.  Every successful rescue leaves the
:class:`~repro.cluster.state.ClusterState` consistent.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.cluster.container import Container
from repro.cluster.state import ClusterState
from repro.core.config import AladdinConfig
from repro.core.machindex import MachineIndex
from repro.core.rescuekernel import RescueKernel, RescueOutcome


class RescuePlanner:
    """Attempts migration, consolidation and preemption, in that order.

    ``weights`` (priority class → Equation-5 weight) lets preemption
    honour the weighted-flow objective (Equation 9): a preemption whose
    victims carry at least as much weighted flow as the container being
    admitted would not increase the objective and is refused.

    ``kernel`` plans each attempt (:meth:`RescueKernel.rescue_plan`)
    and reads its candidate orders off ``machine_index``; an engine
    passes the ledgers it keeps across rounds, and a planner built
    without an index grows a private one.  Tests substitute the kernel
    here to replay the same attempts through an oracle.
    """

    def __init__(
        self,
        state: ClusterState,
        config: AladdinConfig,
        weights: dict[int, float] | None = None,
        machine_index: MachineIndex | None = None,
        *,
        kernel: RescueKernel,
    ) -> None:
        self.state = state
        self.config = config
        self.weights = weights or {}
        self.machine_index = (
            machine_index if machine_index is not None else MachineIndex()
        )
        self.kernel = kernel

    def _weighted_flow(self, container: Container) -> float:
        return self.weights.get(container.priority, 1.0) * container.cpu

    def rescue(
        self,
        container: Container,
        demand: np.ndarray,
        allow_preemption: bool = True,
        exhaustive: bool = False,
    ) -> RescueOutcome:
        """Try to free a machine for ``container``.

        On success the state already reflects every migration/eviction
        performed (the *placement* of ``container`` itself is left to
        the caller, which owns deployment bookkeeping).  ``exhaustive``
        lifts the candidate-scan bounds (used by the scheduler's final
        repair pass, where thoroughness beats latency).

        Wall time is reported to the active telemetry collector as the
        ``rescue`` phase (it overlaps the caller's search phase — rescue
        runs *inside* the search loop), alongside the deterministic
        ``rescue_*`` counters: attempts, migrations, preemptions and
        machines scanned.
        """
        t0 = time.perf_counter()
        tele = telemetry.current()
        if tele is not None:
            tele.rescue_attempts += 1
        try:
            out = self.kernel.rescue_plan(
                self, container, demand, allow_preemption, exhaustive
            )
            if tele is not None:
                tele.rescue_migrations += out.migrations
                tele.rescue_preemptions += len(out.preempted)
                tele.rescue_machines_scanned += out.scanned
            return out
        finally:
            if tele is not None:
                tele.add_phase_time("rescue", time.perf_counter() - t0)
