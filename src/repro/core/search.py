"""Algorithm 1 executed literally over the layered flow network.

:class:`FlowPathSearch` is the *reference* engine: it enumerates
augmenting paths ``s → T_i → A_j → G_k → R_x → N_y → t`` through a real
:class:`~repro.flownet.graph.FlowNetwork`, admitting a path only when the
machine's multidimensional remaining capacity dominates the container's
demand (Equation 6 via :class:`~repro.flownet.capacity.VectorCapacity`)
and the machine's blacklist admits the application (Equations 7–8 via
:class:`~repro.core.blacklist.BlacklistFunction`).  Flow is pushed along
every accepted path, so the resulting assignment *is* a feasible flow —
checked by :func:`repro.flownet.validation.validate_flow`.

The engine applies the same isomorphism-limiting and depth-limiting
prunings and the same packed-first machine preference as the vectorised
:class:`~repro.core.scheduler.AladdinScheduler`, and the test-suite
asserts both engines produce identical placements on randomized
workloads.  It is quadratic-ish and meant for small instances; large
experiments use the vectorised engine.
"""

from __future__ import annotations

import numpy as np

from repro.base import FailureReason, ScheduleResult
from repro.cluster.container import Container
from repro.cluster.state import ClusterState, StateCursor
from repro.core.blacklist import BlacklistFunction
from repro.core.config import AladdinConfig
from repro.core.migration import RescuePlanner
from repro.core.network_builder import LayeredNetwork, build_layered_network
from repro.core.scheduler import (
    AladdinEngine,
    _scores,
    drain_requeue,
    feasible_mask,
)
from repro.flownet.capacity import VectorCapacity
from repro.flownet.validation import validate_flow


class FlowPathSearch(AladdinEngine):
    """Reference flow-network engine for Aladdin (small instances)."""

    def __init__(self, config: AladdinConfig | None = None) -> None:
        super().__init__(config)
        # Checkpoint fingerprints embed the name, so a flow engine's
        # snapshot never resumes on the batch engine.
        self.name += "[flow]"
        #: the last window's flow network, rebuilt per window
        self.last_network: LayeredNetwork | None = None

    # ------------------------------------------------------------------
    def _place_window(
        self,
        window_blocks: list[list[Container]],
        state: ClusterState,
        planner: RescuePlanner,
        result: ScheduleResult,
    ) -> None:
        with result.telemetry.phase("search"):
            self._search_window(window_blocks, state, planner, result)

    def _repair(
        self,
        containers: list[Container],
        state: ClusterState,
        planner: RescuePlanner,
        result: ScheduleResult,
    ) -> None:
        # The repair moves machine loads outside the network; re-truthify
        # the touched sink residuals of the last window's network.
        since = state.cursor()
        super()._repair(containers, state, planner, result)
        _patch_residuals(self.last_network, state, since)

    def _search_window(
        self,
        window_blocks: list[list[Container]],
        state: ClusterState,
        planner: RescuePlanner,
        result: ScheduleResult,
    ) -> None:
        flat = [c for block in window_blocks for c in block]
        network = build_layered_network(flat, state)
        self.last_network = network
        blacklist = BlacklistFunction(state)
        requeue: list[Container] = []

        # Per-application pruning state for IL.
        dead_apps: dict[int, FailureReason] = {}

        tele = result.telemetry
        for block in window_blocks:
            app_id = block[0].app_id
            demand = block[0].demand_vector(state.topology.resources)
            for container in block:
                if app_id in dead_apps:
                    result.undeployed[container.container_id] = dead_apps[app_id]
                    if tele is not None:
                        tele.il_prune_hits += 1
                    continue
                machine = self._find_path(
                    container, demand, state, network, blacklist, result
                )
                if machine is None:
                    since = state.cursor()
                    outcome = planner.rescue(container, demand)
                    result.explored += outcome.explored
                    if outcome.ok and state.would_violate(
                        container, outcome.machine_id
                    ):
                        # Defensive, mirrors the vectorised engine: a
                        # rescue target the constraints still forbid is
                        # a failure, not a placement.
                        outcome.machine_id = None
                        outcome.failure = FailureReason.ANTI_AFFINITY
                    if outcome.ok:
                        result.migrations += outcome.migrations
                        result.preemptions += len(outcome.preempted)
                        requeue.extend(outcome.preempted)
                        machine = outcome.machine_id
                        state.deploy(container, machine, demand)
                        result.placements[container.container_id] = machine
                        # Rescue mutated machine loads outside the
                        # network; only the touched machines' sink
                        # residuals can have gone stale (interior edges
                        # are infinite), so patch those in place instead
                        # of rebuilding the whole network per rescue.
                        _patch_residuals(network, state, since)
                        continue
                    result.undeployed[container.container_id] = outcome.failure
                    if self.config.enable_il:
                        dead_apps[app_id] = outcome.failure
                    continue
                self._augment(container, demand, machine, network)
                state.deploy(container, machine, demand)
                result.placements[container.container_id] = machine
            if self.config.gang_scheduling:
                # The same retraction as the vectorised engine's; the
                # evicted siblings' flow stays pushed, so re-truthify
                # the sink residuals of the machines they left.
                since = state.cursor()
                self._roll_back_block(block, state, result)
                _patch_residuals(network, state, since)

        if requeue:
            # Same victim re-placement pass as the vectorised engine —
            # including its migration fallback — so tight clusters where
            # a victim no longer fits anywhere directly cannot make the
            # engines drift.  Rescues mutate machines behind the
            # network's back; re-truthify the touched sink residuals.
            since = state.cursor()
            drain_requeue(requeue, state, planner, result)
            _patch_residuals(network, state, since)

    # ------------------------------------------------------------------
    def _find_path(
        self,
        container: Container,
        demand: np.ndarray,
        state: ClusterState,
        network: LayeredNetwork,
        blacklist: BlacklistFunction,
        result: ScheduleResult,
    ) -> int | None:
        """Explore machine paths packed-first; DL stops at the first hit.

        The exploration order is the same total order as the vectorised
        engine's (`_scores`): affinity tier, packing level, machine id.

        With isomorphism limiting the per-machine admission test is
        answered by one vectorised admit mask
        (:func:`~repro.core.scheduler.feasible_mask`) instead of
        evaluating the ``VectorCapacity`` + blacklist pair machine by
        machine; the admitted set is identical — ``capacity.admits``
        *is* Equation 6 ∧ Equation 8, which is exactly what
        ``ClusterState.feasible_mask`` vectorises.  On that path the
        exploration order comes from the incrementally maintained
        :class:`~repro.core.machindex.MachineIndex` restricted to the
        admit mask — no per-container ``argsort`` over every machine —
        and the first candidate *is* the answer, since every entry of
        the restricted order is admitted by construction.
        """
        cfg = self.config
        tele = result.telemetry
        if cfg.enable_il:
            admit = feasible_mask(state, demand, container.app_id, result)
            order = self.machine_index.candidates(
                state, admit, state.affinity_mask(container.app_id)
            )
            if tele is not None:
                tele.machines_skipped += state.n_machines - int(order.size)
            if order.size == 0:
                return None
            if cfg.enable_dl:
                result.explored += 1
                if tele is not None:
                    tele.dl_prune_hits += 1
            else:
                # No DL: the whole admitted candidate set is the honest
                # exploration cost; the winner is unchanged.
                result.explored += int(order.size)
            return int(order[0])

        order = np.argsort(
            _scores(
                state,
                np.arange(state.n_machines),
                state.affinity_mask(container.app_id),
            ),
            kind="stable",
        )
        chosen: int | None = None
        for machine_id in order:
            machine_id = int(machine_id)
            result.explored += 1
            capacity = VectorCapacity(
                state.available[machine_id],
                predicate=lambda _d, ctx: blacklist.admits(
                    container.app_id, ctx
                ),
            )
            if capacity.admits(demand, machine_id):
                if chosen is None:
                    chosen = machine_id
                if cfg.enable_dl:
                    if tele is not None:
                        tele.dl_prune_hits += 1
                    break
        return chosen

    def _augment(
        self,
        container: Container,
        demand: np.ndarray,
        machine_id: int,
        network: LayeredNetwork,
    ) -> None:
        """Push the container's flow along its accepted path."""
        net = network.net
        flow = demand[0]
        rack = int(network.topology.rack_of[machine_id])
        cluster = int(network.topology.cluster_of[machine_id])
        t_node = network.task_node[container.container_id]
        a_node = network.app_node[container.app_id]
        g_node = network.cluster_node[cluster]
        r_node = network.rack_node[rack]
        n_node = network.machine_node[machine_id]
        net.push(network.task_edge[container.container_id], flow)
        self._push_between(net, t_node, a_node, flow)
        self._push_between(net, a_node, g_node, flow)
        self._push_between(net, g_node, r_node, flow)
        self._push_between(net, r_node, n_node, flow)
        net.push(network.machine_edge[machine_id], flow)

    @staticmethod
    def _push_between(net, tail: int, head: int, flow: float) -> None:
        """Push along the unique forward edge tail → head."""
        for i in net.adj[tail]:
            if i % 2 == 0 and net.edges[i].head == head:
                net.push(i, flow)
                return
        raise ValueError(f"no forward edge {tail} -> {head}")

    def validate(self) -> None:
        """Assert the accumulated flow on the last window is feasible."""
        if self.last_network is None:
            raise RuntimeError("no window has been scheduled yet")
        validate_flow(
            self.last_network.net,
            self.last_network.source,
            self.last_network.sink,
        )


def _patch_residuals(
    network: LayeredNetwork,
    state: ClusterState,
    since: StateCursor,
    flow_dim: int = 0,
) -> None:
    """Re-truthify the sink residuals of machines touched after ``since``.

    Every interior edge of the layered network is infinite; only the
    machine → sink edges carry state-dependent capacity, so a rescue
    that migrates or preempts containers can only stale *those* — and
    only for the machines the state's change feed reports as touched.
    Setting ``capacity = flow + available`` keeps the already-pushed
    flow feasible (``validate_flow`` stays green: flow ≤ capacity by
    construction) while restoring the invariant ``residual ==
    state.available[m, flow_dim]`` that :meth:`FlowPathSearch._augment`
    relies on for subsequent pushes.  The feed's raw slice may repeat a
    machine, and re-patching it changes nothing — which is also why,
    when the feed answers "rebuild", patching every machine is safe.
    """
    touched = state.advance(since)
    if touched is None:
        touched = range(state.n_machines)
    net = network.net
    for m in touched:
        edge = net.edges[network.machine_edge[int(m)]]
        edge.capacity = edge.flow + float(state.available[int(m), flow_dim])
