"""The per-machine rescue loop: the oracle of the rescue kernel.

Before :class:`~repro.core.rescuekernel.RescueKernel` planned every
rescue, :class:`~repro.core.migration.RescuePlanner` ran the Section
III.B strategies — blocker migration, consolidation, preemption — as
the plain loops below: a full-cluster ``(available >= demand)`` scan
per attempt, a fresh resident list and sort per candidate machine, and
a copy of ``available`` per relocation query.  The kernel replans the
same decisions on its cached substrate; this module keeps the loop as
the from-scratch reference it is checked against.

:class:`RescueLoop` has the kernel's entry point, so a test substitutes
it through the planner's seam::

    RescuePlanner(state, config, kernel=RescueLoop())
    loop_rescue(engine)   # engine.rescue_kernel = RescueLoop()

and the two are compared decision for decision: the machine freed, the
victims in order, the failure verdict and ``scanned``.  ``explored``
is a cost and legitimately differs.
"""

from __future__ import annotations

import numpy as np

from repro.base import FailureReason
from repro.cluster.container import Container
from repro.core.machindex import packing_keys
from repro.core.rescuekernel import RescueOutcome, _rack_blocked


def loop_rescue(engine):
    """``engine`` with its rescues planned by :class:`RescueLoop`
    instead of its rescue kernel."""
    engine.rescue_kernel = RescueLoop()
    return engine


class RescueLoop:
    """The per-machine strategies, planning for whichever planner calls.

    :meth:`rescue_plan` binds the calling planner's state, config and
    Equation 9 guard weights, then runs the loop; the strategies read
    them as ``self.state``, ``self.config`` and ``self.weights``.
    """

    def rescue_plan(self, planner, container, demand, allow_preemption, exhaustive):
        self.state = planner.state
        self.config = planner.config
        self.weights = planner.weights
        return self._rescue(container, demand, allow_preemption, exhaustive)

    def _weighted_flow(self, container: Container) -> float:
        return self.weights.get(container.priority, 1.0) * container.cpu

    def _rescue(
        self,
        container: Container,
        demand: np.ndarray,
        allow_preemption: bool,
        exhaustive: bool,
    ) -> RescueOutcome:
        out = RescueOutcome()
        fits = (self.state.available >= demand).all(axis=1)
        forbidden = self.state.forbidden_mask(container.app_id)
        out.explored += self.state.n_machines

        if self.config.enable_migration:
            machine = self._migrate_blockers(
                container, fits & forbidden, out, exhaustive=exhaustive
            )
            if machine is None:
                machine = self._consolidate(
                    container, demand, ~fits & ~forbidden, out, exhaustive=exhaustive
                )
            if machine is not None:
                out.machine_id = machine
                return out
        if allow_preemption and self.config.enable_preemption:
            machine = self._preempt(container, demand, out)
            if machine is not None:
                out.machine_id = machine
                return out

        # Classify the failure for the Fig. 9(e) breakdown: anti-affinity
        # when resources existed somewhere but every such machine was
        # blacklisted; resource exhaustion otherwise.
        blocked_only_by_affinity = bool((fits & forbidden).any()) and not bool(
            (fits & ~forbidden).any()
        )
        out.failure = (
            FailureReason.ANTI_AFFINITY
            if blocked_only_by_affinity
            else FailureReason.RESOURCES
        )
        return out

    # ------------------------------------------------------------------
    # strategy 1: move anti-affinity blockers off a machine that has room
    # ------------------------------------------------------------------
    def _migrate_blockers(
        self,
        container: Container,
        candidates: np.ndarray,
        out: RescueOutcome,
        exhaustive: bool = False,
    ) -> int | None:
        state = self.state
        cs = state.constraints
        # Machines with few residents come first: fewer blockers to
        # relocate means a higher chance the whole plan lands.
        ids = np.flatnonzero(candidates)
        order = ids[np.argsort(state.container_count[ids], kind="stable")]
        if not exhaustive:
            order = order[: max(1, self.config.migration_candidates)]
        for machine_id in order:
            machine_id = int(machine_id)
            out.explored += 1
            out.scanned += 1
            blockers = [
                c
                for c in state.deployed_containers(machine_id)
                if cs.violates(container.app_id, c.app_id)
            ]
            if not blockers:
                continue
            if not exhaustive and (
                len(blockers) > self.config.max_migrations_per_container
            ):
                continue
            # Rack-scoped within-rules: relocating this machine's
            # residents cannot clear a conflict seated on a rack-mate.
            if _rack_blocked(state, container.app_id, machine_id):
                continue
            moves = self._plan_relocations(blockers, exclude=machine_id, out=out)
            if moves is None:
                continue
            for blocker, target in moves:
                state.migrate(blocker.container_id, target)
                out.migrations += 1
            return machine_id
        return None

    # ------------------------------------------------------------------
    # strategy 2: consolidate small containers away to free resources
    # (the Fig. 7 rescheduling example)
    # ------------------------------------------------------------------
    def _consolidate(
        self,
        container: Container,
        demand: np.ndarray,
        candidates: np.ndarray,
        out: RescueOutcome,
        exhaustive: bool = False,
    ) -> int | None:
        state = self.state
        # Roomiest machines first: they need the fewest relocations.
        order = self._packed_first(candidates)[::-1]
        if not exhaustive:
            # max(1, …) like every other strategy bound: candidates=0
            # means "cheapest possible scan", not "skip consolidation
            # while migration still scans one machine".
            order = order[: max(1, self.config.migration_candidates)]
        mover_limit = (
            state.n_machines if exhaustive else self.config.max_migrations_per_container
        )
        for machine_id in order:
            out.explored += 1
            out.scanned += 1
            shortfall = demand - state.available[machine_id]
            movers: list[Container] = []
            freed = np.zeros_like(demand)
            # Move low-priority, small containers first.
            residents = sorted(
                state.deployed_containers(machine_id),
                key=lambda c: (c.priority, c.cpu),
            )
            for resident in residents:
                if (freed >= shortfall).all():
                    break
                movers.append(resident)
                freed = freed + resident.demand_vector(state.topology.resources)
                if len(movers) > mover_limit:
                    break
            if not (freed >= shortfall).all():
                continue
            if len(movers) > mover_limit:
                continue
            moves = self._plan_relocations(movers, exclude=machine_id, out=out)
            if moves is None:
                continue
            for mover, target in moves:
                state.migrate(mover.container_id, target)
                out.migrations += 1
            return machine_id
        return None

    # ------------------------------------------------------------------
    # strategy 3: evict strictly lower-priority containers
    # ------------------------------------------------------------------
    def _preempt(
        self, container: Container, demand: np.ndarray, out: RescueOutcome
    ) -> int | None:
        """Free a machine at the expense of strictly lower-priority pods.

        Fig. 3(b)'s lesson applies here too: a displaced container that
        *can* run elsewhere should be migrated, not killed.  Victims
        are therefore relocated when any admitting machine exists and
        only evicted (re-queued by the scheduler) when the cluster
        genuinely has no room for them right now.
        """
        state = self.state
        cs = state.constraints
        scanned = 0
        for machine_id in self._packed_first(np.ones(state.n_machines, dtype=bool)):
            if scanned >= max(1, self.config.migration_candidates) * 4:
                break
            scanned += 1
            out.explored += 1
            out.scanned += 1
            residents = state.deployed_containers(machine_id)
            blockers = [
                c for c in residents if cs.violates(container.app_id, c.app_id)
            ]
            if any(c.priority >= container.priority for c in blockers):
                continue  # cannot displace an equal-or-higher priority blocker
            # Rack-scoped within-rules: evicting this machine's residents
            # cannot clear a conflict seated on a rack-mate.
            if _rack_blocked(state, container.app_id, machine_id):
                continue
            victims = list(blockers)
            freed = sum(
                (v.demand_vector(state.topology.resources) for v in victims),
                np.zeros_like(demand),
            )
            if not ((state.available[machine_id] + freed) >= demand).all():
                lower = sorted(
                    (
                        c
                        for c in residents
                        if c.priority < container.priority and c not in victims
                    ),
                    key=lambda c: (c.priority, c.cpu),
                )
                for extra in lower:
                    victims.append(extra)
                    freed = freed + extra.demand_vector(state.topology.resources)
                    if ((state.available[machine_id] + freed) >= demand).all():
                        break
            if not ((state.available[machine_id] + freed) >= demand).all():
                continue
            # Equation 9 guard: admitting this container must add more
            # weighted flow than the worst case of losing every victim.
            if self.weights and sum(
                self._weighted_flow(v) for v in victims
            ) >= self._weighted_flow(container):
                continue
            # Relocate what can be relocated, evict the rest.
            moves = self._plan_relocations(victims, exclude=machine_id, out=out)
            if moves is not None:
                for victim, target in moves:
                    state.migrate(victim.container_id, target)
                    out.migrations += 1
                return machine_id
            for victim in victims:
                target = self._relocation_target(victim, exclude=machine_id, out=out)
                if target is not None:
                    state.migrate(victim.container_id, target)
                    out.migrations += 1
                else:
                    state.evict(victim.container_id)
                    out.preempted.append(victim)
            return machine_id
        return None

    def _relocation_target(
        self, mover: Container, exclude: int, out: RescueOutcome
    ) -> int | None:
        """Best single-container relocation target, or ``None``."""
        state = self.state
        demand = mover.demand_vector(state.topology.resources)
        ok = (state.available >= demand).all(axis=1)
        ok &= ~state.forbidden_mask(mover.app_id)
        ok[exclude] = False
        out.explored += 1
        ids = np.flatnonzero(ok)
        if ids.size == 0:
            return None
        return int(ids[np.argmin(state.available[ids, 0])])

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _packed_first(self, mask: np.ndarray) -> np.ndarray:
        """Candidate machine ids, most-packed (least available CPU) first.

        Sorted by the canonical packing key of
        :func:`~repro.core.machindex.packing_keys` — the same total
        order the incrementally maintained machine index serves the
        rescue kernel, so the two paths agree machine for machine.
        (The key folds the id tie-break into the score; it only differs
        from a plain ``(cpu, id)`` lexicographic sort for sub-unit
        fractional CPU gaps, where either order is a valid packing.)
        """
        ids = np.flatnonzero(mask)
        if ids.size == 0:
            return ids
        order = np.argsort(packing_keys(self.state, ids), kind="stable")
        return ids[order]

    def _plan_relocations(
        self, movers: list[Container], exclude: int, out: RescueOutcome
    ) -> list[tuple[Container, int]] | None:
        """Find a distinct-target relocation per mover, or ``None``.

        Targets are chosen most-packed-first among machines that fit the
        mover's demand and respect *its* constraints.  Reservations are
        tracked so two movers do not race for the last slot on one
        machine.
        """
        state = self.state
        reserved: dict[int, np.ndarray] = {}
        plan: list[tuple[Container, int]] = []
        for mover in movers:
            demand = mover.demand_vector(state.topology.resources)
            avail = state.available.copy()
            for m, used in reserved.items():
                avail[m] = avail[m] - used
            ok = (avail >= demand).all(axis=1)
            ok &= ~state.forbidden_mask(mover.app_id)
            ok[exclude] = False
            for mover_prev, target_prev in plan:
                if state.constraints.violates(mover.app_id, mover_prev.app_id):
                    ok[target_prev] = False
            ids = np.flatnonzero(ok)
            out.explored += 1
            if ids.size == 0:
                return None
            target = ids[np.argmin(avail[ids, 0])]
            plan.append((mover, int(target)))
            reserved[int(target)] = reserved.get(
                int(target), np.zeros_like(demand)
            ) + demand
        return plan
