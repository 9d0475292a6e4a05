"""AladdinScheduler — the end-to-end scheduler (Algorithm 1).

The scheduler consumes the arrival stream in *windows* of applications
(containers of one LLA are submitted together).  Within a window it
processes applications by descending weighted flow — the Equation 3–5
priority weighting — so a high-priority container can never be displaced
by a lower-priority one arriving in the same window; priority pressure
*across* windows is handled by the migration/preemption mechanisms.

Per application, the placement search realises Algorithm 1 with the two
prunings of Section IV.A:

* **Isomorphism limiting (IL)** — all containers of an application are
  identical, so machine feasibility (multidimensional capacity dominance
  plus the Equation 7–8 blacklist) is evaluated once per application,
  and one exhausted search kills the whole application's window.
* **Depth limiting (DL)** — containers are impartible, so the search for
  a container stops at its first admitting machine (a single ``argmin``
  over the packed-first score instead of a full candidate ordering).

With both prunings on, the per-container walk collapses further into
the **batched placement kernel** (:mod:`repro.core.batchkernel`): the
block's placement runs are read off per-machine fit quotas over the
incrementally maintained packed-first index
(:mod:`repro.core.machindex`) in one in-order walk.  Depth limiting
bounds what that walk reads: a block of k containers takes its machines
from the first k admitting candidates, so the kernel is handed a raw
window of the order sized from k — O(k) per block, not O(m) — checks
Equation 6 on it in one vectorised step and Equations 7–8 only up to
the machine that takes the k-th container, and no cluster-wide admit
mask is built.  An affinity-tiered block, whose tier reorders the whole
order, hands the kernel the full order over a cluster-wide mask.  What
the kernel cannot place — a block's overflow once every quota is
drained — walks the per-container path (:class:`_CandidateWalk`) into
rescue, and so does every block of the IL-only ablation.

Every cluster-wide admit mask either engine builds is read live from
the state by :func:`feasible_mask` — Equation 6 ∧ ¬(Equations 7–8), one
vectorised pass — and charged one unit per machine to ``explored``.
Nothing about feasibility is carried from one round to the next.

Disabling either pruning performs the exact extra work it avoids —
per-container feasibility recomputation without IL, a full candidate
ordering per container without DL — while provably producing identical
placements (the tie-breaking score is total), which is how the Fig. 12
latency ablation measures their cost honestly.

Machine preference is most-packed-first (minimum remaining CPU, machine
id as tie-break), which directly serves the paper's resource-efficiency
objective of minimising the number of used machines.

Both engines — this one and the flow-network reference
:class:`~repro.core.search.FlowPathSearch` — share one lifecycle,
:class:`AladdinEngine`: the cross-round ledgers and their checkpoint,
the round's weights and rescue planner, the window loop and the final
repair.  An engine supplies only how it places one window.
"""

from __future__ import annotations

import abc
import itertools
import time
from operator import attrgetter

import numpy as np

from repro import telemetry
from repro.base import FailureReason, ScheduleResult, Scheduler
from repro.cluster.container import Container
from repro.cluster.state import ClusterState
from repro.core.batchkernel import block_plan
from repro.core.config import AladdinConfig
from repro.core.machindex import MachineIndex, affinity_tier, packing_keys
from repro.core.migration import RescuePlanner
from repro.core.rescuekernel import RescueKernel
from repro.core.weights import derive_priority_weights


class AladdinEngine(Scheduler):
    """The lifecycle both placement engines share.

    A round groups the stream into application blocks, derives the
    Equation 3–5 weights, places the blocks window by window in
    weighted-flow order (:meth:`_place_window`, the one thing an engine
    supplies), and ends with the exhaustive repair pass.  The ledgers
    that outlive a round — the machine index and the rescue kernel —
    live here, and so does their checkpoint.
    """

    def __init__(self, config: AladdinConfig | None = None) -> None:
        self.config = config if config is not None else AladdinConfig()
        self.name = self.config.variant_name()
        #: priority-class weights derived for the last scheduled stream
        self.last_weights: dict[int, float] = {}
        #: incrementally maintained packed-first machine ordering
        self.machine_index = MachineIndex()
        #: rescue planning (migration, consolidation, preemption) on
        #: the machine index and a resident ledger
        self.rescue_kernel = RescueKernel()

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Image of the cross-round ledgers, for a snapshot payload.

        The ledgers are the warm state a restart would otherwise rebuild
        cold, and a cold rebuild is not only slower but *observably
        different* — the machine index reports ``index_resyncs``
        telemetry on incremental resyncs and none on rebuilds, and the
        rescue memos replay stored ``explored`` charges — so
        bit-identical resumption requires persisting them.  Anything an
        engine rebuilds per window (the flow engine's ``last_network``)
        carries no cross-round charges and is not persisted.
        """
        return {
            "machine_index": self.machine_index.checkpoint(),
            "rescue_kernel": self.rescue_kernel.checkpoint(),
        }

    def restore_checkpoint(self, payload: dict, state: ClusterState) -> None:
        """Adopt a :meth:`checkpoint` image against a restored ``state``.

        Every ledger is rebound to the restored state's fresh uid; the
        persisted sync versions stay valid because the state checkpoint
        carries the dirty log verbatim.  A component the image lacks
        starts cold — a full resync on first use, never silent
        corruption.  An engine that could still plan rescues with the
        per-machine loop wrote ``"rescue_kernel": None`` in that mode:
        the kernel then starts cold, and the resumed run makes the
        decisions the uninterrupted one makes (its memos replay only
        cost charges).  Older images may also carry a ``batch_placed``
        count, a rack-sharded sweep's ``parallel`` entry or a
        feasibility cache's image; all three are ignored.
        """
        self.machine_index.restore(payload["machine_index"], state.state_uid)
        kernel_image = payload.get("rescue_kernel")
        if kernel_image is not None:
            self.rescue_kernel.restore(kernel_image, state)

    @classmethod
    def from_checkpoint(
        cls,
        payload: dict,
        state: ClusterState,
        config: AladdinConfig | None = None,
    ) -> "AladdinEngine":
        """Build an engine whose ledgers resume from ``payload``.

        ``config`` must match the configuration the checkpoint was
        taken under for the resumed run to be bit-identical.
        """
        engine = cls(config)
        engine.restore_checkpoint(payload, state)
        return engine

    # ------------------------------------------------------------------
    def schedule(
        self, containers: list[Container], state: ClusterState
    ) -> ScheduleResult:
        t0 = time.perf_counter()
        result = ScheduleResult()
        result.telemetry = telemetry.SchedulerTelemetry()
        with telemetry.collect(result.telemetry):
            self._schedule(containers, state, result)
        result.elapsed_s = time.perf_counter() - t0
        return result

    def _schedule(
        self,
        containers: list[Container],
        state: ClusterState,
        result: ScheduleResult,
    ) -> None:
        blocks = _group_blocks(containers)
        self.last_weights = _derive_weights_for(blocks, self.config)
        # The preemption guard uses the *minimal* compliant weights
        # (base 1): it admits a preemption only when the weighted-flow
        # gain holds under every Equation-5-compliant weighting, which
        # makes rescue outcomes invariant across the paper's
        # 16/32/64/128 base sweep.
        guard_weights = _derive_weights_for(blocks, self.config, base=1.0)
        planner = RescuePlanner(
            state,
            self.config,
            guard_weights,
            machine_index=self.machine_index,
            kernel=self.rescue_kernel,
        )

        window = self.config.window_apps
        for start in range(0, len(blocks), window):
            # Weighted-flow order: highest priority class first; stable
            # within a class, preserving the arrival characteristic.
            window_blocks = sorted(
                blocks[start : start + window],
                key=lambda b: -self.last_weights[b[0].priority],
            )
            self._place_window(window_blocks, state, planner, result)
        if self.config.final_repair and result.undeployed:
            self._repair(containers, state, planner, result)
        # Rescue migrations move already-placed containers; re-read their
        # final machine from the authoritative state.  Telemetry counts
        # every migration a rescue made, whether its own container was
        # placed or not.
        if result.telemetry.rescue_migrations:
            for cid in result.placements:
                result.placements[cid] = state.assignment[cid]

    @abc.abstractmethod
    def _place_window(
        self,
        window_blocks: list[list[Container]],
        state: ClusterState,
        planner: RescuePlanner,
        result: ScheduleResult,
    ) -> None:
        """Place one window's blocks, already in weighted-flow order,
        and re-place the window's preemption victims."""

    def _repair(
        self,
        containers: list[Container],
        state: ClusterState,
        planner: RescuePlanner,
        result: ScheduleResult,
    ) -> None:
        """The round's exhaustive repair pass (:func:`final_repair`)."""
        with result.telemetry.phase("repair"):
            final_repair(containers, state, planner, result)

    # ------------------------------------------------------------------
    @staticmethod
    def _roll_back_block(
        block: list[Container], state: ClusterState, result: ScheduleResult
    ) -> None:
        """Gang semantics: a partially placed application is retracted.

        If any container of the block went undeployed, its
        already-placed siblings are evicted and every container of the
        block is reported undeployed with the reason that stopped the
        gang.  Rescue side effects (migrations of *other* containers)
        stay — those containers remain validly deployed elsewhere.
        """
        reason = next(
            (
                result.undeployed[c.container_id]
                for c in block
                if c.container_id in result.undeployed
            ),
            None,
        )
        if reason is None:
            return
        for container in block:
            cid = container.container_id
            if cid in result.placements:
                state.evict(cid)
                del result.placements[cid]
            result.undeployed[cid] = reason


class AladdinScheduler(AladdinEngine):
    """The paper's scheduler; see the module docstring for semantics."""

    def _place_window(
        self,
        window_blocks: list[list[Container]],
        state: ClusterState,
        planner: RescuePlanner,
        result: ScheduleResult,
    ) -> None:
        tele = result.telemetry
        requeue: list[Container] = []
        with tele.phase("search"):
            for block in window_blocks:
                self._place_block(block, state, planner, result, requeue)
        with tele.phase("requeue"):
            drain_requeue(requeue, state, planner, result)

    # ------------------------------------------------------------------
    def _batch_place(
        self,
        block: list[Container],
        state: ClusterState,
        demand: np.ndarray,
        mask: np.ndarray,
        affinity: np.ndarray | None,
        result: ScheduleResult,
    ) -> int:
        """Deploy the block's prefix from one kernel walk.

        ``mask`` is the block's full admit mask when ``affinity`` tiers
        its order, and ``None`` otherwise.  Returns the number of
        containers placed.  Anything short of the full block means every
        candidate quota is exhausted; the caller routes the remainder
        through the rescue path.
        """
        app_id = block[0].app_id
        cs = state.constraints
        scope = cs.within_scope(app_id) if cs.has_within(app_id) else None
        k = len(block)
        index = self.machine_index
        if mask is not None:
            # The affinity tier reorders across the whole order.
            order = index.candidates(state, mask, affinity)
            machines, counts = block_plan(state, demand, app_id, order, k, scope)
        else:
            # Depth limiting: a block of k reads at most k candidates, so
            # the kernel walks a window of the order sized from k, not the
            # cluster, and each position of it is charged to ``explored``.
            # Every scope consumes candidates strictly in order — a full
            # plan from a prefix *is* the plan from the whole list — so
            # the window only widens when the plan came up short with
            # more of the order left to read.
            limit = max(64, 2 * k)
            while True:
                window = index.candidates(state, min_cpu=demand[0], limit=limit)
                result.explored += window.size
                machines, counts = block_plan(
                    state, demand, app_id, window, k, scope
                )
                if sum(counts) == k or index.last_complete:
                    break
                limit *= 4
        placed = sum(counts)
        committed = block[:placed]
        # Commit the planned runs in one batched mutation, unexpanded —
        # the kernel established feasibility, so the block path skips
        # the scalar per-container prechecks.
        state.deploy_block(committed, machines, counts, demand)
        cids = [c.container_id for c in committed]
        runs = map(itertools.repeat, machines, counts)
        result.placements.update(zip(cids, itertools.chain(*runs)))
        # One examined machine per placement, mirroring the DL walk's
        # per-container O(1) charge.
        result.explored += placed
        tele = result.telemetry
        if tele is not None:
            tele.batch_kernel_invocations += 1
            tele.dl_prune_hits += placed
            tele.machines_skipped += state.n_machines - len(machines)
        return placed

    # ------------------------------------------------------------------
    def _place_block(
        self,
        block: list[Container],
        state: ClusterState,
        planner: RescuePlanner,
        result: ScheduleResult,
        requeue: list[Container],
    ) -> None:
        """Place one application's containers from the current window."""
        cfg = self.config
        app_id = block[0].app_id
        demand = block[0].demand_vector(state.topology.resources)
        within = state.constraints.has_within(app_id)

        affinity = state.affinity_mask(app_id)
        candidates: _CandidateWalk | None = None
        pending = block
        if cfg.enable_il:
            # The batch kernel evaluates its own window; a full mask
            # is built only for what reads the whole cluster — an
            # affinity-tiered block and the IL-only walk.
            mask = (
                feasible_mask(state, demand, app_id, result)
                if affinity is not None or not cfg.enable_dl
                else None
            )
            if cfg.enable_dl:
                placed = self._batch_place(
                    block, state, demand, mask, affinity, result
                )
                pending = block[placed:]
                if pending:
                    # The kernel drained every quota: the overflow
                    # containers walk a mask of the state as it is
                    # now (empty bar rounding), so they fall straight
                    # through to rescue, as the per-container walk
                    # would at this exact point.
                    mask = feasible_mask(state, demand, app_id, result)
            if pending:
                candidates = _CandidateWalk(
                    state, demand, mask, within, cfg.enable_dl, affinity=affinity
                )

        tele = result.telemetry
        dead_reason: FailureReason | None = None
        for container in pending:
            if dead_reason is not None:
                # IL: an identical sibling already failed search + rescue
                # against unchanged state; skip without re-searching.
                result.undeployed[container.container_id] = dead_reason
                if tele is not None:
                    tele.il_prune_hits += 1
                continue

            if cfg.enable_il:
                machine = candidates.next_machine()
                result.explored += candidates.last_cost
                # Rescues mutate machines behind the walk's back; skip
                # entries that went stale (lost capacity or gained a
                # conflicting resident) instead of trusting them.
                while machine is not None and not (
                    state.fits(demand, machine)
                    and not state.would_violate(container, machine)
                ):
                    candidates.invalidate(machine)
                    machine = candidates.next_machine()
                    result.explored += candidates.last_cost
            else:
                # No IL: the per-container feasibility recomputation is
                # the exact redundant work the pruning avoids.
                mask = feasible_mask(state, demand, app_id, result)
                machine = _pick_machine(state, mask, cfg.enable_dl, affinity=affinity)
                result.explored += int(mask.sum()) if not cfg.enable_dl else 1

            if machine is None:
                outcome = planner.rescue(container, demand)
                result.explored += outcome.explored
                if outcome.ok and state.would_violate(
                    container, outcome.machine_id
                ):
                    # Defensive: a rescue must never hand back a machine
                    # the constraints still forbid (e.g. a rack-scope
                    # conflict the per-machine strategies cannot see).
                    outcome.machine_id = None
                    outcome.failure = FailureReason.ANTI_AFFINITY
                if outcome.ok:
                    result.migrations += outcome.migrations
                    result.preemptions += len(outcome.preempted)
                    requeue.extend(outcome.preempted)
                    state.deploy(container, outcome.machine_id, demand)
                    result.placements[container.container_id] = outcome.machine_id
                    if cfg.enable_il:
                        # The rescue moved containers around: the block's
                        # mask is stale, so it is rebuilt from live state
                        # (the rebuild cost is charged to `explored`).
                        mask = feasible_mask(state, demand, app_id, result)
                        candidates = _CandidateWalk(
                            state, demand, mask, within, cfg.enable_dl,
                            affinity=state.affinity_mask(app_id),
                        )
                    continue
                result.undeployed[container.container_id] = outcome.failure
                if cfg.enable_il:
                    dead_reason = outcome.failure
                continue

            state.deploy(container, machine, demand)
            result.placements[container.container_id] = machine

        if cfg.gang_scheduling:
            self._roll_back_block(block, state, result)


# ----------------------------------------------------------------------
# engine-shared feasibility and rescue passes
# ----------------------------------------------------------------------
def feasible_mask(
    state: ClusterState,
    demand: np.ndarray,
    app_id: int,
    result: ScheduleResult,
) -> np.ndarray:
    """Equation 6 ∧ ¬(Equations 7–8) over the whole cluster, read live.

    Every cluster-wide admit mask of both engines comes through here —
    affinity-tiered blocks, a block's overflow and its rebuild after a
    rescue, the per-container walk, the requeue and repair passes and
    the flow engine's admission test — and each charges one unit per
    machine to ``explored``.  The batch kernel's windows do not: they
    evaluate Equations 6–8 on their own positions.
    """
    result.explored += state.n_machines
    return state.feasible_mask(demand, app_id)


def drain_requeue(
    requeue: list[Container],
    state: ClusterState,
    planner: RescuePlanner,
    result: ScheduleResult,
) -> None:
    """Re-place preemption victims at the end of the window.

    Victims may rescue via migration but not by preempting again —
    preemption chains are cut at depth one, which is safe because a
    victim is strictly lower priority than its preemptor.

    Shared by both engines, for the same reason as :func:`final_repair`:
    the flow engine used to drop a victim the moment no machine admitted
    it directly, while the vectorised engine migrated to make room — on
    a tight cluster that single asymmetry makes the engines' placements
    drift apart for the rest of the run.
    """
    for container in requeue:
        demand = container.demand_vector(state.topology.resources)
        mask = feasible_mask(state, demand, container.app_id, result)
        machine = _pick_machine(state, mask, dl=True)
        if machine is None:
            outcome = planner.rescue(container, demand, allow_preemption=False)
            result.explored += outcome.explored
            if outcome.ok:
                result.migrations += outcome.migrations
                machine = outcome.machine_id
        if machine is None:
            # The victim was deployed once; retract that placement.
            result.placements.pop(container.container_id, None)
            result.undeployed[container.container_id] = FailureReason.PREEMPTED
            continue
        state.deploy(container, machine, demand)
        # A victim that lands again was migrated, in effect.
        prev = result.placements.get(container.container_id)
        result.placements[container.container_id] = machine
        if prev is not None and prev != machine:
            result.migrations += 1


def final_repair(
    containers: list[Container],
    state: ClusterState,
    planner: RescuePlanner,
    result: ScheduleResult,
) -> None:
    """Exhaustively retry every undeployed container (Fig. 7 spirit).

    Highest priority first; each retry gets an unbounded rescue
    scan.  Preemption stays off — repairing one failure by creating
    another is not progress.

    Shared by both engines: the repair decisions depend only on the
    cluster state, so running the identical pass from
    :class:`~repro.core.search.FlowPathSearch` keeps the engines'
    placements indistinguishable — the cross-engine property test found
    a workload where an Aladdin-only repair pass made the two diverge.
    """
    config = planner.config
    by_id = {c.container_id: c for c in containers}
    pending = sorted(
        result.undeployed,
        key=lambda cid: -by_id[cid].priority if cid in by_id else 0,
    )
    # Under gang semantics the repair must keep applications atomic:
    # retry whole app groups and retract partial successes.
    groups: list[list[int]] = []
    seen_apps: dict[int, int] = {}
    for cid in pending:
        container = by_id.get(cid)
        if container is None:
            continue
        if config.gang_scheduling:
            slot = seen_apps.get(container.app_id)
            if slot is None:
                seen_apps[container.app_id] = len(groups)
                groups.append([cid])
            else:
                groups[slot].append(cid)
        else:
            groups.append([cid])

    for group in groups:
        placed_now: list[int] = []
        failed = False
        for cid in group:
            container = by_id[cid]
            demand = container.demand_vector(state.topology.resources)
            mask = feasible_mask(state, demand, container.app_id, result)
            machine = _pick_machine(state, mask, dl=True)
            if machine is None:
                outcome = planner.rescue(
                    container, demand, allow_preemption=False, exhaustive=True
                )
                result.explored += outcome.explored
                if outcome.ok:
                    result.migrations += outcome.migrations
                    machine = outcome.machine_id
            if machine is None:
                failed = True
                break
            state.deploy(container, machine, demand)
            result.placements[cid] = machine
            del result.undeployed[cid]
            placed_now.append(cid)
        if failed and config.gang_scheduling:
            # The container that stopped the gang kept its reason.
            failing_cid = group[len(placed_now)]
            reason = result.undeployed[failing_cid]
            for cid in placed_now:
                state.evict(cid)
                del result.placements[cid]
                result.undeployed[cid] = reason


# ----------------------------------------------------------------------
# candidate walk: the IL(+DL) fast path
# ----------------------------------------------------------------------
class _CandidateWalk:
    """Iterate one application's admitting machines, most-packed first.

    With DL, the candidate order is computed once (one sort per
    application) and walked with a pointer, charging O(1) per container;
    machines stay valid until their precomputed fill count is exhausted
    (non-within apps) or until used once (within-anti-affinity apps).
    Without DL the walk re-ranks every remaining candidate per container,
    modelling the redundant path exploration DL eliminates.
    """

    def __init__(
        self,
        state: ClusterState,
        demand: np.ndarray,
        mask: np.ndarray,
        within: bool,
        dl: bool,
        affinity: np.ndarray | None = None,
    ) -> None:
        self.state = state
        self.demand = demand
        self.within = within
        self.dl = dl
        self.affinity = affinity
        self.last_cost = 0
        ids = np.flatnonzero(mask)
        order = np.argsort(
            _scores(state, ids, affinity),
            kind="stable",
        )
        self.ids = ids[order]
        self.pos = 0
        if not within:
            # Fill counts: how many identical containers fit per machine.
            with np.errstate(divide="ignore"):
                fills = np.floor(
                    (state.available[self.ids] / demand).min(axis=1)
                ).astype(np.int64)
            self.fill = fills
        else:
            self.fill = np.ones(self.ids.size, dtype=np.int64)

    def next_machine(self) -> int | None:
        if self.dl:
            while self.pos < self.ids.size and self.fill[self.pos] <= 0:
                self.pos += 1
            self.last_cost = 1
            if self.pos >= self.ids.size:
                return None
            self.fill[self.pos] -= 1
            machine = int(self.ids[self.pos])
            if self.fill[self.pos] <= 0:
                self.pos += 1
            tele = telemetry.current()
            if tele is not None:
                tele.dl_prune_hits += 1
            return machine
        # No DL: re-rank all remaining candidates against live state
        # (the redundant work depth limiting avoids).  Each candidate is
        # examined once per container — that scan is the charged cost.
        remaining = self.ids[self.pos :][self.fill[self.pos :] > 0]
        self.last_cost = max(1, remaining.size)
        if remaining.size == 0:
            return None
        avail = self.state.available[remaining]
        feasible = (avail >= self.demand).all(axis=1)
        remaining = remaining[feasible]
        if remaining.size == 0:
            return None
        score = self.state.available[remaining, 0] * (
            self.state.n_machines + 1
        ) + remaining.astype(np.float64)
        machine = int(remaining[np.argmin(score)])
        where = np.flatnonzero(self.ids == machine)[0]
        self.fill[where] -= 1
        return machine

    def invalidate(self, machine_id: int) -> None:
        """Drop a machine whose state was changed by a rescue."""
        where = np.flatnonzero(self.ids == machine_id)
        if where.size:
            self.fill[where[0]] = 0


def _scores(
    state: ClusterState, ids: np.ndarray, affinity: np.ndarray | None
) -> np.ndarray:
    """The total candidate order: affinity tier, then packing, then id.

    Machines hosting an affine application rank before all others (the
    soft Borg-style preference); within a tier the order is most-packed
    first with the machine id as the final tie-break, which keeps the
    order total and both engines reproducible.  The key and tier terms
    are shared with :mod:`repro.core.machindex`, whose incrementally
    maintained order must stay bit-identical to this scratch scoring.
    """
    score = packing_keys(state, ids)
    if affinity is not None:
        score = score + np.where(
            affinity[ids], 0.0, affinity_tier(state.n_machines)
        )
    return score


def _pick_machine(
    state: ClusterState,
    mask: np.ndarray,
    dl: bool,
    affinity: np.ndarray | None = None,
) -> int | None:
    """Best machine under the packed-first total order, or ``None``.

    With DL a single ``argmin`` suffices; without DL the full candidate
    ordering is materialised first (same winner, more work) — the honest
    cost model for the ablation.
    """
    ids = np.flatnonzero(mask)
    if ids.size == 0:
        return None
    score = _scores(state, ids, affinity)
    if dl:
        tele = telemetry.current()
        if tele is not None:
            tele.dl_prune_hits += 1
        return int(ids[np.argmin(score)])
    ranked = ids[np.argsort(score, kind="stable")]
    return int(ranked[0])


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _group_blocks(containers: list[Container]) -> list[list[Container]]:
    """Group consecutive containers of the same application."""
    return [
        list(block)
        for _, block in itertools.groupby(containers, key=attrgetter("app_id"))
    ]


def _derive_weights_for(
    blocks: list[list[Container]],
    config: AladdinConfig,
    base: float | None = None,
) -> dict[int, float]:
    """Equation 3–5 weights for the priority classes present.

    ``blocks`` are the round's application blocks (:func:`_group_blocks`);
    a block's containers are identical, so one head per block is read.
    ``base`` overrides the config's weight-ratio floor (used by the
    preemption guard, which wants the minimal compliant weights).
    """
    weights = derive_priority_weights(
        [block[0] for block in blocks],
        base=config.priority_weight_base if base is None else base,
    )
    return weights or {0: 1.0}
