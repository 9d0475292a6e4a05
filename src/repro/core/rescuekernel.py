"""Vectorized rescue kernel: batched migration/consolidation/preemption.

This module is where the Section III.B strategies — blocker
migration, consolidation, preemption — are implemented; every rescue
the engines attempt is planned here, through
:class:`~repro.core.migration.RescuePlanner`.  Written as plain
per-machine loops (*the loop*: ``RescueLoop`` in
``tests/core/rescue_loop.py``, kept as the oracle), every rescue
attempt opens with a full-cluster ``(available >= demand).all(axis=1)``
scan, every candidate machine re-lists and re-sorts its residents, and
every relocation query copies the whole ``available`` matrix to apply
reservations.  At high utilization — the regime where the paper's
Fig. 9/12 advantage is actually measured — nearly every blocked
container triggers a rescue, so that per-rescue O(machines × dims)
work dominates the round.

The kernel plans the loop's *same decisions* on the engines'
cross-round substrate:

* **Admit masks** check Equation 6 first, read live from the state
  (:func:`~repro.cluster.state.dominates`, one vectorised pass — the
  loop's own scan, charged as the loop charges it).  The Equation 7–8
  blacklist is read only when some machine dominates the demand; on a
  tight pool most relocation queries end at Equation 6 with nothing to
  blacklist.
* **Candidate orders** come from the engine's incrementally maintained
  :class:`~repro.core.machindex.MachineIndex` instead of a fresh
  ``argsort`` over all machines per strategy call.
* **The resident table** (:class:`ResidentLedger`): once a walk has
  asked for it, every machine's residents at once as a padded
  :class:`ResidentTable` — interned demand-shape ids, priorities, CPUs
  and the prefix-summed freeable demand, in ``(priority, cpu)`` order —
  so consolidation's mover prefix is a ``searchsorted`` over cumulative
  freed resources.  One batched writer keeps it current: the residents
  of the machines the dirty log reports as touched, one stable
  ``lexsort`` and one ``cumsum`` along a zero-padded block per call.
  The table is the only cached view of the residents: past the
  screens, a walk reads the few machines it still visits straight from
  ``state.deployed_containers``, as the loop does.
* **The walks screen** before they read a resident.  Whether any
  machine dominates a shape (Equation 6) is one vector per version
  window over every interned shape (:meth:`ResidentLedger.live`).
  Consolidation keeps exactly the candidates whose covering mover
  prefix fits the mover limit and holds no dead shape — the first dead
  position and one gather of the table's cumulative demand, for the
  whole walk at once.  Preemption keeps the candidates whose free
  resources plus every strictly lower-priority resident cover the
  demand (a necessary condition); of those it decides exactly every
  machine hosting no blocker, where the victims are a prefix of the
  table row and Equation 9 is the loop's own ``sum()`` of their
  weighted flows.  Only the survivors are walked resident by
  resident; ``scanned`` and ``explored`` still charge every position
  up to and including the success, as the loop does.
* **Relocation planning** asks Equation 6 of every mover before it
  plans any: a mover set holding a demand shape no machine dominates
  cannot be relocated whatever is reserved or excluded, so the plan
  ends there on look-ups into the liveness vector.  A set that passes
  tracks reservations sparsely: the dominance mask is fixed up only
  on the handful of reserved machines instead of copying
  ``available`` per mover.
* **Two version-window memos** remain: admissible ids per
  ``(app, shape)`` and failed rescues per attempt key.

Decisions are bit-identical to the loop's — same machine freed, same
victims in the same order, same failure verdicts — because every float
is accumulated in the same sequence (``np.cumsum`` performs the loop's
left-to-right additions) and every tie-break replays the loop's order.
The rescue axis of ``tests/test_differential.py`` enforces the
equivalence under randomized churn; the unit oracles in
``tests/core/test_rescuekernel.py`` pin each strategy against the loop
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter

import numpy as np

from repro.base import FailureReason
from repro.cluster.container import Container
from repro.cluster.state import ClusterState, StateCursor, dominates


@dataclass
class RescueOutcome:
    """Result of one rescue attempt for one blocked container."""

    machine_id: int | None = None
    migrations: int = 0
    preempted: list[Container] = field(default_factory=list)
    explored: int = 0
    #: candidate machines examined by the strategy walks (a decision
    #: count: the loop oracle's visits, machine for machine)
    scanned: int = 0
    failure: FailureReason | None = None

    @property
    def ok(self) -> bool:
        return self.machine_id is not None


def _rack_blocked(state: ClusterState, app_id: int, machine_id: int) -> bool:
    """True when a rack-scoped within-rule dooms ``machine_id``:
    relocating or evicting its residents cannot clear a conflict seated
    on a rack-mate."""
    cs = state.constraints
    if not (cs.has_within(app_id) and cs.within_scope(app_id) == "rack"):
        return False
    rack = int(state.topology.rack_of[machine_id])
    return any(
        m != machine_id and int(state.topology.rack_of[m]) == rack
        for m in state.app_machines.get(app_id, ())
    )


def _blockers(
    state: ClusterState, app_id: int, residents: list[Container]
) -> list[Container]:
    """``residents`` violating ``app_id``, in their order: the live
    conflict set, plus the application itself under a within-rule
    (``constraints.violates`` per resident, without its per-call
    look-ups)."""
    cs = state.constraints
    own = app_id if cs.has_within(app_id) else None
    pos, mask = cs.pos, cs.blacklist(app_id)
    return [c for c in residents if c.app_id == own or mask[pos.get(c.app_id, -1)]]


#: the loop's resident order: ``sorted(..., key=_PRIORITY_CPU)`` is
#: stable, so equal keys keep their enumeration order
_PRIORITY_CPU = attrgetter("priority", "cpu")


#: shared answer of :meth:`RescueKernel._admissible_ids` where no
#: machine dominates the demand (read-only, like every id array it
#: returns)
_NO_IDS = np.empty(0, dtype=np.intp)


#: priority of a table pad: above every resident's, so never "lower"
_PAD_PRIORITY = np.iinfo(np.int64).max

#: relative slack of the preemption screen's fit test.  The screen sums
#: a machine's lower-priority residents in (priority, cpu) order, the
#: loop sums blockers first, so the two totals may differ in the last
#: bits; the screen rejects only machines short by more than this, which
#: no reordering of a few hundred additions can close.
_FIT_RTOL = 1e-9


@dataclass
class ResidentTable:
    """Every machine's residents at once, in ``(priority, cpu)`` order.

    Row ``m`` holds machine ``m``'s residents in the order the loop's
    ``sorted(..., key=(priority, cpu))`` puts them (stable over
    :meth:`ClusterState.deployed_containers`), padded to the widest row
    plus one: the pad's shape id is ``-1`` (which
    :meth:`ResidentLedger.live` answers dead), its priority
    :data:`_PAD_PRIORITY`, its CPU and cumulative demand 0.  Every row
    ends in at least one pad, so "the first dead position" always
    exists.  ``sorted_cum`` is the running demand sum along a row,
    accumulated left to right like the loop's mover walk; past the
    residents it is 0 again, so only its first ``k`` columns (``k``
    residents) are monotone.
    """

    shape_ids: np.ndarray  # (n, w) intp
    priorities: np.ndarray  # (n, w) int64, nondecreasing along a row
    cpus: np.ndarray  # (n, w) float64, each resident's own ``cpu``
    sorted_cum: np.ndarray  # (n, w, dims) float64

    @classmethod
    def empty(cls, n_machines: int, width: int, dims: int) -> "ResidentTable":
        return cls(
            shape_ids=np.full((n_machines, width), -1, dtype=np.intp),
            priorities=np.full((n_machines, width), _PAD_PRIORITY, np.int64),
            cpus=np.zeros((n_machines, width)),
            sorted_cum=np.zeros((n_machines, width, dims)),
        )

    @property
    def width(self) -> int:
        return self.shape_ids.shape[1]

    def widened(self, width: int) -> "ResidentTable":
        """A copy ``width`` columns wide, the new columns pads."""
        grown = ResidentTable.empty(
            self.shape_ids.shape[0], width, self.sorted_cum.shape[2]
        )
        old = self.width
        grown.shape_ids[:, :old] = self.shape_ids
        grown.priorities[:, :old] = self.priorities
        grown.cpus[:, :old] = self.cpus
        grown.sorted_cum[:, :old] = self.sorted_cum
        return grown


class ResidentLedger:
    """Dirty-log-synchronised :class:`ResidentTable` of every machine.

    The table is built when a strategy walk first asks for it (the
    first consolidation or preemption); from then on each read
    rewrites, in one batch, the rows of exactly the machines the
    :class:`ClusterState` change feed (``advance`` on the ledger's
    cursor) reported since — the same synchronisation discipline as the
    machine index.  When the feed answers "rebuild" (a compacted log,
    an unfamiliar state instance) the ledger drops the table, never
    keeping stale residents.

    Demand shapes are interned by the residents' own floats in
    ``topology.resources`` order: the table names each resident's shape
    by a small id, and :meth:`live` answers Equation 6 for every
    interned shape at once.
    """

    def __init__(self) -> None:
        #: position in the state's change feed the table is synced at
        self._cursor = StateCursor()
        #: demand tuple -> shape id; ``_shapes[id]`` is the demand tuple
        self._shape_ids: dict[tuple, int] = {}
        self._shapes: list[tuple] = []
        self._table: ResidentTable | None = None
        #: per machine: its table row predates its last mutation
        self._stale = np.zeros(0, dtype=bool)
        #: ``live`` answer and the (state uid, version, shapes) it is for
        self._live_flags = np.zeros(1, dtype=bool)
        self._live_stamp: tuple | None = None

    def sync(self, state: ClusterState) -> None:
        """Mark the table rows of machines mutated since the last sync
        stale, or drop everything when the feed answers "rebuild".  The
        raw log slice will do: a machine touched twice is marked twice."""
        dirty = state.advance(self._cursor)
        if dirty is None:
            self._shape_ids.clear()
            self._shapes.clear()
            self._table = None
            self._live_stamp = None
        elif self._table is not None:
            self._stale[dirty] = True

    def table(self, state: ClusterState) -> ResidentTable:
        """The (synced) :class:`ResidentTable` of every machine."""
        self.sync(state)
        if self._table is None:
            self._table = ResidentTable.empty(
                state.n_machines, 1, len(state.topology.resources)
            )
            self._stale = np.ones(state.n_machines, dtype=bool)
        stale = np.flatnonzero(self._stale)
        if stale.size:
            self._write(state, stale)
            self._stale[stale] = False
        return self._table

    def _write(self, state: ClusterState, machines: np.ndarray) -> None:
        """Rewrite the table rows of ``machines`` (ascending) in one pass.

        Their residents are collected in enumeration order, machine by
        machine, and put in row order by one stable ``lexsort`` on
        ``(machine, priority, cpu)`` — within a machine exactly the
        permutation of the loop's stable ``sorted``.  The cumulative
        demand is one ``cumsum`` along the columns of a zero-padded
        block: each row's own left-to-right additions, bit for bit the
        loop's running sum over that order.
        """
        containers = [state.deployed_containers(m) for m in machines.tolist()]
        counts = np.array([len(c) for c in containers], dtype=np.intp)
        width = int(counts.max()) + 1
        if width > self._table.width:
            self._table = self._table.widened(width)
        table = self._table
        residents = [c for row in containers for c in row]
        demands, shape_ids = self._intern(state, residents)
        priorities = [c.priority for c in residents]
        cpus = [c.cpu for c in residents]
        owner = np.repeat(np.arange(machines.size), counts)
        order = np.lexsort((cpus, priorities, owner))
        # column of each sorted resident: its rank inside its machine
        starts = np.cumsum(counts) - counts
        col = np.arange(order.size) - np.repeat(starts, counts)
        block = ResidentTable.empty(
            machines.size, table.width, demands.shape[1]
        )
        block.shape_ids[owner, col] = np.asarray(shape_ids)[order]
        block.priorities[owner, col] = np.asarray(priorities)[order]
        block.cpus[owner, col] = np.asarray(cpus, dtype=np.float64)[order]
        block.sorted_cum[owner, col] = demands[order]
        cum = np.cumsum(block.sorted_cum, axis=1)
        cum[np.arange(table.width) >= counts[:, None]] = 0.0
        table.shape_ids[machines] = block.shape_ids
        table.priorities[machines] = block.priorities
        table.cpus[machines] = block.cpus
        table.sorted_cum[machines] = cum

    def _intern(
        self, state: ClusterState, containers: list[Container]
    ) -> tuple[np.ndarray, list[int]]:
        """The ``(k, dims)`` demand matrix of ``containers`` and their
        interned shape ids.  A shape is the tuple of a resident's own
        floats in ``topology.resources`` order — the values
        ``Container.demand_vector`` would stack, without a dict and an
        array per resident."""
        keys = list(
            zip(
                *[
                    [getattr(c, name) for c in containers]
                    for name in state.topology.resources
                ]
            )
        )
        interned = self._shape_ids
        shapes = self._shapes
        shape_ids = []
        for key in keys:
            shape = interned.get(key)
            if shape is None:
                shape = interned[key] = len(shapes)
                shapes.append(key)
            shape_ids.append(shape)
        demands = np.array(keys, dtype=np.float64).reshape(
            len(containers), len(state.topology.resources)
        )
        return demands, shape_ids

    def live(self, state: ClusterState) -> np.ndarray:
        """Equation 6 per interned shape: does any machine dominate it?

        One boolean per shape id, plus a trailing ``False`` that the
        table's pad id ``-1`` reads.  Computed for every shape at once
        (a shapes × machines comparison, one resource column at a time
        like :func:`~repro.cluster.state.dominates`) and kept until the
        state version moves or a new shape is interned.  Read-only.
        """
        stamp = (state.state_uid, state.version, len(self._shapes))
        if stamp != self._live_stamp:
            shapes = np.array(self._shapes, dtype=np.float64).reshape(
                len(self._shapes), state.available.shape[1]
            )
            avail = state.available
            fit = avail[:, 0] >= shapes[:, 0, None]
            for dim in range(1, shapes.shape[1]):
                fit &= avail[:, dim] >= shapes[:, dim, None]
            self._live_flags = np.append(fit.any(axis=1), False)
            self._live_stamp = stamp
        return self._live_flags


class RescueKernel:
    """The rescue strategies on the cross-round substrate.

    One instance lives on each engine (next to its machine index) and
    survives across ``schedule()`` calls; the engine's
    :class:`~repro.core.migration.RescuePlanner` hands every attempt to
    :meth:`rescue_plan`.
    """

    def __init__(self) -> None:
        self.ledger = ResidentLedger()
        #: (state uid, version) the two memos below were filled at.
        #: An entry can only be replayed while the state is still at
        #: the version it was computed for, and versions only grow, so
        #: :meth:`_sync_memos` empties both once the state has moved
        #: on — each holds one version window's keys, not every key a
        #: long-lived serving process has ever seen.
        self._memo_stamp: tuple[int | None, int] = (None, -1)
        #: (app id, demand bytes) -> ascending machine ids admitting
        #: the pair.  The relocation planner's unit of work: a failed
        #: plan attempt leaves the state untouched, so the plans a walk
        #: enters re-ask for the same few (mover app, shape) pairs and
        #: each is answered O(1).
        self._admissible: dict[tuple[int, bytes], np.ndarray] = {}
        #: failed-rescue memo, attempt key -> (failure, scanned,
        #: explored).  A rescue that ends in failure never mutated the
        #: state, and its verdict is determined by the (app, demand
        #: shape, flags, weights) of the attempt — during exhaustive
        #: repair, sibling containers of one application retry the
        #: identical hopeless rescue back to back.  The stored
        #: ``scanned`` is replayed so the strategy-walk visit counters
        #: stay bit-identical to the loop's.
        self._failures: dict[tuple, tuple] = {}
        #: lifetime count of kernel-planned rescues
        self.invocations = 0

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Serialisable image of the memos that carry *charged* costs.

        What is persisted and what is deliberately dropped follows the
        bit-identity requirement of checkpoint/restore:

        * The ``_failures`` memo **must** survive — a failure-memo hit
          replays its stored ``scanned``/``explored`` charges, so a
          cold restart would change the resumed run's counters.  Every
          failure entry is written as ``(version, ...)`` with the
          version of :attr:`_memo_stamp` — the per-entry form
          :meth:`restore` filters on — and the memo holds one version
          window, so the image is bounded too.
        * ``_admissible`` and the resident ledger (table, shape
          liveness) are dropped: rebuilding them is charge-free (pure
          state reads), so the restored run stays bit-identical while
          the snapshot stays small.
        """
        version = self._memo_stamp[1]
        return {
            "failures": {
                key: (version, *verdict)
                for key, verdict in self._failures.items()
            },
            "invocations": self.invocations,
        }

    def restore(self, payload: dict, state: ClusterState) -> None:
        """Adopt a :meth:`checkpoint` image against the restored state.

        Only entries stored at the restored state's version are kept:
        the state checkpoint persists the dirty log with identical
        numbering, so those are exactly the entries that can still hit.
        An image may carry entries of many older versions (one written
        by a kernel that kept every entry it had ever stored does), and
        one written before the walks screened carries ``plans`` and
        ``live`` memos, which are ignored: nothing replays a plan any
        more, and liveness is derived from the state.  One written while
        the kernel kept a private cross-round dominance cache carries a
        ``dominance`` entry, ignored too: Equation 6 is read live.
        """
        version = state.version
        self._memo_stamp = (state.state_uid, version)
        self._failures = {
            key: tuple(verdict)
            for key, (stored, *verdict) in payload["failures"].items()
            if stored == version
        }
        self.invocations = payload["invocations"]
        self._admissible = {}
        self.ledger = ResidentLedger()

    def _sync_memos(self, state: ClusterState) -> None:
        """Empty the version-keyed memos once ``state`` has moved on."""
        stamp = (state.state_uid, state.version)
        if stamp != self._memo_stamp:
            self._admissible.clear()
            self._failures.clear()
            self._memo_stamp = stamp

    def _admissible_ids(
        self, state: ClusterState, app_id: int, demand: np.ndarray
    ) -> np.ndarray:
        """Ascending ids of machines admitting ``(app, demand shape)``.

        Equation 6 ∧ ¬(Equation 7–8), memoised per state version —
        read-only; callers filter with boolean keeps, never in place.
        Equation 6 goes first: where no machine dominates the demand
        (most relocation queries on a tight pool) the blacklist decides
        nothing and is not evaluated.
        """
        self._sync_memos(state)
        key = (app_id, demand.tobytes())
        ids = self._admissible.get(key)
        if ids is None:
            fit = dominates(state.available, demand)
            ids = (
                np.flatnonzero(fit & ~state.forbidden_mask(app_id))
                if fit.any()
                else _NO_IDS
            )
            self._admissible[key] = ids
        return ids

    # ------------------------------------------------------------------
    def rescue_plan(self, planner, container, demand, allow_preemption, exhaustive):
        """Plan one rescue of ``container`` for ``planner``'s round."""
        self.invocations += 1
        state = planner.state
        config = planner.config
        wkey = (
            tuple(sorted(planner.weights.items()))
            if planner.weights
            else None
        )
        key = (
            container.app_id,
            demand.tobytes(),
            allow_preemption,
            exhaustive,
            wkey,
        )
        self._sync_memos(state)
        hit = self._failures.get(key)
        if hit is not None:
            out = RescueOutcome()
            out.failure, out.scanned, out.explored = hit
            return out
        version_in = state.version
        out = RescueOutcome()
        # The loop's full-cluster Equation 6 scan, charged as the loop
        # charges it: one unit per machine.
        fit = dominates(state.available, demand)
        out.explored += state.n_machines
        forbidden = state.forbidden_mask(container.app_id)

        if config.enable_migration:
            machine = self._migrate_blockers(
                planner, container, fit & forbidden, out, exhaustive
            )
            if machine is None:
                machine = self._consolidate(
                    planner, container, demand, ~fit & ~forbidden, out, exhaustive
                )
            if machine is not None:
                out.machine_id = machine
                return out
        if allow_preemption and config.enable_preemption:
            machine = self._preempt(planner, container, demand, out)
            if machine is not None:
                out.machine_id = machine
                return out

        blocked_only_by_affinity = bool((fit & forbidden).any()) and not bool(
            (fit & ~forbidden).any()
        )
        out.failure = (
            FailureReason.ANTI_AFFINITY
            if blocked_only_by_affinity
            else FailureReason.RESOURCES
        )
        if state.version == version_in:
            self._failures[key] = (out.failure, out.scanned, out.explored)
        return out

    # ------------------------------------------------------------------
    def _migrate_blockers(
        self, planner, container, candidates, out, exhaustive
    ) -> int | None:
        state = planner.state
        config = planner.config
        ids = np.flatnonzero(candidates)
        if ids.size == 0:
            return None
        order = ids[np.argsort(state.container_count[ids], kind="stable")]
        if not exhaustive:
            order = order[: max(1, config.migration_candidates)]
        app_id = container.app_id
        for machine_id in order.tolist():
            out.explored += 1
            out.scanned += 1
            blockers = _blockers(
                state, app_id, state.deployed_containers(machine_id)
            )
            if not blockers:
                continue
            if not exhaustive and (
                len(blockers) > config.max_migrations_per_container
            ):
                continue
            if _rack_blocked(state, app_id, machine_id):
                continue
            moves = self._plan_relocations(planner, blockers, machine_id, out)
            if moves is None:
                continue
            for blocker, target in moves:
                state.migrate(blocker.container_id, target)
                out.migrations += 1
            return machine_id
        return None

    # ------------------------------------------------------------------
    def _consolidate(
        self, planner, container, demand, candidates, out, exhaustive
    ) -> int | None:
        state = planner.state
        config = planner.config
        # Roomiest machines first: the maintained packed-first order,
        # restricted to the candidate mask and reversed.
        order = planner.machine_index.candidates(state, candidates)[::-1]
        if not exhaustive:
            order = order[: max(1, config.migration_candidates)]
        mover_limit = (
            state.n_machines
            if exhaustive
            else config.max_migrations_per_container
        )
        shortfalls = demand - state.available[order]
        n_res = shortfalls.shape[1]
        passing = self._consolidation_screen(
            state, order, shortfalls, mover_limit
        )
        sorted_cum = self.ledger.table(state).sorted_cum
        for pos in passing.tolist():
            machine_id = int(order[pos])
            residents = sorted(
                state.deployed_containers(machine_id), key=_PRIORITY_CPU
            )
            # Minimal mover prefix of the (priority, cpu) order whose
            # cumulative freed demand covers the shortfall on every
            # deficient dimension: one searchsorted per such dimension.
            # The screen guarantees it exists within the mover limit.
            # Only the residents' columns are monotone: the pads are 0.
            cum = sorted_cum[machine_id, : len(residents)]
            shortfall = shortfalls[pos].tolist()
            movers_needed = 1
            for d in range(n_res):
                if shortfall[d] > 0.0:
                    idx = int(cum[:, d].searchsorted(shortfall[d]))
                    movers_needed = max(movers_needed, idx + 1)
            moves = self._plan_relocations(
                planner, residents[:movers_needed], machine_id, out
            )
            if moves is None:
                continue
            # one visit per position up to and including this one
            out.explored += pos + 1
            out.scanned += pos + 1
            for mover, target in moves:
                state.migrate(mover.container_id, target)
                out.migrations += 1
            return machine_id
        out.explored += order.size
        out.scanned += order.size
        return None

    # ------------------------------------------------------------------
    def _preempt(self, planner, container, demand, out) -> int | None:
        state = planner.state
        config = planner.config
        bound = max(1, config.migration_candidates) * 4
        order = planner.machine_index.candidates(state, None)[:bound]
        app_id = container.app_id
        passing = self._preemption_screen(planner, order, container, demand)
        for pos in passing.tolist():
            machine_id = int(order[pos])
            residents = state.deployed_containers(machine_id)
            blockers = _blockers(state, app_id, residents)
            if any(c.priority >= container.priority for c in blockers):
                continue  # cannot displace an equal-or-higher blocker
            if _rack_blocked(state, app_id, machine_id):
                continue
            # Victims: the blockers, then strictly lower-priority
            # residents in (priority, cpu) order until the machine fits —
            # one cumsum, the loop's left-to-right accumulation.
            blocking = {c.container_id for c in blockers}
            lower = [
                c for c in sorted(residents, key=_PRIORITY_CPU)
                if c.priority < container.priority
                and c.container_id not in blocking
            ]
            demands, _ = self.ledger._intern(state, blockers + lower)
            cum = np.cumsum(demands, axis=0)
            n_blockers = len(blockers)
            avail_m = state.available[machine_id]
            victims = blockers
            freed = cum[n_blockers - 1] if blockers else np.zeros_like(demand)
            if lower and not ((avail_m + freed) >= demand).all():
                fits_after = (
                    (avail_m + cum[n_blockers:]) >= demand
                ).all(axis=1)
                hit = np.flatnonzero(fits_after)
                take = int(hit[0]) + 1 if hit.size else len(lower)
                victims = blockers + lower[:take]
                freed = cum[n_blockers + take - 1]
            if not ((avail_m + freed) >= demand).all():
                continue
            # Equation 9 guard, accumulated in victim order like the
            # loop (victims are few; the guard is not the
            # bottleneck and the float order must match bit for bit).
            if planner.weights and sum(
                planner._weighted_flow(v) for v in victims
            ) >= planner._weighted_flow(container):
                continue
            # this machine is freed, by relocation or eviction: one
            # visit per position up to and including it
            out.explored += pos + 1
            out.scanned += pos + 1
            moves = self._plan_relocations(planner, victims, machine_id, out)
            if moves is not None:
                for victim, target in moves:
                    state.migrate(victim.container_id, target)
                    out.migrations += 1
                return machine_id
            # relocate what can go alone, evict the rest
            for victim in victims:
                moves = self._plan_relocations(
                    planner, [victim], machine_id, out
                )
                if moves is not None:
                    state.migrate(victim.container_id, moves[0][1])
                    out.migrations += 1
                else:
                    state.evict(victim.container_id)
                    out.preempted.append(victim)
            return machine_id
        out.explored += order.size
        out.scanned += order.size
        return None

    # ------------------------------------------------------------------
    def _consolidation_screen(
        self, state, order: np.ndarray, shortfalls: np.ndarray,
        mover_limit: int,
    ) -> np.ndarray:
        """Positions of ``order`` where consolidation can plan at all.

        Exactly the machines whose minimal covering mover prefix (of
        the (priority, cpu) order) exists, fits ``mover_limit`` and
        holds no shape nothing dominates — everything else the walk
        would pass over without a plan.  ``fd`` is the first dead
        position of the table row (a pad if no resident is dead, so at
        most the resident count) capped at the limit; a prefix of at
        most ``fd`` movers covers the shortfall iff the cumulative
        freed demand at ``fd - 1`` does on every dimension: the cumsums
        are nondecreasing (demands are nonnegative), and a dimension
        that is not short has a shortfall ≤ 0.
        """
        table = self.ledger.table(state)
        live = self.ledger.live(state)
        fd = np.minimum(
            (~live[table.shape_ids[order]]).argmax(axis=1), mover_limit
        )
        passing = np.flatnonzero(fd)
        covered = table.sorted_cum[order[passing], fd[passing] - 1]
        return passing[(covered >= shortfalls[passing]).all(axis=1)]

    def _preemption_screen(
        self, planner, order: np.ndarray, container: Container,
        demand: np.ndarray,
    ) -> np.ndarray:
        """Positions of ``order`` where preemption can plan.

        First a necessary condition at every position: free resources
        plus every strictly lower-priority resident (a prefix of the
        (priority, cpu) order, so one gather) cover the demand.  The
        loop's victims are a subset of those residents, so a machine
        rejected here fails the loop's fit check or an earlier test —
        with :data:`_FIT_RTOL` of slack, because where a resident blocks
        the container the loop adds the blockers first.

        Of the survivors, a machine a rack-mate blocks is dropped (the
        loop's ``continue``), and one hosting no blocker is decided
        exactly by :meth:`_plans_without_blocker`.  A machine with a
        blocker keeps the necessary condition: the loop decides it.
        """
        state = planner.state
        table = self.ledger.table(state)
        n_lower = (table.priorities[order] < container.priority).sum(axis=1)
        room = state.available[order]
        lower = np.flatnonzero(n_lower)
        room[lower] += table.sorted_cum[order[lower], n_lower[lower] - 1]
        slack = _FIT_RTOL * (np.abs(room) + np.abs(demand))
        passing = np.flatnonzero((room + slack >= demand).all(axis=1))
        # ``_blockers`` from the applications each machine hosts
        app_id = container.app_id
        cs = state.constraints
        own = app_id if cs.has_within(app_id) else None
        pos = cs.pos
        blocked, named, rest = cs.blacklist(app_id).__getitem__, pos.keys(), repeat(-1)
        hosted_on = state.machine_apps.get
        keep = np.ones(passing.size, dtype=bool)
        clear: list[int] = []
        for j, machine_id in enumerate(order[passing].tolist()):
            hosted = hosted_on(machine_id, ())
            if _rack_blocked(state, app_id, machine_id):
                keep[j] = False
            elif own not in hosted and (
                named.isdisjoint(hosted)
                or not any(map(blocked, map(pos.get, hosted, rest)))
            ):
                clear.append(j)
        if clear:
            pos = passing[clear]
            keep[clear] = self._plans_without_blocker(
                planner, container, demand, table, order[pos], n_lower[pos]
            )
        return passing[keep]

    def _plans_without_blocker(
        self, planner, container: Container, demand: np.ndarray,
        table: ResidentTable, machines: np.ndarray, n_lower: np.ndarray,
    ) -> np.ndarray:
        """Whether the preemption loop plans on each of ``machines``,
        none of which hosts a blocker of ``container``.

        There the loop's victims are a prefix of the table row: the
        ``n_lower`` lower-priority residents up to the first column
        where ``available + sorted_cum`` covers the demand (none if the
        machine fits already).  ``sorted_cum`` is the loop's
        ``np.cumsum`` bit for bit, so the fit is exact.  Equation 9 is
        the loop's own expression — ``sum()`` of the victims' weighted
        flows in victim order, ``>=`` the container's — never a numpy
        reduction and never with a tolerance: integer-CPU ties such as
        1.0 × 24 against 2.0 × 12 are common, and CPython sums floats
        with compensation from 3.12 on, so only the same ``sum()`` call
        gives the loop's verdict on every interpreter.
        """
        avail = planner.state.available[machines]
        fits = (
            (avail[:, None, :] + table.sorted_cum[machines]) >= demand
        ).all(axis=2)
        fits &= np.arange(table.width) < n_lower[:, None]
        fit_now = (avail >= demand).all(axis=1)
        ok = fit_now | fits.any(axis=1)
        if not planner.weights:
            return ok
        take = np.where(fit_now, 0, fits.argmax(axis=1) + 1).tolist()
        weight = planner.weights.get
        flow = planner._weighted_flow(container)
        priorities = table.priorities[machines].tolist()
        cpus = table.cpus[machines].tolist()
        for j in np.flatnonzero(ok).tolist():
            victims = zip(priorities[j][: take[j]], cpus[j][: take[j]])
            if sum(weight(p, 1.0) * cpu for p, cpu in victims) >= flow:
                ok[j] = False
        return ok

    # ------------------------------------------------------------------
    def _plan_relocations(
        self, planner, movers: list[Container], exclude: int, out,
    ) -> list[tuple[Container, int]] | None:
        """Screened, sparse-reservation twin of the loop's relocation
        planner, for ``movers`` in that order.  One mover is the loop's
        ``_relocation_target`` (preemption's per-victim fallback): the
        same target, or ``None``, for the same charge of one.

        **Screen.**  Equation 6 is asked of every mover before any is
        planned (:meth:`ResidentLedger.live`, one boolean per shape;
        the movers' shapes are interned first, so the liveness vector
        covers them): the first mover ``j`` whose demand shape no
        machine dominates ends the plan, charged ``j + 1`` (one unit per
        mover looked at, the planner's own rule).  Exclusions and
        reservations only ever *shrink* a mover's admissible set, so the
        sequential planner below would have failed at ``j`` or earlier —
        same ``None``, no state touched — after paying a blacklist
        evaluation for every live mover ahead of it.  Consolidation
        never hands over a dead prefix (its walk screens for the same
        thing); blocker migration and preemption do.

        **Plan.**  The loop recomputes a full admit mask and
        copies the whole ``available`` matrix per mover to apply
        reservations; here each mover starts from the memoised
        admissible-id list of its ``(app, shape)`` pair and only the
        handful of excluded or reserved machines are filtered out —
        narrowing the memoised verdicts is exact for the same reason
        the screen is.
        """
        state = planner.state
        demands, shape_ids = self.ledger._intern(state, movers)
        live = self.ledger.live(state)
        for j, shape in enumerate(shape_ids):
            if not live[shape]:
                out.explored += j + 1
                return None
        reserved: dict[int, np.ndarray] = {}
        plan: list[tuple[Container, int]] = []
        for mover, demand in zip(movers, demands):
            ids = self._admissible_ids(state, mover.app_id, demand)
            out.explored += 1
            drop = [exclude]
            for mover_prev, target_prev in plan:
                if state.constraints.violates(mover.app_id, mover_prev.app_id):
                    drop.append(target_prev)
            for machine_id, used in reserved.items():
                if not ((state.available[machine_id] - used) >= demand).all():
                    drop.append(machine_id)
            if ids.size and drop:
                keep = np.ones(ids.size, dtype=bool)
                for machine_id in drop:
                    pos = int(ids.searchsorted(machine_id))
                    if pos < ids.size and ids[pos] == machine_id:
                        keep[pos] = False
                ids = ids[keep]
            if ids.size == 0:
                return None
            cpu = state.available[ids, 0]
            if reserved:
                cpu = cpu.copy()
                for machine_id, used in reserved.items():
                    pos = int(ids.searchsorted(machine_id))
                    if pos < ids.size and ids[pos] == machine_id:
                        cpu[pos] -= used[0]
            target = int(ids[np.argmin(cpu)])
            plan.append((mover, target))
            reserved[target] = (
                reserved.get(target, np.zeros_like(demand)) + demand
            )
        return plan
