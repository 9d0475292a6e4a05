"""Mutable, vectorised cluster state shared by all schedulers.

``ClusterState`` tracks, per machine, the remaining resource vector and
the deployed containers, plus the inverted index (application → machines
hosting it) that makes the paper's blacklist function (Equations 7–8)
cheap to evaluate: the blacklist of a machine is induced by the
applications already deployed on it, so the set of machines *forbidden*
for an application is the union of the machine sets of its conflicting
applications.

The resident ledger is a set of maps every mutator keeps in step:

* ``available`` and ``container_count`` — per-machine arrays;
* ``assignment`` (container → machine) and ``_containers`` (container →
  :class:`Container`) — the forward maps;
* ``machine_containers`` (machine → residents, in deployment order) and
  ``app_machines`` (application → {machine → residents}) — the inverse
  maps, whose iteration orders readers rely on.

Those are what :meth:`ClusterState.checkpoint_payload` persists.
Two more are *derived* and never persisted: ``machine_apps`` (machine →
{application → residents}, the transpose of ``app_machines``, rebuilt by
:meth:`ClusterState.from_payload`) and the violation tally (rebuilt by
the first :meth:`ClusterState.anti_affinity_violations` call).  Once a
tally exists, ``deploy_block`` also notes for it each block of an
application a rule names: the tally recounts only the machines such
arrivals now offend on and those already holding an offender.

Containers of one application are identical (the IL premise), so the
block mutators book per application rather than per container:
``deploy_block`` takes a block as *placement runs* (a machine and how
many of the block's containers it takes), the form the batch kernel
plans in, and commits each run once; ``evict_block`` settles each
(application, machine) pair once.  All hot paths are NumPy operations
over dense machine ids; Python-level dictionaries only appear per run
or pair, never per machine scan.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Container
from repro.cluster.events import Event, EventKind, EventLog
from repro.cluster.topology import ClusterTopology

#: distinguishes state instances without relying on ``id()`` reuse —
#: a :class:`StateCursor` names the instance it belongs to by this uid.
_state_uids = itertools.count()


class StateCursor:
    """A position in one state's change feed: which
    :class:`ClusterState` (its uid) and which of its versions.

    A consumer holds one and hands it to :meth:`ClusterState.advance`
    on every sync.  A fresh cursor is *never synced*: its first advance
    answers "rebuild".  Cursors are mutable; ``advance`` moves them.
    """

    __slots__ = ("uid", "version")

    def __init__(self, uid: int | None = None, version: int = -1) -> None:
        self.uid = uid
        self.version = version


def dominates(available: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Equation 6 per row: ``(available >= demand).all(axis=1)``.

    Compared one resource column at a time and ANDed in place — the same
    booleans, but a reduction over the (2-wide) resource axis costs more
    than ten times the per-column compares at cluster size.
    """
    fit = available[:, 0] >= demand[0]
    for dim in range(1, demand.size):
        fit &= available[:, dim] >= demand[dim]
    return fit


def _book(index: dict, outer: int, inner: int, n: int) -> None:
    """Add ``n`` to ``index[outer][inner]``, creating missing entries."""
    row = index.setdefault(outer, {})
    row[inner] = row.get(inner, 0) + n


def _release(index: dict, outer: int, inner: int, n: int) -> None:
    """Take ``n`` from ``index[outer][inner]``; an entry that reaches
    zero is deleted, and so is a row left empty."""
    row = index[outer]
    left = row[inner] - n
    if left:
        row[inner] = left
    else:
        del row[inner]
        if not row:
            del index[outer]


@dataclass
class _ViolationTally:
    """Cached answer of :meth:`ClusterState.anti_affinity_violations`.

    ``revision`` / ``cursor`` say which :attr:`ConstraintSet.revision`
    and which state mutation the counts are exact for; both maps hold
    non-zero entries only and ``total`` is their sum.
    """

    revision: int
    cursor: StateCursor
    total: int = 0
    #: machine id -> offending containers on it (Eq. 7-8 at machine scope)
    per_machine: dict[int, int] = field(default_factory=dict)
    #: rack-scoped app id -> its containers sharing a rack with a sibling
    per_rack_app: dict[int, int] = field(default_factory=dict)
    #: (app id, run machines) of every block of a constrained application
    #: committed since the counts were exact, noted by ``deploy_block``
    arrivals: list[tuple[int, list[int]]] = field(default_factory=list)

    def store(self, counts: dict[int, int], key: int, count: int) -> None:
        """Replace ``counts[key]`` (one of the two maps) by ``count``."""
        self.total += count - counts.pop(key, 0)
        if count:
            counts[key] = count


class ClusterState:
    """Resource and deployment state of a cluster during scheduling.

    Parameters
    ----------
    topology:
        Static machine/rack/cluster layout and capacities.
    constraints:
        Anti-affinity index for the workload being scheduled.
    track_events:
        When true, every deploy/evict/migrate is appended to
        :attr:`events` (used by the Kubernetes co-design layer and by
        tests; off by default for speed).
    """

    def __init__(
        self,
        topology: ClusterTopology,
        constraints: ConstraintSet | None = None,
        track_events: bool = False,
    ) -> None:
        self.topology = topology
        self.constraints = constraints if constraints is not None else ConstraintSet()
        n = topology.n_machines
        #: remaining resources, shape (n_machines, n_dims)
        self.available = topology.capacity.copy()
        #: number of containers deployed per machine
        self.container_count = np.zeros(n, dtype=np.int32)
        #: container id -> machine id
        self.assignment: dict[int, int] = {}
        #: container id -> Container (for eviction/migration bookkeeping)
        self._containers: dict[int, Container] = {}
        #: machine id -> deployed container ids (an insertion-ordered
        #: dict used as an ordered set; the values are always ``None``).
        #: Iteration order is the deployment order of the residents
        #: still present, which is deterministic for a given mutation
        #: history, stable between mutations of that machine — the
        #: rescue kernel's resident ledger caches per-machine summaries
        #: keyed to this enumeration order and rebuilds them whenever
        #: the dirty log reports the machine touched — and, unlike a
        #: ``set``'s, survives a pickle round-trip unchanged, which is
        #: what lets checkpoint/restore promise bit-identical resumed
        #: decisions.
        self.machine_containers: dict[int, dict[int, None]] = {}
        #: app id -> {machine id -> number of its containers there}; an
        #: application with no resident container has no entry
        self.app_machines: dict[int, dict[int, int]] = {}
        #: machine id -> {app id -> number of its containers there}: the
        #: transpose of ``app_machines``, derived (rebuilt on restore,
        #: never persisted; its inner order carries no meaning).  An
        #: empty machine has no entry.
        self.machine_apps: dict[int, dict[int, int]] = {}
        self.events: EventLog | None = EventLog() if track_events else None
        self._clock = 0
        #: stable identity for cross-round caches (survives ``id()`` reuse)
        self.state_uid = next(_state_uids)
        #: monotonically increasing mutation counter; every deploy,
        #: evict, migrate or external touch bumps it by one
        self.version = 0
        # Dirty log: machine id per mutation, indexed by version.  A
        # consumer holds a :class:`StateCursor` and reads the machines
        # changed since it through :meth:`advance`, the one change feed.
        # The log is compacted once it outgrows ``_log_limit``; cursors
        # older than the compaction base get ``None`` ("everything may
        # have changed") and the consumer recomputes fully.
        #
        # The log lives in a growable int64 buffer (``_log_buf`` holds
        # ``_log_len`` live entries) rather than a Python list: the hot
        # consumers read a *slice* of it on every sync, and slicing an
        # array is free where converting a list slice costs O(entries)
        # Python-object unboxing per query — under storm churn that
        # conversion, repeated per consumer sync, was the dominant
        # consumer-side cost.
        self._log_buf = np.empty(1024, dtype=np.int64)
        self._log_len = 0
        self._log_base = 0
        self._log_limit = max(4096, 16 * n)
        #: built by the first :meth:`anti_affinity_violations` call and
        #: repaired from the dirty log and its arrivals by every later one
        self._violations: _ViolationTally | None = None

    # ------------------------------------------------------------------
    # change tracking
    # ------------------------------------------------------------------
    def touch(self, machine_id: int) -> None:
        """Record an out-of-band mutation of ``machine_id``.

        Every mutation through :meth:`deploy`/:meth:`evict`/:meth:`migrate`
        is tracked automatically; callers that modify :attr:`available`
        directly (e.g. fault injection zeroing a machine's capacity) must
        call this so cross-round caches invalidate the machine.
        """
        self.version += 1
        if self._log_len == self._log_buf.size:
            self._grow_log(self._log_len + 1)
        self._log_buf[self._log_len] = machine_id
        self._log_len += 1
        if self._log_len > self._log_limit:
            self._compact_log()

    def touch_block(self, machine_ids) -> None:
        """Record one mutation per entry of ``machine_ids``, in order.

        Equivalent to calling :meth:`touch` per id — the version counter
        advances by ``len(machine_ids)`` and the log gains the same
        entries in the same order — but pays the append once per block.
        Compaction fires at most once, after the extend; the boundary can
        therefore differ from the scalar path's, which is safe because a
        consumer older than the base always recomputes fully.
        """
        ids = np.asarray(machine_ids, dtype=np.int64)
        k = int(ids.size)
        if k == 0:
            return
        self.version += k
        end = self._log_len + k
        if end > self._log_buf.size:
            self._grow_log(end)
        self._log_buf[self._log_len : end] = ids
        self._log_len = end
        if self._log_len > self._log_limit:
            self._compact_log()

    def _grow_log(self, needed: int) -> None:
        new = np.empty(max(needed, 2 * self._log_buf.size), dtype=np.int64)
        new[: self._log_len] = self._log_buf[: self._log_len]
        self._log_buf = new

    def _compact_log(self) -> None:
        # Drop the oldest half; consumers synced before the new base
        # fall back to a full recompute, never to stale verdicts.
        drop = self._log_len // 2
        keep = self._log_len - drop
        self._log_buf[:keep] = self._log_buf[drop : self._log_len]
        self._log_len = keep
        self._log_base += drop
        tally = self._violations
        if tally is not None and tally.cursor.version < self._log_base:
            # its next query recounts anyway; dropping it now bounds the
            # arrivals it notes by the log
            self._violations = None

    def cursor(self) -> StateCursor:
        """A cursor at this state's current version."""
        return StateCursor(self.state_uid, self.version)

    def advance(self, cursor: StateCursor) -> np.ndarray | None:
        """The machines mutated since ``cursor``, and move it to now.

        The answer is the raw log slice in mutation order: a machine
        touched twice since the cursor appears twice (a consumer whose
        per-entry work is idempotent pays no dedup).  It is ``None``,
        "everything may have changed, rebuild", when the cursor belongs
        to another state instance (a :meth:`snapshot`, a restored state,
        a state that replaced this one), when it was never synced, or
        when compaction has passed it.  Either way the cursor is moved
        to this state's current version.  Callers must treat the slice
        as read-only.
        """
        version = cursor.version
        known = cursor.uid == self.state_uid and (
            self._log_base <= version <= self.version
        )
        cursor.uid = self.state_uid
        cursor.version = self.version
        if not known:
            return None
        return self._log_buf[version - self._log_base : self._log_len]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_machines(self) -> int:
        return self.topology.n_machines

    def machines_hosting(self, app_id: int) -> dict[int, int]:
        """Machines currently hosting ``app_id`` (machine id → count)."""
        return self.app_machines.get(app_id, {})

    def forbidden_mask(self, app_id: int) -> np.ndarray:
        """Boolean mask of machines blacklisted for ``app_id``.

        This realises the nonlinear, set-based capacity function of
        Equations 7–8: machine ``N`` is forbidden for a container of
        application ``a`` when ``N`` already hosts a container of ``a``
        itself (anti-affinity within) or of any application conflicting
        with ``a`` (anti-affinity across).
        """
        mask = np.zeros(self.n_machines, dtype=bool)
        cs = self.constraints
        app_machines = self.app_machines
        # Hosting ids of every resident partner, scattered once at the
        # end: conflict sets run to hundreds of applications, and a
        # fancy-index store per partner would be most of this query.
        ids: list[int] = []
        if cs.has_within(app_id):
            hosting = app_machines.get(app_id)
            if hosting:
                if cs.within_scope(app_id) == "rack":
                    # Rack-domain spreading: every machine in a rack
                    # already hosting the app is blacklisted.
                    racks = np.unique(self.topology.rack_of[list(hosting)])
                    mask[np.isin(self.topology.rack_of, racks)] = True
                else:
                    ids.extend(hosting)
        for other in cs.partners(app_id):
            hosting = app_machines.get(other)
            if hosting:
                ids.extend(hosting)
        if ids:
            mask[ids] = True
        return mask

    def feasible_mask(
        self,
        demand: np.ndarray,
        app_id: int | None = None,
        respect_anti_affinity: bool = True,
    ) -> np.ndarray:
        """Machines that can legally accept one container of ``demand``.

        A machine is feasible when its remaining resource vector
        dominates ``demand`` (Equation 6) and — if ``app_id`` is given
        and ``respect_anti_affinity`` — it is not blacklisted.
        """
        ok = dominates(self.available, demand)
        if app_id is not None and respect_anti_affinity:
            ok &= ~self.forbidden_mask(app_id)
        return ok

    def would_violate(self, container: Container, machine_id: int) -> bool:
        """True if placing ``container`` on ``machine_id`` breaks an
        anti-affinity rule (resources are not checked here)."""
        cs = self.constraints
        app_id = container.app_id
        hosted = self.machine_apps.get(machine_id)
        if hosted:
            if app_id in hosted and cs.has_within(app_id):
                return True
            if cs.clashes(app_id, hosted):
                return True
        # Rack-scoped within-rules also forbid rack-mates.
        if cs.has_within(app_id) and cs.within_scope(app_id) == "rack":
            rack = int(self.topology.rack_of[machine_id])
            for m in self.app_machines.get(app_id, ()):
                if int(self.topology.rack_of[m]) == rack:
                    return True
        return False

    def fits(self, demand: np.ndarray, machine_id: int) -> bool:
        """True when ``machine_id`` has room for ``demand``."""
        return bool((self.available[machine_id] >= demand).all())

    def affinity_mask(self, app_id: int) -> np.ndarray | None:
        """Machines hosting an application ``app_id`` is affine to.

        ``None`` when the app has no affinity preferences (the common
        case — callers skip the soft-scoring branch entirely).
        """
        affine = self.constraints.affinities_of(app_id)
        if not affine:
            return None
        mask = np.zeros(self.n_machines, dtype=bool)
        for other in affine:
            hosting = self.app_machines.get(other)
            if hosting:
                mask[list(hosting)] = True
        return mask

    def container(self, container_id: int) -> Container:
        """Return the deployed container with ``container_id``."""
        return self._containers[container_id]

    def deployed_containers(self, machine_id: int) -> list[Container]:
        """Containers currently deployed on ``machine_id``."""
        return [
            self._containers[cid]
            for cid in self.machine_containers.get(machine_id, ())
        ]

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def deploy(
        self,
        container: Container,
        machine_id: int,
        demand: np.ndarray | None = None,
        force: bool = False,
    ) -> None:
        """Place ``container`` on ``machine_id`` and update all indices.

        ``force=True`` permits anti-affinity violations (some baseline
        schedulers knowingly place in violation — e.g. Medea with a
        non-zero violation weight); resource capacity is never allowed
        to go negative.
        """
        if container.container_id in self.assignment:
            raise ValueError(
                f"container {container.container_id} is already deployed on "
                f"machine {self.assignment[container.container_id]}"
            )
        if demand is None:
            demand = container.demand_vector(self.topology.resources)
        if not self.fits(demand, machine_id):
            raise ValueError(
                f"machine {machine_id} lacks resources for container "
                f"{container.container_id}: available="
                f"{self.available[machine_id]}, demand={demand}"
            )
        if not force and self.would_violate(container, machine_id):
            raise ValueError(
                f"placing container {container.container_id} "
                f"(app {container.app_id}) on machine {machine_id} violates "
                "an anti-affinity constraint (pass force=True to override)"
            )
        self.deploy_block([container], [machine_id], [1], demand)

    def evict(self, container_id: int) -> Container:
        """Remove a deployed container, returning it for re-queueing."""
        if container_id not in self.assignment:
            raise KeyError(f"container {container_id} is not deployed")
        machine_id = self.assignment.pop(container_id)
        container = self._containers.pop(container_id)
        demand = container.demand_vector(self.topology.resources)
        self.available[machine_id] += demand
        self.container_count[machine_id] -= 1
        self.machine_containers[machine_id].pop(container_id, None)
        _release(self.app_machines, container.app_id, machine_id, 1)
        _release(self.machine_apps, machine_id, container.app_id, 1)
        self.touch(machine_id)
        self._record(EventKind.EVICT, container_id, machine_id)
        return container

    def evict_block(self, container_ids) -> int:
        """Evict every *deployed* container of ``container_ids`` at once.

        Ids not currently deployed are skipped — the shared window logic
        relies on this, since a departing container may already have been
        displaced by a fault in the same window.  Returns the number of
        containers actually evicted.

        Bit-identical to calling :meth:`evict` per id in order
        (:func:`np.add.at` is unbuffered: the per-occurrence additions to
        ``available`` apply in exactly the scalar loop's sequence), but
        the numpy call overhead and the dirty-log append are paid once
        per window instead of once per container, and the per-application
        maps are settled once per (application, machine) pair.
        :meth:`evict` remains the scalar fallback for single-container
        callers.
        """
        ids = list(container_ids)
        # ``pop(cid, None)`` drops absent ids, and a repeated id is
        # absent by its second occurrence — first occurrence wins, as
        # under the scalar loop.
        found = list(map(self.assignment.pop, ids, itertools.repeat(None)))
        if None in found:
            present = [cid for cid, m in zip(ids, found) if m is not None]
            machines = [m for m in found if m is not None]
        else:
            present, machines = ids, found
        if not present:
            return 0
        gone = list(map(self._containers.pop, present))
        apps = [c.app_id for c in gone]
        machine_containers = self.machine_containers
        for cid, machine_id in zip(present, machines):
            machine_containers[machine_id].pop(cid, None)
        for (app_id, machine_id), n in Counter(zip(apps, machines)).items():
            _release(self.app_machines, app_id, machine_id, n)
            _release(self.machine_apps, machine_id, app_id, n)
        # All containers of an application are identical (the IL
        # premise): one demand row per application, from its first
        # departing container, gathered per container by an inverse index.
        first = dict(zip(apps[::-1], gone[::-1]))
        slot = dict(zip(first, itertools.count()))
        resources = self.topology.resources
        table = np.array([c.demand_vector(resources) for c in first.values()])
        idx = np.asarray(machines, dtype=np.int64)
        rows = table[list(map(slot.__getitem__, apps))]
        np.add.at(self.available, idx, rows)
        # an int32 operand keeps ``ufunc.at`` on its fast path
        np.subtract.at(self.container_count, idx, np.int32(1))
        self.touch_block(idx)
        if self.events is not None:
            for cid, machine_id in zip(present, machines):
                self._record(EventKind.EVICT, cid, machine_id)
        return len(present)

    def deploy_block(
        self, containers, machines, counts, demand: np.ndarray
    ) -> None:
        """Deploy ``containers`` along the placement runs ``machines`` /
        ``counts``: the first ``counts[0]`` on ``machines[0]``, the next
        ``counts[1]`` on ``machines[1]``, and so on.

        The one ledger commit: the batch kernel hands its plan here
        unexpanded, and :meth:`deploy` commits through it as one run of
        one.  The containers are one application block sharing a single
        ``demand`` vector, and the caller has already established
        feasibility (the kernel plans within per-machine fit quotas over
        admitting machines), so :meth:`deploy`'s capacity and
        anti-affinity prechecks are replaced by one vectorised capacity
        guard over the run machines.  The maps and ``container_count``
        move once per run; ``available`` still takes one ``demand`` per
        container, in order (unbuffered :func:`np.subtract.at` over the
        expanded ids — ``n * demand`` would round differently), and the
        dirty log gets one entry per container: bit-identical to
        deploying the containers one by one.

        Raises ``ValueError`` before mutating anything when the runs do
        not cover the containers, a container is already deployed, an
        id repeats within the block, or the block mixes applications.
        Raises ``ValueError`` with the block's resource updates rolled
        back if any run machine would go negative — a planner that trips
        this guard has a bug (the guard is exact: ``available`` only
        decreases within the block, so a non-negative end state implies
        every intermediate state was feasible too).
        """
        k = len(containers)
        if len(machines) != len(counts) or sum(counts) != k or (
            k and min(counts) < 1
        ):
            raise ValueError(
                f"deploy_block got {k} containers for runs of {list(counts)}"
            )
        if k == 0:
            return
        assignment = self.assignment
        app_id = containers[0].app_id
        cids = [c.container_id for c in containers if c.app_id == app_id]
        if len(cids) != k:
            raise ValueError(
                "deploy_block got containers of more than one application"
            )
        if k > 1 and len(set(cids)) != k:
            raise ValueError("deploy_block got a container id twice")
        if not assignment.keys().isdisjoint(cids):
            cid = next(cid for cid in cids if cid in assignment)
            raise ValueError(
                f"container {cid} is already deployed on machine "
                f"{assignment[cid]}"
            )
        available = self.available
        if k == 1:
            # A run of one (every :meth:`deploy`): one row subtraction
            # leaves the bits the unbuffered ufunc leaves.
            mlist, nlist = [int(machines[0])], [1]
            left = available[mlist[0]] - demand
            bad = mlist if min(left.tolist()) < 0.0 else []
            if not bad:
                available[mlist[0]] = left
                self.container_count[mlist[0]] += 1
        else:
            rows = np.array(machines, dtype=np.int64)
            idx = rows if rows.size == k else rows.repeat(counts)
            # Snapshot the run rows before mutating (a machine in two
            # runs is restored to the same row): rolling back by
            # re-adding the demand is not bit-exact in floating point
            # (a - b + b need not equal a), restoring is.
            before = available.take(rows, axis=0)
            np.subtract.at(available, idx, demand)
            after = available.take(rows, axis=0)
            bad = []
            if min(after.ravel().tolist()) < 0.0:
                bad = rows[(after < 0.0).any(axis=1)].tolist()
                available[rows] = before
            else:
                np.add.at(
                    self.container_count, rows, np.array(counts, dtype=np.int32)
                )
            mlist, nlist = rows.tolist(), list(map(int, counts))
        if bad:
            raise ValueError(
                f"deploy_block plan overcommits machines {sorted(set(bad))}: "
                "the caller must establish feasibility before the block "
                "commit"
            )
        runs = map(itertools.repeat, mlist, nlist)
        assignment.update(zip(cids, itertools.chain(*runs)))
        self._containers.update(zip(cids, containers))
        machine_containers = self.machine_containers
        per_machine = self.app_machines.setdefault(app_id, {})
        end = 0
        for machine_id, n in zip(mlist, nlist):
            start, end = end, end + n
            machine_containers.setdefault(machine_id, {}).update(
                dict.fromkeys(cids[start:end])
            )
            per_machine[machine_id] = per_machine.get(machine_id, 0) + n
            _book(self.machine_apps, machine_id, app_id, n)
        if k == 1:
            self.touch(mlist[0])
        else:
            self.touch_block(idx)
        self.note_arrival(app_id, mlist)
        if self.events is not None:
            for cid in cids:
                self._record(EventKind.DEPLOY, cid, assignment[cid])

    def note_arrival(self, app_id: int, machines: list[int]) -> None:
        """Note for the violation tally, while there is one, that a block
        of ``app_id`` landed on ``machines`` — if a rule names ``app_id``:
        an unconstrained arrival cannot make an offender."""
        tally = self._violations
        if tally is not None and self.constraints.constrained(app_id):
            tally.arrivals.append((app_id, machines))

    def migrate(self, container_id: int, target_machine: int) -> None:
        """Move a deployed container to ``target_machine`` atomically.

        When the target refuses it (no room, an anti-affinity
        violation, no such machine) the error propagates with the
        container back on its source machine — as that machine's newest
        resident, and with ``available`` restored up to the rounding of
        one evict/deploy pair.
        """
        source = self.assignment.get(container_id)
        if source is None:
            raise KeyError(f"container {container_id} is not deployed")
        container = self.evict(container_id)
        try:
            self.deploy(container, target_machine)
        except Exception:
            # forced: the source held it a moment ago, legally or not
            self.deploy(container, source, force=True)
            raise
        self._record(EventKind.MIGRATE, container_id, target_machine, source)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def used_machines(self) -> int:
        """Number of machines hosting at least one container."""
        return int((self.container_count > 0).sum())

    def used_utilization(self, dim: int = 0) -> np.ndarray:
        """Utilisation of only the machines that host containers."""
        used = np.flatnonzero(self.container_count > 0)
        cap = self.topology.capacity[:, dim][used]
        return (cap - self.available[:, dim][used]) / cap

    def anti_affinity_violations(self) -> int:
        """Count deployed containers whose placement breaks a rule.

        Each offending container counts once (a machine hosting two
        containers of a within-anti-affinity app contributes two; for
        rack-scoped rules the co-location domain is the rack).

        The count is kept as a tally per machine and per rack-scoped
        application, and each call recounts only where the count can
        have changed since the previous call.  An eviction can only
        clear offenders, so of the machines the change feed
        (:meth:`advance`) reports only those holding a stored offender
        are recounted.  A new offender needs a constrained arrival —
        the blocks :meth:`deploy_block` notes for the tally — that is
        still on its machine and there clashes with a resident or
        doubles a machine-scoped within-application; those machines are
        recounted too, and a rack-scoped arrival re-asks its racks.
        Everything is recounted (the same helpers over every machine)
        on the first call, after log compaction has passed the tally's
        cursor, and when :attr:`ConstraintSet.revision` moved; a
        :meth:`snapshot` or restored state starts without a tally, and
        a state without one notes no arrivals.

        Unlike the other queries this one **writes** to the state (the
        tally).  Its callers (``apply_window``, ``core.validate``, the
        CLI's exit-time print) all run on the thread that mutates the
        state; in ``serve`` that is the event loop, between windows.
        """
        cs = self.constraints
        tally = self._violations
        raw = None
        if tally is not None and tally.revision == cs.revision:
            raw = self.advance(tally.cursor)
        if raw is None:
            tally = self._violations = _ViolationTally(
                cs.revision, self.cursor()
            )
            machines = list(self.machine_containers)
            racks = [
                app_id for app_id in self.app_machines
                if cs.has_within(app_id) and cs.within_scope(app_id) == "rack"
            ]
        elif raw.size == 0:
            return tally.total
        else:
            machines, racks = self._suspects(tally, raw)
        offenders = self._machine_offenders(machines)
        for machine_id, count in zip(machines, offenders):
            tally.store(tally.per_machine, machine_id, count)
        for app_id in racks:
            tally.store(tally.per_rack_app, app_id, self._rack_offenders(app_id))
        return tally.total

    def _suspects(
        self, tally: _ViolationTally, raw: np.ndarray
    ) -> tuple[list[int], set[int]]:
        """The machines and rack-scoped applications whose counts can
        have moved since ``tally`` was exact, ``raw`` the change feed
        since then; takes the tally's arrivals."""
        cs = self.constraints
        machines: set[int] = set()
        if tally.per_machine:
            stored = np.fromiter(tally.per_machine, np.int64)
            machines.update(stored[np.isin(stored, raw)].tolist())
        racks = set(tally.per_rack_app)
        # one probe per (arrival still on its machine, constrained
        # resident), all asked at once
        probes: list[int] = []  # machine
        rows: list[int] = []  # the arrival's row of ``pos``
        others: list[int] = []  # the resident's
        pos, hosted_on = cs.pos, self.machine_apps.get
        arrivals, tally.arrivals = tally.arrivals, []
        for app_id, hosts in arrivals:
            scope = cs.has_within(app_id) and cs.within_scope(app_id)
            if scope == "rack":
                racks.add(app_id)
            row = pos.get(app_id)
            for m in hosts:
                hosted = hosted_on(m)
                if not hosted or app_id not in hosted:
                    continue
                if scope == "machine" and hosted[app_id] > 1:
                    machines.add(m)
                elif row is not None:
                    common = pos.keys() & hosted.keys()
                    common.discard(app_id)
                    probes += itertools.repeat(m, len(common))
                    rows += itertools.repeat(row, len(common))
                    others += map(pos.__getitem__, common)
        if probes:
            hit = cs.conflicting(np.array(rows), np.array(others))
            machines.update(itertools.compress(probes, hit.tolist()))
        return list(machines), racks

    def _machine_offenders(self, machines: list[int]) -> list[int]:
        """Containers on each of ``machines`` that break a machine-scoped
        rule: two of one within-anti-affinity application, or any of an
        application sharing the machine with one it conflicts with.

        Only a machine hosting two constrained applications can break a
        cross-application rule; their pairs are asked all at once."""
        cs = self.constraints
        pos = cs.pos
        offenders = [0] * len(machines)
        counted: set[tuple[int, int]] = set()  # (slot, app) of a within-rule
        slots: list[int] = []  # per constrained application of a machine
        found: list[int] = []  # hosting two or more
        for slot, machine_id in enumerate(machines):
            apps = self.machine_apps.get(machine_id, {})
            for app, count in apps.items():
                if (
                    count > 1
                    and cs.has_within(app)
                    and cs.within_scope(app) == "machine"
                ):
                    offenders[slot] += count
                    counted.add((slot, app))
            constrained = pos.keys() & apps.keys()
            if len(constrained) > 1:
                slots += itertools.repeat(slot, len(constrained))
                found += constrained
        if found:
            hit = cs.clashing(slots, list(map(pos.__getitem__, found)))
            for slot, app in zip(
                itertools.compress(slots, hit), itertools.compress(found, hit)
            ):
                if (slot, app) not in counted:  # an offender counts once
                    offenders[slot] += self.machine_apps[machines[slot]][app]
        return offenders

    def _rack_offenders(self, app_id: int) -> int:
        """Containers of rack-scoped ``app_id`` that share a rack with
        a sibling."""
        per_machine = self.app_machines.get(app_id)
        if not per_machine:
            return 0
        rack_of = self.topology.rack_of
        rack_counts: dict[int, int] = {}
        for m, count in per_machine.items():
            rack = int(rack_of[m])
            rack_counts[rack] = rack_counts.get(rack, 0) + count
        return sum(count for count in rack_counts.values() if count > 1)

    def snapshot(self) -> "ClusterState":
        """Deep-copy the mutable state (topology/constraints are shared).

        The clone gets a fresh :attr:`state_uid` and an empty dirty log:
        a cursor taken on the original advances to "rebuild" on the
        clone, so consumers handed the clone start cold — stale
        cross-talk is impossible.
        """
        clone = ClusterState(self.topology, self.constraints)
        clone.available = self.available.copy()
        clone.container_count = self.container_count.copy()
        clone.assignment = dict(self.assignment)
        clone._containers = dict(self._containers)
        clone.machine_containers = {
            m: dict(d) for m, d in self.machine_containers.items()
        }
        clone.app_machines = {
            a: dict(d) for a, d in self.app_machines.items()
        }
        clone.machine_apps = {
            m: dict(d) for m, d in self.machine_apps.items()
        }
        return clone

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint_payload(self) -> dict:
        """Serialisable image of the mutable state, including the dirty
        log and its compaction base.

        The dirty log is persisted *verbatim* with its exact version
        numbering: consumer checkpoints (machine index, rescue kernel)
        store the versions they are synced at, and restoring both sides
        together keeps those positions valid — a cursor rebound to the
        restored state at its persisted version advances over the log
        instead of rebuilding cold.  ``available`` is copied out, so the
        image does not move with the live state.
        """
        return {
            "n_machines": self.n_machines,
            "n_dims": int(self.available.shape[1]),
            "available": np.array(self.available),
            "container_count": self.container_count.copy(),
            "assignment": dict(self.assignment),
            "containers": dict(self._containers),
            "machine_containers": {
                m: list(d) for m, d in self.machine_containers.items()
            },
            "app_machines": {a: dict(d) for a, d in self.app_machines.items()},
            "version": self.version,
            "dirty_log": self._log_buf[: self._log_len].tolist(),
            "log_base": self._log_base,
            "clock": self._clock,
            "events": self.events,
        }

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        topology: ClusterTopology,
        constraints: ConstraintSet | None = None,
    ) -> "ClusterState":
        """Rebuild a state from :meth:`checkpoint_payload`.

        The restored state gets a **fresh** :attr:`state_uid` (uids are
        process-local): a cursor taken on the original advances to
        "rebuild" here until it is rebound to the new uid explicitly.
        Topology and constraints are not serialised — the caller
        re-derives them (they are static) and a machine-count mismatch
        is rejected up front.  ``machine_apps`` is not in the payload
        either; it is rebuilt from ``app_machines``.
        Containers a format-1 snapshot loaded as placeholders are rebuilt
        as :class:`Container` tuples (see :mod:`repro.cluster.snapshot`).
        """
        from repro.cluster.snapshot import SnapshotError

        if payload["n_machines"] != topology.n_machines:
            raise SnapshotError(
                f"snapshot holds {payload['n_machines']} machines, "
                f"topology has {topology.n_machines}"
            )
        if payload["n_dims"] != topology.capacity.shape[1]:
            raise SnapshotError(
                f"snapshot holds {payload['n_dims']} resource dims, "
                f"topology has {topology.capacity.shape[1]}"
            )
        state = cls(topology, constraints)
        state.available = np.array(payload["available"], dtype=np.float64)
        state.container_count = np.array(
            payload["container_count"], dtype=np.int32
        )
        state.assignment = dict(payload["assignment"])
        state._containers = {
            cid: c if type(c) is Container else Container(**vars(c))
            for cid, c in payload["containers"].items()
        }
        state.machine_containers = {
            m: {cid: None for cid in cids}
            for m, cids in payload["machine_containers"].items()
        }
        state.app_machines = {
            a: dict(d) for a, d in payload["app_machines"].items()
        }
        for app_id, per_machine in state.app_machines.items():
            for machine_id, n in per_machine.items():
                _book(state.machine_apps, machine_id, app_id, n)
        state.version = payload["version"]
        log = np.asarray(payload["dirty_log"], dtype=np.int64)
        if log.size > state._log_buf.size:
            state._grow_log(log.size)
        state._log_buf[: log.size] = log
        state._log_len = int(log.size)
        state._log_base = payload["log_base"]
        state._clock = payload["clock"]
        state.events = payload["events"]
        return state

    def save(self, path: str) -> None:
        """Write a checksummed snapshot of this state to ``path``
        (atomic write-rename; see :mod:`repro.cluster.snapshot`)."""
        from repro.cluster.snapshot import write_snapshot

        write_snapshot(path, self.checkpoint_payload(), kind="cluster-state")

    @classmethod
    def restore(
        cls,
        path: str,
        topology: ClusterTopology,
        constraints: ConstraintSet | None = None,
    ) -> "ClusterState":
        """Load a state saved by :meth:`save`, verifying its checksum."""
        from repro.cluster.snapshot import read_snapshot

        return cls.from_payload(
            read_snapshot(path, kind="cluster-state"), topology, constraints
        )

    def _record(
        self,
        kind: EventKind,
        container_id: int,
        machine_id: int,
        source_machine: int | None = None,
    ) -> None:
        if self.events is not None:
            self._clock += 1
            self.events.append(
                Event(
                    kind=kind,
                    time=self._clock,
                    container_id=container_id,
                    machine_id=machine_id,
                    source_machine=source_machine,
                )
            )
