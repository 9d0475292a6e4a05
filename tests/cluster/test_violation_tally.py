"""The violation tally against a brute-force recount, and the resident
ledger against its per-container form.

``ClusterState.anti_affinity_violations`` answers from a tally it
repairs over the dirty log.  What makes that safe is one invariant —
after *any* sequence of mutations, queried at *any* subset of points,
the tally equals a recount from scratch — and this module checks it
three ways: a hypothesis state machine over every mutator the program
has, a seeded replay of the same operations (fast, and the same in
every CI run), and a handful of pointed cases (late rule, failed
migrate, no work when nothing is dirty).

The same operations run in lockstep on a twin, :class:`PerContainerState`,
whose mutators and Equation 7–8 point checks are the per-container
bodies the block mutators replaced: after every step the two ledgers
must agree bit for bit and in every iteration order a reader sees, and
``machine_apps`` must equal a recount from the residents.  Every step
also holds the state's change feed to its coverage: a cursor taken
before the step advances to a slice naming every machine the step
changed, or to "rebuild".

:func:`recount_violations` is the pre-tally implementation, moved here
verbatim: the reference the tally is held to, also imported by
``tests/core/test_validate.py``.
"""

from __future__ import annotations

import copy
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.baselines.firmament import FirmamentScheduler
from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Container
from repro.cluster.events import EventKind
from repro.cluster.power import PowerConfig, PowerManager
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.sim.faults import fail_machines, machine_is_down, repair_machines


def recount_violations(state: ClusterState) -> int:
    """Count deployed containers whose placement breaks a rule.

    Each offending container counts once (a machine hosting two
    containers of a within-anti-affinity app contributes two; for
    rack-scoped rules the co-location domain is the rack).
    """
    cs = state.constraints
    violations = 0
    for machine_id, cids in state.machine_containers.items():
        if len(cids) < 2:
            continue
        apps: dict[int, int] = {}
        for cid in cids:
            app = state._containers[cid].app_id
            apps[app] = apps.get(app, 0) + 1
        app_ids = list(apps)
        bad_apps: set[int] = set()
        for i, a in enumerate(app_ids):
            if (
                apps[a] > 1
                and cs.has_within(a)
                and cs.within_scope(a) == "machine"
            ):
                bad_apps.add(a)
            for b in app_ids[i + 1 :]:
                if cs.violates(a, b):
                    bad_apps.add(a)
                    bad_apps.add(b)
        for a in bad_apps:
            violations += apps[a]
    # Rack-scoped within-rules: count containers sharing a rack with
    # a sibling of the same application.
    for app_id, per_machine in state.app_machines.items():
        if not per_machine or not cs.has_within(app_id):
            continue
        if cs.within_scope(app_id) != "rack":
            continue
        rack_counts: dict[int, int] = {}
        for m, count in per_machine.items():
            rack = int(state.topology.rack_of[m])
            rack_counts[rack] = rack_counts.get(rack, 0) + count
        for count in rack_counts.values():
            if count > 1:
                violations += count
    return violations


class PerContainerState(ClusterState):
    """The resident ledger booked one container at a time.

    ``deploy`` / ``evict`` / ``deploy_block`` / ``evict_block`` /
    ``would_violate`` / ``_machine_offenders`` are the bodies that
    preceded the per-run and per-pair forms, kept verbatim (but for
    ``deploy_block`` expanding its runs to one machine per container
    first): the reference the block mutators are held to.  None of them
    reads or writes ``machine_apps``.
    """

    def snapshot(self) -> "PerContainerState":
        clone = super().snapshot()
        clone.__class__ = PerContainerState
        return clone

    def would_violate(self, container: Container, machine_id: int) -> bool:
        cs = self.constraints
        for cid in self.machine_containers.get(machine_id, ()):
            other = self._containers[cid]
            if cs.violates(container.app_id, other.app_id):
                return True
        # Rack-scoped within-rules also forbid rack-mates.
        if (
            cs.has_within(container.app_id)
            and cs.within_scope(container.app_id) == "rack"
        ):
            rack = int(self.topology.rack_of[machine_id])
            for m in self.app_machines.get(container.app_id, ()):
                if int(self.topology.rack_of[m]) == rack:
                    return True
        return False

    def deploy(self, container, machine_id, demand=None, force=False):
        if container.container_id in self.assignment:
            raise ValueError(
                f"container {container.container_id} is already deployed on "
                f"machine {self.assignment[container.container_id]}"
            )
        if demand is None:
            demand = container.demand_vector(self.topology.resources)
        if not self.fits(demand, machine_id):
            raise ValueError(f"machine {machine_id} lacks resources")
        if not force and self.would_violate(container, machine_id):
            raise ValueError("violates an anti-affinity constraint")
        self.available[machine_id] -= demand
        self.container_count[machine_id] += 1
        self.assignment[container.container_id] = machine_id
        self._containers[container.container_id] = container
        self.machine_containers.setdefault(machine_id, {})[
            container.container_id
        ] = None
        per_machine = self.app_machines.setdefault(container.app_id, {})
        per_machine[machine_id] = per_machine.get(machine_id, 0) + 1
        self.touch(machine_id)
        self.note_arrival(container.app_id, [machine_id])
        self._record(EventKind.DEPLOY, container.container_id, machine_id)

    def evict(self, container_id):
        if container_id not in self.assignment:
            raise KeyError(f"container {container_id} is not deployed")
        machine_id = self.assignment.pop(container_id)
        container = self._containers.pop(container_id)
        demand = container.demand_vector(self.topology.resources)
        self.available[machine_id] += demand
        self.container_count[machine_id] -= 1
        self.machine_containers[machine_id].pop(container_id, None)
        per_machine = self.app_machines[container.app_id]
        per_machine[machine_id] -= 1
        if per_machine[machine_id] == 0:
            del per_machine[machine_id]
            if not per_machine:
                del self.app_machines[container.app_id]
        self.touch(machine_id)
        self._record(EventKind.EVICT, container_id, machine_id)
        return container

    def evict_block(self, container_ids):
        assignment = self.assignment
        present: list[int] = []
        picked: set[int] = set()
        for cid in container_ids:
            if cid in assignment and cid not in picked:
                picked.add(cid)
                present.append(cid)
        if not present:
            return 0
        resources = self.topology.resources
        containers = self._containers
        machine_containers = self.machine_containers
        app_machines = self.app_machines
        demand_of: dict[int, np.ndarray] = {}
        machines: list[int] = []
        rows: list[np.ndarray] = []
        for cid in present:
            machine_id = assignment.pop(cid)
            container = containers.pop(cid)
            app_id = container.app_id
            demand = demand_of.get(app_id)
            if demand is None:
                demand = container.demand_vector(resources)
                demand_of[app_id] = demand
            machines.append(machine_id)
            rows.append(demand)
            machine_containers[machine_id].pop(cid, None)
            per_machine = app_machines[app_id]
            per_machine[machine_id] -= 1
            if per_machine[machine_id] == 0:
                del per_machine[machine_id]
                if not per_machine:
                    del app_machines[app_id]
        idx = np.asarray(machines, dtype=np.int64)
        np.add.at(self.available, idx, np.asarray(rows))
        np.subtract.at(self.container_count, idx, 1)
        self.touch_block(idx)
        if self.events is not None:
            for cid, machine_id in zip(present, machines):
                self._record(EventKind.EVICT, cid, machine_id)
        return len(present)

    def deploy_block(self, containers, machines, counts, demand):
        idx = np.repeat(np.asarray(machines, dtype=np.int64), counts)
        k = int(idx.size)
        if k == 0:
            return
        if len(containers) != k:
            raise ValueError("length mismatch")
        assignment = self.assignment
        for container in containers:
            if container.container_id in assignment:
                raise ValueError("already deployed")
        touched = np.unique(idx)
        before = self.available[touched].copy()
        np.subtract.at(self.available, idx, demand)
        short = (self.available[touched] < 0.0).any(axis=1)
        if short.any():
            self.available[touched] = before
            raise ValueError("overcommits")
        np.add.at(self.container_count, idx, 1)
        mlist = idx.tolist()
        machine_containers = self.machine_containers
        app_machines = self.app_machines
        for container, machine_id in zip(containers, mlist):
            cid = container.container_id
            assignment[cid] = machine_id
            self._containers[cid] = container
            machine_containers.setdefault(machine_id, {})[cid] = None
            per_machine = app_machines.setdefault(container.app_id, {})
            per_machine[machine_id] = per_machine.get(machine_id, 0) + 1
        self.touch_block(idx)
        self.note_arrival(containers[0].app_id, list(machines))
        if self.events is not None:
            for container, machine_id in zip(containers, mlist):
                self._record(EventKind.DEPLOY, container.container_id, machine_id)

    def _suspects(self, tally, raw):
        dirty = set(raw.tolist())
        machines = {m for m in tally.per_machine if m in dirty}
        racks = set(tally.per_rack_app)
        cs = self.constraints
        for app, hosts in tally.arrivals:
            if cs.has_within(app) and cs.within_scope(app) == "rack":
                racks.add(app)
            for m in hosts:
                apps = Counter(
                    self._containers[cid].app_id
                    for cid in self.machine_containers.get(m, ())
                )
                doubled = (
                    apps[app] > 1
                    and cs.has_within(app)
                    and cs.within_scope(app) == "machine"
                )
                if apps[app] and (
                    doubled
                    or any(cs.violates(app, other) for other in apps if other != app)
                ):
                    machines.add(m)
        tally.arrivals = []
        return sorted(machines), racks

    def _machine_offenders(self, machines):
        return [self._offenders_on(m) for m in machines]

    def _offenders_on(self, machine_id):
        cids = self.machine_containers.get(machine_id)
        if not cids:
            return 0
        containers = self._containers
        apps: dict[int, int] = {}
        for cid in cids:
            app = containers[cid].app_id
            apps[app] = apps.get(app, 0) + 1
        if len(cids) < 2:
            return 0
        cs = self.constraints
        hosted = apps.keys()
        offenders = 0
        for app, count in apps.items():
            if any(cs.violates(app, other) for other in hosted if other != app) or (
                count > 1
                and cs.has_within(app)
                and cs.within_scope(app) == "machine"
            ):
                offenders += count
        return offenders


def recount_machine_apps(state: ClusterState) -> dict[int, dict[int, int]]:
    """machine -> {app -> residents}, counted from the residents."""
    return {
        m: dict(Counter(state.container(cid).app_id for cid in cids))
        for m, cids in state.machine_containers.items()
        if cids
    }


def assert_ledgers_identical(a: ClusterState, b: ClusterState) -> None:
    """Bitwise resources, equal counts and dirty logs, and every map in
    the iteration order its readers see."""
    assert a.available.tobytes() == b.available.tobytes()
    assert a.container_count.tolist() == b.container_count.tolist()
    assert list(a.assignment.items()) == list(b.assignment.items())
    assert list(a._containers) == list(b._containers)
    assert (a.version, a._log_base, a.checkpoint_payload()["dirty_log"]) == (
        b.version, b._log_base, b.checkpoint_payload()["dirty_log"]
    )
    assert [(m, list(cids)) for m, cids in a.machine_containers.items()] == [
        (m, list(cids)) for m, cids in b.machine_containers.items()
    ]
    assert [(app, list(d.items())) for app, d in a.app_machines.items()] == [
        (app, list(d.items())) for app, d in b.app_machines.items()
    ]


N_MACHINES = 24
N_APPS = 40
#: dirty-log bound forced on every state the world holds, so compaction
#: (and with it the "feed answers rebuild" recount)
#: happens within a dozen mutations instead of after 4096
LOG_LIMIT = 8


def build_rules() -> ConstraintSet:
    """~40 applications: 60 % within-rule (40 % of those rack-scoped),
    15 % of all pairs in conflict.  Fixed draw — the operations vary,
    the rule set they start from does not."""
    r = random.Random(18)
    cs = ConstraintSet()
    for a in range(N_APPS):
        if r.random() < 0.6:
            scope = "rack" if r.random() < 0.4 else "machine"
            cs.add_rule(AntiAffinityRule(a, a), scope=scope)
        for b in range(a + 1, N_APPS):
            if r.random() < 0.15:
                cs.add_rule(AntiAffinityRule(a, b))
    return cs


class World:
    """A small cluster and every way the program mutates one.

    Each operation draws what it needs from the ``random.Random`` it is
    handed — hypothesis' own (``st.randoms``, so failures shrink) or a
    seeded one — and :attr:`reached` records the situations that
    actually occurred, not merely the operations that ran.

    Every mutation is applied to :attr:`state` and, in lockstep, to
    :attr:`twin` (a :class:`PerContainerState`); both must return the
    same thing or refuse alike.
    """

    #: the seeded replay draws from this (deploys weighted up so the
    #: cluster fills); the state machine has one rule per distinct name
    OPS = (
        "deploy", "deploy", "deploy", "deploy", "deploy_block", "deploy_block",
        "evict", "evict_block", "migrate", "migrate", "fault", "power",
        "snapshot", "restore", "late_rule", "firmament", "query", "query",
    )

    def __init__(self) -> None:
        self.topology = build_cluster(N_MACHINES, machines_per_rack=4)
        self.constraints = build_rules()
        self.power_managers = [
            PowerManager(N_MACHINES, PowerConfig(min_on=16)) for _ in range(2)
        ]
        self.failed: set[int] = set()
        self.next_cid = 0
        self.tick = 0
        self.reached: Counter[str] = Counter()
        self.adopt(
            ClusterState(self.topology, self.constraints),
            PerContainerState(self.topology, self.constraints),
        )

    def adopt(self, state: ClusterState, twin: PerContainerState) -> None:
        state._log_limit = twin._log_limit = LOG_LIMIT
        self.state, self.twin = state, twin
        self.asked = False  # whether the state's tally was ever built

    def both(self, act, refusal=()) -> tuple[type | None, object]:
        """``act(state)`` on the state and on its twin, as ``(error
        type or None, result)``; the two outcomes must be equal.

        Only ``refusal`` (``ValueError`` for the mutators that may turn
        a placement down) is an outcome; any other error fails the test.
        """
        outcomes = []
        for state in (self.state, self.twin):
            try:
                outcomes.append((None, act(state)))
            except refusal as error:
                outcomes.append((type(error), None))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    # -- helpers -------------------------------------------------------
    def new_container(self, app: int) -> Container:
        cid = self.next_cid
        self.next_cid += 1
        cpu = float(2 << (app % 3))  # 2, 4 or 8 of a 32-CPU machine
        return Container(
            container_id=cid, app_id=app, instance=0, cpu=cpu, mem_gb=cpu
        )

    def resident(self, r: random.Random) -> int | None:
        cids = list(self.state.assignment)
        return r.choice(cids) if cids else None

    # -- operations ----------------------------------------------------
    def deploy(self, r: random.Random) -> None:
        # forced, and drawn from few machines and few apps, so siblings
        # and conflicting applications really do meet
        for _ in range(r.randint(1, 3)):
            container = self.new_container(r.randrange(N_APPS))
            machine = r.randrange(N_MACHINES)
            error, _ = self.both(
                lambda s: s.deploy(container, machine, force=True), ValueError
            )
            if error is ValueError:
                self.reached["deploy refused (full or down)"] += 1

    def deploy_block(self, r: random.Random) -> None:
        app = r.randrange(N_APPS)
        machines = [r.randrange(N_MACHINES) for _ in range(r.randint(1, 4))]
        if len(machines) > 1 and r.random() < 0.5:
            machines[-1] = machines[0]  # a machine in two runs, mostly
        counts = [r.randint(1, 3) for _ in machines]
        containers = [self.new_container(app) for _ in range(sum(counts))]
        demand = containers[0].demand_vector(self.topology.resources)
        error, _ = self.both(
            lambda s: s.deploy_block(containers, machines, counts, demand),
            ValueError,
        )
        if error is ValueError:
            self.reached["deploy_block rolled back"] += 1
        else:
            if len(set(machines)) < len(machines):
                self.reached["deploy_block placed a machine in two runs"] += 1
            if max(counts) > 1:
                self.reached["deploy_block committed a run of several"] += 1

    def firmament(self, r: random.Random) -> None:
        # a constraint-oblivious flow round forces its placements; the
        # conflict rounds then evict and requeue some of them
        apps = r.sample(range(N_APPS), 3)
        containers = [
            self.new_container(r.choice(apps)) for _ in range(r.randint(2, 8))
        ]
        reschd, seed = r.randint(1, 3), r.randrange(4)
        _, placements = self.both(
            lambda s: FirmamentScheduler(
                reschd=reschd, max_rounds=1, seed=seed
            ).schedule(list(containers), s).placements
        )
        cs, hosted = self.constraints, self.state.machine_apps
        for c in containers:
            apps = hosted.get(placements.get(c.container_id), {})
            if any(cs.violates(c.app_id, other) for other in apps if other != c.app_id) or (
                apps.get(c.app_id, 0) > 1 and cs.violates(c.app_id, c.app_id)
            ):
                self.reached["firmament left a forced violation"] += 1

    def evict(self, r: random.Random) -> None:
        cid = self.resident(r)
        if cid is not None:
            self.both(lambda s: s.evict(cid))

    def evict_block(self, r: random.Random) -> None:
        cids = list(self.state.assignment)
        picked = r.sample(cids, min(len(cids), r.randint(0, 3)))
        if picked:
            self.reached["evict_block with repeated and absent ids"] += 1
        picked += picked[:2]  # duplicates
        picked += [self.next_cid + 7, -1]  # never deployed
        r.shuffle(picked)
        self.both(lambda s: s.evict_block(picked))

    def migrate(self, r: random.Random) -> None:
        cid = self.resident(r)
        if cid is None:
            return
        target = r.randrange(N_MACHINES)
        error, _ = self.both(lambda s: s.migrate(cid, target), ValueError)
        if error is ValueError:
            self.reached["migrate failed and restored"] += 1
            assert cid in self.state.assignment

    def fault(self, r: random.Random) -> None:
        if len(self.failed) > 2 or (self.failed and r.random() < 0.5):
            m = r.choice(sorted(self.failed))
            self.both(lambda s: repair_machines(s, [m]))
            self.failed.discard(m)
            return
        m = r.randrange(N_MACHINES)
        if not machine_is_down(self.state, m):  # failed, or powered off
            _, report = self.both(lambda s: fail_machines(s, [m]))
            if report.displaced:
                self.reached["fault displaced residents"] += 1
            self.failed.add(m)

    def power(self, r: random.Random) -> None:
        # no demand drains idle machines, a large one wakes them: both
        # are bare ``touch`` calls on rows whose residents did not move
        self.tick += 1
        demand = 0.0 if r.random() < 0.4 else 32.0 * N_MACHINES
        steps = [
            manager.step(state, self.tick, demand)
            for manager, state in zip(self.power_managers, (self.state, self.twin))
        ]
        assert steps[0] == steps[1]
        woken, drained, _ = steps[0]
        if woken or drained:
            self.reached["power touched a machine"] += 1

    def snapshot(self, r: random.Random) -> None:
        self.adopt(self.state.snapshot(), self.twin.snapshot())
        self.reached["snapshot"] += 1

    def restore(self, r: random.Random) -> None:
        payload = self.state.checkpoint_payload()
        assert not any("violation" in key for key in payload)
        assert "machine_apps" not in payload
        # the per-container ledger writes the very same checkpoint
        twin_payload = self.twin.checkpoint_payload()
        assert pickle.dumps(payload) == pickle.dumps(twin_payload)
        self.adopt(
            ClusterState.from_payload(payload, self.topology, self.constraints),
            PerContainerState.from_payload(
                twin_payload, self.topology, self.constraints
            ),
        )
        self.reached["restored from a payload without machine_apps"] += 1

    def late_rule(self, r: random.Random) -> None:
        # between two residents of one machine when there are any: the
        # rule that turns placed containers into offenders after the fact
        crowded = [
            cids for cids in self.state.machine_containers.values()
            if len(cids) > 1
        ]
        if crowded:
            a, b = (
                self.state.container(cid).app_id
                for cid in r.sample(list(r.choice(crowded)), 2)
            )
        else:
            a, b = r.randrange(N_APPS), r.randrange(N_APPS)
        before = recount_violations(self.state)
        scope = "rack" if r.random() < 0.4 else "machine"
        self.constraints.add_rule(AntiAffinityRule(a, b), scope=scope)
        if recount_violations(self.state) != before:
            self.reached["late rule changed the count"] += 1

    def query(self, r: random.Random) -> None:
        if self.asked and self.state._violations is None:
            # only a compaction past its cursor drops a built tally
            self.reached["queried past a compaction"] += 1
        self.asked = True
        expected = recount_violations(self.state)
        assert self.state.anti_affinity_violations() == expected
        assert self.twin.anti_affinity_violations() == expected
        if expected:
            self.reached["non-zero count"] += 1
        if self.state._violations.per_rack_app:
            self.reached["rack-scoped offenders"] += 1

    # -- the invariants ------------------------------------------------
    def step(self, op: str, r: random.Random) -> None:
        """Run operation ``op`` and hold the change feed to what it did.

        A cursor taken before the step must be answered with a slice
        naming every machine whose ``available`` row or resident set
        changed, or with ``None`` ("rebuild") — always ``None`` once the
        step replaced the state (snapshot, restore).
        """
        before = self.state
        since = before.cursor()
        available = before.available.copy()
        residents = {m: set(c) for m, c in before.machine_containers.items()}
        getattr(self, op)(r)
        after = self.state
        raw = after.advance(since)
        if after is not before:
            assert raw is None
            return
        if raw is None:
            self.reached["feed answered rebuild"] += 1
            return
        changed = set(
            np.flatnonzero((after.available != available).any(axis=1)).tolist()
        )
        for m in residents.keys() | after.machine_containers.keys():
            if residents.get(m, set()) != set(after.machine_containers.get(m, ())):
                changed.add(m)
        assert changed <= set(raw.tolist()), (op, changed, raw.tolist())
        self.reached["feed answered a slice"] += 1

    def check(self) -> None:
        """What a query *would* answer right now equals the recount, and
        the ledger equals its per-container twin.

        Asked of a probe — the state with a private copy of the tally —
        so the real tally keeps its cursor and the next real query
        still has every mutation since the last one to repair.  The
        Equation 7–8 point check is asked for two applications (rotated
        with the version) on every machine.
        """
        probe = copy.copy(self.state)
        probe._violations = copy.deepcopy(self.state._violations)
        assert probe.anti_affinity_violations() == recount_violations(
            self.state
        )
        assert_ledgers_identical(self.state, self.twin)
        assert self.state.machine_apps == recount_machine_apps(self.state)
        v = self.state.version
        for app in (v % N_APPS, (7 * v + 3) % N_APPS):
            c = Container(container_id=-2, app_id=app, instance=0, cpu=1.0, mem_gb=1.0)
            assert [self.state.would_violate(c, m) for m in range(N_MACHINES)] == [
                self.twin.would_violate(c, m) for m in range(N_MACHINES)
            ]


#: every situation the issue lists must occur, not just every operation
REQUIRED = (
    "non-zero count",
    "rack-scoped offenders",
    "queried past a compaction",
    "restored from a payload without machine_apps",
    "snapshot",
    "deploy_block placed a machine in two runs",
    "deploy_block committed a run of several",
    "evict_block with repeated and absent ids",
    "late rule changed the count",
    "migrate failed and restored",
    "firmament left a forced violation",
    "deploy_block rolled back",
    "fault displaced residents",
    "power touched a machine",
    "feed answered a slice",
    "feed answered rebuild",
)


def _rule_for(op: str):
    def run(self, r):
        self.world.step(op, r)

    run.__name__ = op
    return rule(r=st.randoms(use_true_random=False))(run)


class TallyMachine(RuleBasedStateMachine):
    """Hypothesis picks the operations and feeds their draws."""

    #: summed over every example the run executes
    coverage: Counter[str] = Counter()

    def __init__(self) -> None:
        super().__init__()
        self.world = World()

    @invariant()
    def tally_equals_recount(self) -> None:
        self.world.check()

    def teardown(self) -> None:
        self.coverage.update(self.world.reached)


for _op in sorted(set(World.OPS)):  # one rule per operation
    setattr(TallyMachine, _op, _rule_for(_op))


def test_stateful_tally_equals_recount():
    TallyMachine.coverage.clear()
    run_state_machine_as_test(
        TallyMachine,
        settings=settings(
            max_examples=200, stateful_step_count=80, deadline=None
        ),
    )
    missing = [k for k in REQUIRED if not TallyMachine.coverage[k]]
    assert not missing, f"never reached: {missing}"


@pytest.mark.parametrize("seed", range(20))
def test_seeded_replay_tally_equals_recount(seed):
    r = random.Random(seed)
    world = World()
    for _ in range(400):
        world.step(r.choice(World.OPS), r)
        world.check()
    world.query(r)
    missing = [k for k in REQUIRED if not world.reached[k]]
    assert not missing, f"seed {seed} never reached: {missing}"


# ----------------------------------------------------------------------
# pointed cases
# ----------------------------------------------------------------------
def container(cid, app, cpu=2.0):
    return Container(
        container_id=cid, app_id=app, instance=0, cpu=cpu, mem_gb=cpu * 2
    )


def test_rule_added_after_placement_is_counted_without_a_touch():
    cs = ConstraintSet()
    state = ClusterState(build_cluster(4), cs)
    state.deploy(container(0, app=0), 1)
    state.deploy(container(1, app=1), 1)
    assert state.anti_affinity_violations() == 0
    version = state.version
    cs.add_rule(AntiAffinityRule(0, 1))
    assert state.version == version  # nothing announced the change
    assert state.anti_affinity_violations() == 2


def recounted(monkeypatch) -> list[int]:
    """The machines every later tally query hands ``_machine_offenders``."""
    calls: list[int] = []
    real = ClusterState._machine_offenders

    def counting(self, machines):
        calls.extend(machines)
        return real(self, machines)

    monkeypatch.setattr(ClusterState, "_machine_offenders", counting)
    return calls


def crowded_world() -> World:
    world = World()
    r = random.Random(5)
    for _ in range(60):
        world.deploy(r)
    return world


def test_query_with_nothing_dirty_does_no_per_machine_work(monkeypatch):
    """Only machines holding a stored offender, and machines where a
    constrained arrival now offends, are recounted: a touch, an eviction
    from a clean machine and an arrival that offends no one are not."""
    world = crowded_world()
    state, cs = world.state, world.constraints
    calls = recounted(monkeypatch)
    first = state.anti_affinity_violations()
    assert first == recount_violations(state) > 0
    assert sorted(calls) == sorted(state.machine_containers)  # full count
    calls.clear()
    assert state.anti_affinity_violations() == first
    assert calls == []
    stored = state._violations.per_machine
    offending = min(stored)
    clean = [m for m, cids in state.machine_containers.items() if cids and m not in stored]
    state.evict(next(iter(state.machine_containers[offending])))
    state.evict(next(iter(state.machine_containers[clean[0]])))
    state.touch(clean[1])
    state.touch(clean[1])
    assert state.anti_affinity_violations() == recount_violations(state)
    assert calls == [offending]  # the machine that held an offender, once
    calls.clear()
    # arrivals on clean machines: an application no rule names, one whose
    # partner is resident there, and one that meets no partner
    m, n = clean[2], clean[3]
    resident = next(iter(state.machine_apps[m]))
    partner = next(a for a in range(N_APPS) if cs.violates(a, resident) and a != resident)
    loner = next(
        a for a in range(N_APPS)
        if cs.constrained(a) and a not in state.machine_apps[n]
        and not cs.clashes(a, state.machine_apps[n])
    )
    state.deploy(container(1000, app=N_APPS + 1, cpu=0.5), m, force=True)
    state.deploy(container(1001, app=partner, cpu=0.5), m, force=True)
    state.deploy(container(1002, app=loner, cpu=0.5), n, force=True)
    assert state.anti_affinity_violations() == recount_violations(state)
    assert calls == [m]


def test_a_state_never_asked_notes_no_arrivals():
    state = ClusterState(build_cluster(N_MACHINES, machines_per_rack=4), build_rules())
    for cid in range(10_000):
        state.deploy(container(cid, app=cid % N_APPS, cpu=0.01), cid % N_MACHINES, force=True)
    assert state._violations is None
    assert state.anti_affinity_violations() == recount_violations(state)
    assert state._violations.arrivals == []


def test_compaction_past_the_tally_drops_its_arrivals_and_recounts(monkeypatch):
    world = crowded_world()
    state = world.state
    state.anti_affinity_violations()
    state.evict(next(iter(state.assignment)))
    state.deploy(container(1000, app=0, cpu=0.5), 0, force=True)
    assert state._violations.arrivals  # constrained: app 0 has a rule
    calls = recounted(monkeypatch)
    for _ in range(LOG_LIMIT):
        state.touch(1)
    assert state._violations is None  # dropped with what it noted
    assert state.anti_affinity_violations() == recount_violations(state)
    assert sorted(calls) == sorted(state.machine_containers)


@pytest.mark.parametrize("how", ["snapshot", "restore"])
def test_a_snapshot_or_restored_state_recounts(monkeypatch, how):
    world = crowded_world()
    state = world.state
    state.anti_affinity_violations()
    state.deploy(container(1000, app=0, cpu=0.5), 0, force=True)
    copied = (
        state.snapshot() if how == "snapshot"
        else ClusterState.from_payload(
            state.checkpoint_payload(), world.topology, world.constraints
        )
    )
    assert copied._violations is None
    calls = recounted(monkeypatch)
    assert copied.anti_affinity_violations() == recount_violations(state)
    assert sorted(calls) == sorted(copied.machine_containers)


def test_failed_migrate_puts_the_container_back():
    cs = ConstraintSet([AntiAffinityRule(0, 0)])
    state = ClusterState(build_cluster(4), cs, track_events=True)
    state.deploy(container(0, app=0), 0)
    state.deploy(container(1, app=0), 1)
    state.deploy(container(2, app=1, cpu=30.0), 2)
    state.deploy(container(3, app=2, cpu=4.0), 0)
    before = state.snapshot()
    violations = state.anti_affinity_violations()
    # anti-affinity, no room, no such machine
    for cid, target, error in (
        (0, 1, ValueError), (3, 2, ValueError), (3, 99, IndexError),
    ):
        with pytest.raises(error):
            state.migrate(cid, target)
        assert state.assignment == before.assignment
        assert np.array_equal(state.available, before.available)
        assert np.array_equal(state.container_count, before.container_count)
        assert state.app_machines == before.app_machines
        assert state.machine_containers == before.machine_containers
        assert state.container(cid) == before.container(cid)
        assert state.anti_affinity_violations() == violations
        assert recount_violations(state) == violations
    state.migrate(0, 3)  # and a legal one still moves it
    assert state.assignment[0] == 3
