"""Batched state mutations (`evict_block` / `deploy_block` / `touch_block`).

The churn fast path commits whole windows and whole application blocks
through one vectorised mutation instead of a per-container Python loop.
These tests pin the contract that makes that safe: every block method is
**bit-identical** to its scalar fallback applied per element in order
(``np.add.at``/``np.subtract.at`` are unbuffered, so per-occurrence
updates apply in exactly the loop's sequence), and the documented edge
cases — absent ids, empty blocks, overcommitted plans — degrade the way
the shared window logic relies on.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Container
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from tests.cluster.test_violation_tally import (
    PerContainerState,
    assert_ledgers_identical,
    recount_machine_apps,
)


def container(cid, app=0, cpu=4.0, prio=0):
    return Container(
        container_id=cid, app_id=app, instance=0, cpu=cpu, mem_gb=cpu * 2,
        priority=prio,
    )


@pytest.fixture
def topo():
    return build_cluster(8)


@pytest.fixture
def constraints():
    return ConstraintSet([AntiAffinityRule(0, 0)])


def fresh_pair(topo, constraints):
    """Two independent states with identical starting populations."""
    states = []
    for _ in range(2):
        state = ClusterState(topo, constraints)
        state.deploy(container(0, app=0, cpu=4.0), 1)
        state.deploy(container(1, app=1, cpu=8.0), 2)
        state.deploy(container(2, app=1, cpu=8.0), 2)
        state.deploy(container(3, app=2, cpu=2.0), 4)
        state.deploy(container(4, app=2, cpu=2.0), 1)
        states.append(state)
    return states


def assert_states_identical(a: ClusterState, b: ClusterState) -> None:
    assert a.assignment == b.assignment
    assert (a.available == b.available).all()  # bitwise, not allclose
    assert (a.container_count == b.container_count).all()
    assert a.version == b.version
    assert a.checkpoint_payload()["dirty_log"] == b.checkpoint_payload()["dirty_log"]
    assert {m: list(c) for m, c in a.machine_containers.items() if c} == {
        m: list(c) for m, c in b.machine_containers.items() if c
    }
    assert a.app_machines == b.app_machines


class TestEvictBlock:
    def test_bit_identical_to_scalar_loop(self, topo, constraints):
        batched, scalar = fresh_pair(topo, constraints)
        ids = [4, 0, 2]  # deliberately out of deployment order
        assert batched.evict_block(ids) == 3
        for cid in ids:
            scalar.evict(cid)
        assert_states_identical(batched, scalar)

    def test_absent_ids_skipped_not_fatal(self, topo, constraints):
        state, _ = fresh_pair(topo, constraints)
        # 999 was never deployed; 0 is evicted twice (absent second time)
        assert state.evict_block([0, 999]) == 1
        assert state.evict_block([0, 999]) == 0
        assert 0 not in state.assignment

    def test_empty_block_is_a_no_op(self, topo, constraints):
        state, _ = fresh_pair(topo, constraints)
        before = state.version
        assert state.evict_block([]) == 0
        assert state.evict_block([999]) == 0  # all-absent is empty too
        assert state.version == before

    def test_events_recorded_per_container(self, topo, constraints):
        state = ClusterState(topo, constraints, track_events=True)
        state.deploy(container(0, app=0), 1)
        state.deploy(container(1, app=0), 2)
        from repro.cluster.events import EventKind

        state.evict_block([0, 1])
        evicts = state.events.of_kind(EventKind.EVICT)
        assert [(e.container_id, e.machine_id) for e in evicts] == [
            (0, 1), (1, 2)
        ]


class TestDeployBlock:
    def test_bit_identical_to_scalar_loop(self, topo, constraints):
        batched, scalar = fresh_pair(topo, constraints)
        block = [container(10 + i, app=5, cpu=3.0) for i in range(6)]
        demand = block[0].demand_vector(topo.resources)
        batched.deploy_block(block, [0, 3, 0, 5], [2, 1, 2, 1], demand)
        for c, m in zip(block, [0, 0, 3, 0, 0, 5]):
            scalar.deploy(c, m)
        assert_states_identical(batched, scalar)

    def test_empty_block_is_a_no_op(self, topo, constraints):
        state, _ = fresh_pair(topo, constraints)
        before = state.version
        state.deploy_block([], [], [], np.zeros(2))
        assert state.version == before

    def test_length_mismatch_rejected(self, topo, constraints):
        state, _ = fresh_pair(topo, constraints)
        demand = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="containers for"):
            state.deploy_block([container(10)], [0, 1], [1, 1], demand)

    @pytest.mark.parametrize(
        "machines, counts",
        [([0], [2]), ([0, 1], [1]), ([0, 1], [2, -1]), ([0, 1], [1, 0])],
    )
    def test_runs_that_miss_the_containers_rejected(
        self, topo, constraints, machines, counts
    ):
        """Runs must cover the block exactly, each with a count of at
        least one: a zero run would book an empty resident entry."""
        state, untouched = fresh_pair(topo, constraints)
        demand = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="containers for"):
            state.deploy_block([container(10)], machines, counts, demand)
        assert_states_identical(state, untouched)

    def test_duplicate_assignment_rejected(self, topo, constraints):
        state, _ = fresh_pair(topo, constraints)
        demand = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="already"):
            state.deploy_block(
                [container(0, app=9, cpu=1.0)],  # id 0 is deployed
                [3],
                [1],
                demand,
            )

    def test_repeated_id_rejected_before_any_mutation(self, topo, constraints):
        """A container listed twice used to be booked on both machines
        while ``assignment`` kept only the second: a phantom resident
        that outlived the container's eviction."""
        state, untouched = fresh_pair(topo, constraints)
        c = container(10, app=5, cpu=4.0)
        demand = c.demand_vector(topo.resources)
        with pytest.raises(ValueError, match="twice"):
            state.deploy_block([c, c], [1, 2], [1, 1], demand)
        assert_states_identical(state, untouched)
        assert state.machine_apps == untouched.machine_apps

    def test_mixed_applications_rejected_before_any_mutation(
        self, topo, constraints
    ):
        """The block is booked at one ``demand`` under one application,
        so a second application in it would be mis-booked."""
        state, untouched = fresh_pair(topo, constraints)
        block = [container(10, app=5, cpu=4.0), container(11, app=6, cpu=4.0)]
        demand = block[0].demand_vector(topo.resources)
        with pytest.raises(ValueError, match="more than one application"):
            state.deploy_block(block, [3, 5], [1, 1], demand)
        assert_states_identical(state, untouched)
        assert state.machine_apps == untouched.machine_apps

    def test_overcommit_rolls_back_and_raises(self, topo, constraints):
        state, _ = fresh_pair(topo, constraints)
        before = state.available.copy()
        big = float(state.available[3, 0]) + 1.0
        block = [container(20, app=7, cpu=big)]
        demand = block[0].demand_vector(topo.resources)
        with pytest.raises(ValueError, match="overcommit"):
            state.deploy_block(block, [3], [1], demand)
        assert (state.available == before).all()
        assert 20 not in state.assignment

    def test_overcommit_rollback_is_bit_exact(self, topo, constraints):
        """Rolling back by re-adding the demand is not bit-exact in
        floating point (``a - b + b`` need not equal ``a``); the block
        must restore the snapshot instead (ISSUE 10 satellite).

        The values are chosen so the old re-add rollback provably
        diverges: with 0.01 CPU left, two subtractions of 0.1 followed
        by two additions of 0.1 do not round-trip in float64.
        """
        state = ClusterState(topo, constraints)
        # Leave machine 2 nearly full so two block placements overcommit.
        state.deploy(container(0, app=0, cpu=31.99), 2)
        x = float(state.available[2, 0])
        # Find a demand whose subtract-thrice/add-thrice walk over the
        # actual remainder does not round-trip (plenty exist; the first
        # hit keeps the test deterministic).
        cpu = next(
            d for d in (k / 100 for k in range(1, 700))
            if (((x - d) - d) - d) + d + d + d != x
        )
        before = state.available.copy()
        block = [
            container(10, app=5, cpu=cpu),
            container(11, app=5, cpu=cpu),
            container(12, app=5, cpu=cpu),
            container(13, app=5, cpu=cpu),
        ]
        demand = block[0].demand_vector(topo.resources)
        with pytest.raises(ValueError, match="overcommit"):  # 2 overcommits
            state.deploy_block(block, [4, 2], [1, 3], demand)
        assert state.available.tobytes() == before.tobytes()
        assert not any(c.container_id in state.assignment for c in block)

    def test_monotonic_guard_catches_mid_block_overcommit(
        self, topo, constraints
    ):
        """Two placements that individually fit but jointly overcommit
        one machine must be rejected — the end-state guard is exact
        because ``available`` only decreases within a block."""
        state, _ = fresh_pair(topo, constraints)
        room = float(state.available[5, 0])
        cpu = room * 0.6  # one fits, two do not
        block = [container(30, app=8, cpu=cpu), container(31, app=8, cpu=cpu)]
        demand = block[0].demand_vector(topo.resources)
        with pytest.raises(ValueError, match="overcommit"):
            state.deploy_block(block, [5], [2], demand)
        assert 30 not in state.assignment and 31 not in state.assignment

    def test_a_run_of_one_that_overcommits_changes_nothing(
        self, topo, constraints
    ):
        state, _ = fresh_pair(topo, constraints)
        state.anti_affinity_violations()  # a tally, which notes arrivals
        before = state.snapshot()
        version = state.version
        big = container(40, app=0, cpu=float(state.available[1, 0]) + 1.0)
        with pytest.raises(ValueError, match=r"overcommits machines \[1\]"):
            state.deploy_block([big], [1], [1], big.demand_vector(topo.resources))
        assert state.available.tobytes() == before.available.tobytes()
        assert state.container_count.tolist() == before.container_count.tolist()
        assert (state.assignment, state.machine_apps) == (
            before.assignment, before.machine_apps
        )
        assert state.version == version and not state._violations.arrivals


class TestRunLedgerTwin:
    """Run-form commits held, in lockstep, to the per-container ledger.

    :class:`PerContainerState` books every container on its own (its
    ``deploy_block`` expands the runs first), so each step must leave
    both ledgers bitwise equal — ``available``, ``container_count``,
    every map in the order its readers see — and both change feeds with
    the same slice: one entry per container, in order.
    """

    SHAPES = (0.1, 0.3, 0.7, 1.5, 4.0)  # fractional: rounding shows

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_replay_matches_the_per_container_twin(self, seed):
        r = random.Random(seed)
        topo = build_cluster(6, machines_per_rack=3)
        state = ClusterState(topo, track_events=True)
        twin = PerContainerState(topo, track_events=True)
        reached: Counter[str] = Counter()
        next_cid = 0
        for _ in range(400):
            cursors = (state.cursor(), twin.cursor())
            op = r.random()
            expected: list[int] = []
            if op < 0.5:
                cpu, app = r.choice(self.SHAPES), r.randrange(1, 9)
                machines = [r.randrange(6) for _ in range(r.randint(1, 3))]
                if len(machines) > 1 and r.random() < 0.3:
                    machines[-1] = machines[0]
                counts = [r.randint(1, 6) for _ in machines]
                block = [
                    container(next_cid + i, app=app, cpu=cpu)
                    for i in range(sum(counts))
                ]
                next_cid += len(block)
                demand = block[0].demand_vector(topo.resources)
                outcome = self.both(
                    state, twin,
                    lambda s: s.deploy_block(block, machines, counts, demand),
                )
                if outcome is None:
                    expected = np.repeat(machines, counts).tolist()
                    reached["run of several"] += max(counts) > 1
                    reached["a machine in two runs"] += (
                        len(set(machines)) < len(machines)
                    )
                else:
                    reached["rolled back"] += 1
            elif op < 0.75:
                c = container(next_cid, app=r.randrange(1, 9),
                              cpu=r.choice(self.SHAPES))
                next_cid += 1
                m = r.randrange(6)
                outcome = self.both(state, twin, lambda s: s.deploy(c, m))
                if outcome is None:
                    expected = [m]
                    reached["deploy as a run of one"] += 1
                else:
                    reached["deploy refused"] += 1
            else:
                cids = list(state.assignment)
                picked = r.sample(cids, min(len(cids), r.randint(1, 12)))
                expected = [state.assignment[cid] for cid in picked]
                self.both(state, twin, lambda s: s.evict_block(picked))
            assert_ledgers_identical(state, twin)
            assert state.machine_apps == recount_machine_apps(state)
            assert [
                (e.kind, e.time, e.container_id, e.machine_id) for e in state.events
            ] == [(e.kind, e.time, e.container_id, e.machine_id) for e in twin.events]
            feeds = [s.advance(c).tolist() for s, c in zip((state, twin), cursors)]
            assert feeds[0] == feeds[1] == expected
        missing = [
            situation
            for situation in (
                "run of several", "a machine in two runs", "rolled back",
                "deploy as a run of one", "deploy refused",
            )
            if not reached[situation]
        ]
        assert not missing, f"seed {seed} never reached: {missing}"

    @staticmethod
    def both(state, twin, act):
        """``act`` on both ledgers: None, or the refusal both raised."""
        outcomes = []
        for s in (state, twin):
            try:
                act(s)
                outcomes.append(None)
            except ValueError as error:
                outcomes.append(type(error))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_deploy_commits_one_run_of_one(self, topo, constraints, monkeypatch):
        state = ClusterState(topo, constraints)
        calls = []
        commit = ClusterState.deploy_block

        def recording(self, containers, machines, counts, demand):
            calls.append((list(containers), list(machines), list(counts)))
            return commit(self, containers, machines, counts, demand)

        monkeypatch.setattr(ClusterState, "deploy_block", recording)
        c = container(40, app=3, cpu=2.0)
        state.deploy(c, 4)
        assert calls == [([c], [4], [1])]
        assert state.assignment == {40: 4}

    def test_a_run_takes_its_demand_once_per_container(self, topo, constraints):
        """Four 0.1-CPU containers on one machine leave what four
        subtractions leave, not ``capacity - 4 * demand`` (which rounds
        differently in the last bit)."""
        state = ClusterState(topo, constraints)
        block = [container(50 + i, app=6, cpu=0.1) for i in range(4)]
        demand = block[0].demand_vector(topo.resources)
        state.deploy_block(block, [6], [4], demand)
        row = topo.capacity[6].copy()
        for _ in block:
            row = row - demand
        assert state.available[6].tobytes() == row.tobytes()
        assert (topo.capacity[6] - 4 * demand).tobytes() != row.tobytes()
        assert state.container_count[6] == 4
        assert state.app_machines[6] == {6: 4}
        assert list(state.machine_containers[6]) == [50, 51, 52, 53]


class TestTouchBlock:
    def test_matches_scalar_touch_sequence(self, topo, constraints):
        a, b = fresh_pair(topo, constraints)
        ids = [3, 3, 0, 7]
        a.touch_block(np.asarray(ids, dtype=np.int64))
        for m in ids:
            b.touch(m)
        assert a.version == b.version
        assert a.checkpoint_payload()["dirty_log"] == b.checkpoint_payload()["dirty_log"]

    def test_block_append_compacts_like_scalar(self, topo, constraints):
        state = ClusterState(topo, constraints)
        limit = state._log_limit
        since = state.cursor()
        state.touch_block(np.zeros(limit + 10, dtype=np.int64))
        # The log compacted (dropped its oldest half) but the version
        # kept counting every touch.
        assert state.version == limit + 10
        assert len(state.checkpoint_payload()["dirty_log"]) <= limit
        # Cursors older than the compaction base get the
        # degrade-to-recompute signal, never a partial slice.
        assert state.advance(since) is None
