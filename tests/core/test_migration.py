"""Preemption/migration (Section III.B, Fig. 3 and Fig. 7) tests."""

import numpy as np
import pytest

from repro.base import FailureReason
from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Container
from repro.cluster.machine import MachineSpec
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core.config import AladdinConfig
from repro.core.migration import RescuePlanner
from repro.core.rescuekernel import RescueKernel
from tests.core.rescue_loop import RescueLoop


def container(cid, app, cpu, prio=0):
    return Container(
        container_id=cid, app_id=app, instance=0, cpu=cpu, mem_gb=cpu * 2,
        priority=prio,
    )


def make_state(rules, n_machines=2, cpu=32.0):
    topo = build_cluster(n_machines, machine=MachineSpec(cpu=cpu, mem_gb=cpu * 2))
    return ClusterState(topo, ConstraintSet(rules))


def demand(c, state):
    return c.demand_vector(state.topology.resources)


class TestFig3bMigration:
    def test_blocker_migrates_to_make_room(self):
        """Fig. 3(b): A runs on M; B can only run on M; A moves to N."""
        state = make_state([AntiAffinityRule(0, 1)], n_machines=2)
        a = container(0, app=0, cpu=4, prio=1)
        state.deploy(a, 0)
        # B (app 1) is huge: only machine 0 has room after we load machine 1.
        filler = container(9, app=5, cpu=28)
        state.deploy(filler, 1)
        b = container(1, app=1, cpu=20, prio=0)
        planner = RescuePlanner(state, AladdinConfig(), kernel=RescueKernel())
        outcome = planner.rescue(b, demand(b, state))
        assert outcome.ok and outcome.machine_id == 0
        assert outcome.migrations == 1
        assert state.assignment[0] == 1  # A migrated M -> N
        state.deploy(b, outcome.machine_id)  # caller completes placement

    def test_migration_respects_blocker_constraints(self):
        """A blocker is never moved onto a machine its own rules forbid."""
        state = make_state(
            [AntiAffinityRule(0, 1), AntiAffinityRule(0, 2)], n_machines=2
        )
        state.deploy(container(0, app=0, cpu=4), 0)  # the blocker
        state.deploy(container(1, app=2, cpu=4), 1)  # app 0 conflicts with 2
        state.deploy(container(3, app=5, cpu=10), 1)  # machine 1: 18 CPU free
        b = container(2, app=1, cpu=20)
        planner = RescuePlanner(state, AladdinConfig(), kernel=RescueKernel())
        outcome = planner.rescue(b, demand(b, state))
        # Machine 1 hosts app 2 which conflicts with blocker app 0, and
        # there is no third machine: migration must fail, and preemption
        # cannot apply (equal priority) -> anti-affinity failure.
        assert not outcome.ok
        assert outcome.failure is FailureReason.ANTI_AFFINITY

    def test_disabled_migration_fails_fast(self):
        state = make_state([AntiAffinityRule(0, 1)], n_machines=2)
        state.deploy(container(0, app=0, cpu=4), 0)
        state.deploy(container(9, app=5, cpu=28), 1)
        b = container(1, app=1, cpu=20)
        cfg = AladdinConfig(enable_migration=False, enable_preemption=False)
        outcome = RescuePlanner(state, cfg, kernel=RescueKernel()).rescue(
            b, demand(b, state)
        )
        assert not outcome.ok


class TestFig7Consolidation:
    def test_small_containers_move_to_admit_large(self):
        """Fig. 7: fragmented small tasks are migrated to fit a big one."""
        state = make_state([], n_machines=2, cpu=8.0)
        # Both machines half full with small containers: a 6-CPU task
        # fits nowhere until one machine is drained.
        state.deploy(container(0, app=0, cpu=3), 0)
        state.deploy(container(1, app=1, cpu=3), 1)
        big = container(2, app=2, cpu=6)
        planner = RescuePlanner(state, AladdinConfig(), kernel=RescueKernel())
        outcome = planner.rescue(big, demand(big, state))
        assert outcome.ok
        assert outcome.migrations == 1
        assert state.fits(demand(big, state), outcome.machine_id)

    def test_consolidation_bounded_by_config(self):
        state = make_state([], n_machines=2, cpu=8.0)
        for i in range(4):
            state.deploy(container(i, app=i, cpu=1), 0)
        state.deploy(container(9, app=9, cpu=5), 1)
        big = container(10, app=10, cpu=7)
        cfg = AladdinConfig(max_migrations_per_container=1, enable_preemption=False)
        outcome = RescuePlanner(state, cfg, kernel=RescueKernel()).rescue(
            big, demand(big, state)
        )
        assert not outcome.ok  # would need >1 move
        cfg = AladdinConfig(max_migrations_per_container=4, enable_preemption=False)
        outcome = RescuePlanner(state, cfg, kernel=RescueKernel()).rescue(
            big, demand(big, state)
        )
        assert outcome.ok


    def test_consolidation_at_zero_migration_candidates(self):
        """``migration_candidates=0`` still examines one machine.

        Blocker migration, consolidation and preemption all truncate
        their candidate walks with ``max(1, migration_candidates)``;
        consolidation used to slice with the raw value, silently
        disabling Fig. 7 at 0 while the other strategies kept their
        one-machine floor.  The Fig. 7 scenario must rescue regardless.
        """
        for kernel in (RescueLoop(), RescueKernel()):
            state = make_state([], n_machines=2, cpu=8.0)
            state.deploy(container(0, app=0, cpu=3), 0)
            state.deploy(container(1, app=1, cpu=3), 1)
            big = container(2, app=2, cpu=6)
            cfg = AladdinConfig(migration_candidates=0)
            planner = RescuePlanner(state, cfg, kernel=kernel)
            outcome = planner.rescue(big, demand(big, state))
            assert outcome.ok, type(kernel).__name__
            assert outcome.migrations == 1


class TestPriorityPreemption:
    def test_high_priority_displaces_low(self):
        state = make_state([AntiAffinityRule(0, 1)], n_machines=1)
        low = container(0, app=1, cpu=4, prio=0)
        state.deploy(low, 0)
        high = container(1, app=0, cpu=4, prio=2)
        outcome = RescuePlanner(state, AladdinConfig(), kernel=RescueKernel()).rescue(
            high, demand(high, state)
        )
        # One machine only: the low-priority blocker cannot relocate, so
        # it is evicted and handed back for re-queueing.
        assert outcome.ok
        assert [c.container_id for c in outcome.preempted] == [0]
        assert 0 not in state.assignment

    def test_low_priority_never_displaces_high(self):
        """The Fig. 3(a) guarantee: weighted flow forbids the inversion."""
        state = make_state([AntiAffinityRule(0, 1)], n_machines=1)
        high = container(0, app=1, cpu=4, prio=2)
        state.deploy(high, 0)
        low = container(1, app=0, cpu=4, prio=0)
        outcome = RescuePlanner(state, AladdinConfig(), kernel=RescueKernel()).rescue(
            low, demand(low, state)
        )
        assert not outcome.ok
        assert 0 in state.assignment  # high-priority container untouched

    def test_preemption_prefers_relocation_over_eviction(self):
        """A displaced blocker that fits elsewhere is migrated, not killed."""
        state = make_state([AntiAffinityRule(0, 1)], n_machines=2)
        low = container(0, app=1, cpu=4, prio=0)
        state.deploy(low, 0)
        # Fill machine 1 partially so the blocker still fits there.
        state.deploy(container(9, app=5, cpu=8), 1)
        # Fill machine 0 so that only it can host the high-priority task.
        state.deploy(container(8, app=6, cpu=24), 0)
        state.deploy(container(7, app=7, cpu=20), 1)
        high = container(1, app=0, cpu=4, prio=2)
        outcome = RescuePlanner(state, AladdinConfig(), kernel=RescueKernel()).rescue(
            high, demand(high, state)
        )
        assert outcome.ok and outcome.machine_id == 0
        assert outcome.preempted == []
        assert outcome.migrations == 1
        assert state.assignment[0] == 1  # relocated, still running

    def test_preemption_disabled(self):
        state = make_state([AntiAffinityRule(0, 1)], n_machines=1)
        state.deploy(container(0, app=1, cpu=4, prio=0), 0)
        high = container(1, app=0, cpu=4, prio=2)
        cfg = AladdinConfig(enable_preemption=False, enable_migration=False)
        outcome = RescuePlanner(state, cfg, kernel=RescueKernel()).rescue(
            high, demand(high, state)
        )
        assert not outcome.ok


class TestFailureClassification:
    def test_resource_exhaustion(self):
        state = make_state([], n_machines=1, cpu=4.0)
        state.deploy(container(0, app=0, cpu=4), 0)
        c = container(1, app=1, cpu=4)
        cfg = AladdinConfig(enable_migration=False, enable_preemption=False)
        outcome = RescuePlanner(state, cfg, kernel=RescueKernel()).rescue(
            c, demand(c, state)
        )
        assert outcome.failure is FailureReason.RESOURCES

    def test_anti_affinity_blocking(self):
        state = make_state([AntiAffinityRule(0, 1)], n_machines=1)
        state.deploy(container(0, app=0, cpu=1), 0)
        c = container(1, app=1, cpu=1)
        cfg = AladdinConfig(enable_migration=False, enable_preemption=False)
        outcome = RescuePlanner(state, cfg, kernel=RescueKernel()).rescue(
            c, demand(c, state)
        )
        assert outcome.failure is FailureReason.ANTI_AFFINITY
