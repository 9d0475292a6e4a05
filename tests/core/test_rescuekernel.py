"""Vectorized rescue kernel vs the per-machine loop oracle.

Every test builds one scenario twice and runs the rescue once through
:class:`~repro.core.migration.RescuePlanner` with the loop oracle
(:class:`~tests.core.rescue_loop.RescueLoop`) and once with the
:class:`~repro.core.rescuekernel.RescueKernel`, then
asserts the *decisions* are bit-identical: same success verdict, same
freed machine, same victims in the same order, same failure
classification, same post-rescue cluster state.  Costs (``explored``)
legitimately differ — the kernel answers admit masks from its
dominance cache — but the per-strategy machine-visit count
(``scanned``) must match, since both paths walk the same candidate
orders.

The churn-level form of the same contract lives in
``tests/test_differential.py`` (the rescue axis); these are the
small-oracle versions where the expected decision is hand-checkable.
"""

import numpy as np

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


def make_state(rules, n_machines=2, cpu=32.0, machines_per_rack=None):
    kwargs = {"machine": MachineSpec(cpu=cpu, mem_gb=cpu * 2)}
    if machines_per_rack is not None:
        kwargs["machines_per_rack"] = machines_per_rack
    topo = build_cluster(n_machines, **kwargs)
    constraints = rules if isinstance(rules, ConstraintSet) else ConstraintSet(rules)
    return ClusterState(topo, constraints)


def run_pair(build_state, blocked, config=None, weights=None, **rescue_kw):
    """Run one scenario through the loop and the kernel; assert parity.

    Returns ``(loop_outcome, kernel_outcome, kernel)`` so tests can
    add scenario-specific assertions on top of the parity checks.
    """
    config = config or AladdinConfig()
    outcomes = []
    states = []
    kernel = RescueKernel()
    for planner_kernel in (RescueLoop(), kernel):
        state = build_state()
        planner = RescuePlanner(
            state, config, weights=weights, kernel=planner_kernel,
        )
        demand = blocked.demand_vector(state.topology.resources)
        outcomes.append(planner.rescue(blocked, demand, **rescue_kw))
        states.append(state)
    loop, kern = outcomes
    assert kern.ok == loop.ok
    assert kern.machine_id == loop.machine_id
    assert kern.migrations == loop.migrations
    assert [c.container_id for c in kern.preempted] == [
        c.container_id for c in loop.preempted
    ], "victim sets or their order diverged"
    assert kern.failure == loop.failure
    assert kern.scanned == loop.scanned, "strategy-loop visit counts diverged"
    assert states[0].assignment == states[1].assignment
    assert np.array_equal(states[0].available, states[1].available)
    assert kernel.invocations == 1
    return loop, kern, kernel


class TestBlockerMigration:
    def test_fig3b_blocker_migrates(self):
        """Fig. 3(b): the anti-affinity blocker moves to make room."""
        def build():
            state = make_state([AntiAffinityRule(0, 1)], n_machines=2)
            state.deploy(container(0, app=0, cpu=4, prio=1), 0)
            state.deploy(container(9, app=5, cpu=28), 1)
            return state

        b = container(1, app=1, cpu=20, prio=0)
        loop, kern, _ = run_pair(build, b)
        assert kern.ok and kern.machine_id == 0
        assert kern.migrations == 1

    def test_blocker_constraints_respected(self):
        """Migration fails identically when the blocker's own rules
        forbid every relocation target."""
        def build():
            state = make_state(
                [AntiAffinityRule(0, 1), AntiAffinityRule(0, 2)], n_machines=2
            )
            state.deploy(container(0, app=0, cpu=4), 0)
            state.deploy(container(1, app=2, cpu=4), 1)
            state.deploy(container(3, app=5, cpu=10), 1)
            return state

        b = container(2, app=1, cpu=20)
        loop, kern, _ = run_pair(build, b)
        assert not kern.ok
        assert kern.failure is FailureReason.ANTI_AFFINITY


class TestConsolidation:
    def test_fig7_fragmented_small_tasks_consolidate(self):
        def build():
            state = make_state([], n_machines=2, cpu=8.0)
            state.deploy(container(0, app=0, cpu=3), 0)
            state.deploy(container(1, app=1, cpu=3), 1)
            return state

        big = container(2, app=2, cpu=6)
        loop, kern, _ = run_pair(build, big)
        assert kern.ok
        assert kern.migrations == 1

    def test_mover_limit_respected(self):
        """Needing more movers than ``max_migrations_per_container``
        fails in both paths; raising the limit succeeds in both."""
        def build():
            state = make_state([], n_machines=2, cpu=8.0)
            for i in range(4):
                state.deploy(container(i, app=i, cpu=1), 0)
            state.deploy(container(9, app=9, cpu=5), 1)
            return state

        big = container(10, app=10, cpu=7)
        tight = AladdinConfig(
            max_migrations_per_container=1, enable_preemption=False
        )
        loop, kern, _ = run_pair(build, big, config=tight)
        assert not kern.ok
        roomy = AladdinConfig(
            max_migrations_per_container=4, enable_preemption=False
        )
        loop, kern, _ = run_pair(build, big, config=roomy)
        assert kern.ok


class TestPreemption:
    def test_victim_order_matches(self):
        """Several lower-priority residents must go: the kernel evicts
        the same victims in the same (priority, cpu) order."""
        def build():
            state = make_state([AntiAffinityRule(0, 9)], n_machines=1, cpu=16.0)
            state.deploy(container(0, app=9, cpu=2, prio=0), 0)
            state.deploy(container(1, app=8, cpu=6, prio=1), 0)
            state.deploy(container(2, app=7, cpu=6, prio=0), 0)
            return state

        high = container(3, app=0, cpu=12, prio=2)
        loop, kern, _ = run_pair(build, high)
        assert kern.ok
        assert len(kern.preempted) >= 2

    def test_low_never_displaces_high(self):
        def build():
            state = make_state([AntiAffinityRule(0, 1)], n_machines=1)
            state.deploy(container(0, app=1, cpu=4, prio=2), 0)
            return state

        low = container(1, app=0, cpu=4, prio=0)
        loop, kern, _ = run_pair(build, low)
        assert not kern.ok

    def test_relocation_preferred_over_eviction(self):
        def build():
            state = make_state([AntiAffinityRule(0, 1)], n_machines=2)
            state.deploy(container(0, app=1, cpu=4, prio=0), 0)
            state.deploy(container(9, app=5, cpu=8), 1)
            state.deploy(container(8, app=6, cpu=24), 0)
            state.deploy(container(7, app=7, cpu=20), 1)
            return state

        high = container(1, app=0, cpu=4, prio=2)
        loop, kern, _ = run_pair(build, high)
        assert kern.ok and kern.machine_id == 0
        assert kern.preempted == []
        assert kern.migrations == 1

    def test_equation9_guard(self):
        """The weighted-flow guard (Equation 9) vetoes a preemption
        whose victims carry at least the preemptor's weighted flow —
        in both paths, with the identical weight arithmetic."""
        def build():
            state = make_state([AntiAffinityRule(0, 1)], n_machines=1, cpu=8.0)
            state.deploy(container(0, app=1, cpu=4, prio=0), 0)
            state.deploy(container(9, app=5, cpu=4, prio=3), 0)
            return state

        high = container(1, app=0, cpu=4, prio=2)
        # Victim flow 1.0 * 4 >= preemptor flow 1.0 * 4: guard trips.
        loop, kern, _ = run_pair(
            build, high, weights={0: 1.0, 2: 1.0, 3: 4.0}
        )
        assert not kern.ok
        # Preemptor weight high enough: the same preemption is allowed.
        loop, kern, _ = run_pair(
            build, high, weights={0: 1.0, 2: 2.0, 3: 8.0}
        )
        assert kern.ok
        assert [c.container_id for c in kern.preempted] == [0]


class TestRackScopedRules:
    def test_blocker_relocates_to_free_rack(self):
        """A rack-scoped within-rule blocker may only move to a rack
        not already hosting its application; with rack 1 free of app 7
        the migration lands there and both paths pick machine 0."""
        def build():
            cs = ConstraintSet([AntiAffinityRule(1, 7)])
            cs.add_rule(AntiAffinityRule(7, 7), scope="rack")
            state = make_state(
                cs, n_machines=4, cpu=8.0, machines_per_rack=2
            )
            state.deploy(container(0, app=7, cpu=2), 0)   # rack 0
            state.deploy(container(10, app=6, cpu=7), 1)  # rack 0
            state.deploy(container(11, app=6, cpu=7), 2)  # rack 1
            state.deploy(container(12, app=5, cpu=3), 3)  # rack 1
            return state

        b = container(1, app=1, cpu=6)
        loop, kern, _ = run_pair(build, b)
        assert kern.ok and kern.machine_id == 0
        assert kern.migrations == 1

    def test_occupied_rack_blocks_relocation(self):
        """With every roomy machine in a rack that already hosts the
        blocker's application, the within-rack rule kills the move —
        and no other strategy can rescue."""
        def build():
            cs = ConstraintSet(
                [AntiAffinityRule(1, 7), AntiAffinityRule(5, 7)]
            )
            cs.add_rule(AntiAffinityRule(7, 7), scope="rack")
            state = make_state(
                cs, n_machines=4, cpu=8.0, machines_per_rack=2
            )
            state.deploy(container(0, app=7, cpu=2), 0)   # rack 0
            state.deploy(container(10, app=6, cpu=7), 1)  # rack 0
            state.deploy(container(2, app=7, cpu=1), 2)   # rack 1: app 7 too
            state.deploy(container(11, app=6, cpu=6), 2)
            state.deploy(container(12, app=5, cpu=3), 3)  # rack 1
            return state

        b = container(1, app=1, cpu=6)
        loop, kern, _ = run_pair(build, b)
        assert not kern.ok
        assert kern.failure is FailureReason.ANTI_AFFINITY

    def test_rack_mate_dooms_blocker_migration(self):
        """The arrival's own application sits on a rack-mate of the
        roomy machine 0 under a rack-scoped within-rule: moving machine
        0's cross-conflict blocker to rack 1 would not clear it, so
        blocker migration skips it.  Consolidation frees machine 3 in
        rack 1 instead, moving its filler to machine 0."""
        def build():
            cs = ConstraintSet([AntiAffinityRule(0, 1)])
            cs.add_rule(AntiAffinityRule(0, 0), scope="rack")
            state = make_state(
                cs, n_machines=4, cpu=16.0, machines_per_rack=2
            )
            state.deploy(container(0, app=1, cpu=1), 0)    # the blocker
            state.deploy(container(1, app=0, cpu=10), 1)   # rack-mate
            state.deploy(container(10, app=5, cpu=14), 2)  # rack 1: 2 free
            state.deploy(container(11, app=5, cpu=14), 3)
            return state

        b = container(2, app=0, cpu=10)
        state = build()
        assert state.available[0, 0] >= b.cpu  # machine 0 has the room
        loop, kern, _ = run_pair(build, b)
        assert kern.ok and kern.machine_id == 3
        assert kern.migrations == 1


class TestKernelBookkeeping:
    def test_ledger_rows_reused_across_attempts(self):
        """A second rescue after one machine changed rewrites that
        machine's resident-table row only; the others keep theirs."""
        state = make_state([AntiAffinityRule(0, 1), AntiAffinityRule(2, 1)],
                           n_machines=3, cpu=8.0)
        state.deploy(container(0, app=0, cpu=2), 0)
        state.deploy(container(1, app=2, cpu=2), 1)
        state.deploy(container(9, app=5, cpu=7), 2)
        kernel = RescueKernel()
        batches = []
        write = kernel.ledger._write

        def recorded(state, machines):
            batches.append(machines.tolist())
            write(state, machines)

        kernel.ledger._write = recorded
        planner = RescuePlanner(state, AladdinConfig(), kernel=kernel)
        b = container(2, app=1, cpu=7)
        first = planner.rescue(b, b.demand_vector(state.topology.resources))
        assert not first.ok and batches == [[0, 1, 2]]
        state.deploy(container(4, app=5, cpu=1), 2)
        b2 = container(3, app=1, cpu=7)
        planner.rescue(b2, b2.demand_vector(state.topology.resources))
        assert kernel.invocations == 2
        # Machines untouched since the first rescue keep their rows.
        assert batches == [[0, 1, 2], [2]]

    def test_rescue_on_a_cluster_with_no_resident(self):
        """Nothing deployed anywhere and a container no machine fits:
        both walks screen an all-pad table (no shape interned, one pad
        column) and every strategy fails as the loop's does."""
        def build():
            return make_state([], n_machines=3, cpu=8.0)

        big = container(0, app=0, cpu=12, prio=2)
        loop, kern, kernel = run_pair(build, big)
        assert not kern.ok and kern.failure is FailureReason.RESOURCES
        assert kern.scanned == loop.scanned > 0
        assert kernel.ledger.table(build()).width == 1
        assert kernel.ledger.live(build()).tolist() == [False]
