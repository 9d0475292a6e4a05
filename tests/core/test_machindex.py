"""The incrementally maintained packed-first machine index.

:class:`repro.core.machindex.MachineIndex` promises its candidate order
is *bit-identical* to sorting ``flatnonzero(mask)`` by the schedulers'
``_scores`` — the contract that lets the batch kernel claim
placement-identical results.  These tests check the order against that
scratch-built ground truth after every kind of state mutation, and pin
down the change feed the resync rides on: each mutation dirties exactly
the touched machines.
"""

import numpy as np
import pytest

from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Application, Container
from repro.cluster.state import ClusterState
from repro.cluster.topology import (
    MachineSpec,
    build_cluster,
    build_heterogeneous_cluster,
)
from repro.core.machindex import MachineIndex, affinity_tier, packing_keys
from repro.core.scheduler import _scores
from repro.sim.faults import fail_machines


def fresh_state(n_machines=8, apps=(), machines_per_rack=4):
    return ClusterState(
        build_cluster(n_machines, machines_per_rack=machines_per_rack),
        ConstraintSet.from_applications(list(apps)),
    )


def deploy(state, app_id, machine_id, cpu=4.0, mem=8.0, cid=None):
    if cid is None:
        deploy._next = getattr(deploy, "_next", 0) + 1
        cid = 20_000 + deploy._next
    c = Container(container_id=cid, app_id=app_id, instance=0, cpu=cpu, mem_gb=mem)
    state.deploy(c, machine_id)
    return cid


def ground_truth(state, mask=None, affinity=None):
    """The scratch-built order both engines would compute."""
    ids = (
        np.flatnonzero(mask)
        if mask is not None
        else np.arange(state.n_machines, dtype=np.int64)
    )
    return ids[np.argsort(_scores(state, ids, affinity), kind="stable")]


# ----------------------------------------------------------------------
# change feed: every mutation dirties exactly the touched machines
# ----------------------------------------------------------------------
class TestDirtyArraySince:
    """What :meth:`ClusterState.advance` hands :meth:`MachineIndex.sync`."""

    def test_deploy_dirties_exactly_the_target(self):
        state = fresh_state()
        since = state.cursor()
        deploy(state, app_id=0, machine_id=5)
        assert state.advance(since).tolist() == [5]

    def test_evict_dirties_exactly_the_host(self):
        state = fresh_state()
        cid = deploy(state, app_id=0, machine_id=3)
        since = state.cursor()
        state.evict(cid)
        assert state.advance(since).tolist() == [3]

    def test_migrate_dirties_exactly_source_and_target(self):
        state = fresh_state()
        cid = deploy(state, app_id=0, machine_id=6)
        since = state.cursor()
        state.migrate(cid, 1)
        assert state.advance(since).tolist() == [6, 1]

    def test_fault_dirties_exactly_the_failed_machine(self):
        state = fresh_state()
        deploy(state, app_id=0, machine_id=2)
        deploy(state, app_id=1, machine_id=2)
        since = state.cursor()
        fail_machines(state, [2])
        assert state.advance(since).tolist() == [2, 2, 2]

    def test_no_mutation_yields_the_empty_array(self):
        state = fresh_state()
        dirty = state.advance(state.cursor())
        assert isinstance(dirty, np.ndarray) and dirty.size == 0

    def test_compaction_yields_none(self):
        state = fresh_state(n_machines=2)
        since = state.cursor()
        for _ in range(state._log_limit + 10):
            state.touch(0)
        assert state.advance(since) is None


# ----------------------------------------------------------------------
# order maintenance
# ----------------------------------------------------------------------
class TestMachineIndexOrder:
    def test_initial_order_matches_scratch_argsort(self):
        state = fresh_state()
        index = MachineIndex()
        assert index.candidates(state).tolist() == ground_truth(state).tolist()
        assert index.rebuilds == 1

    def test_resync_after_each_mutation_kind(self):
        state = fresh_state()
        index = MachineIndex()
        index.candidates(state)
        cid = deploy(state, app_id=0, machine_id=5)
        assert index.candidates(state).tolist() == ground_truth(state).tolist()
        state.migrate(cid, 2)
        assert index.candidates(state).tolist() == ground_truth(state).tolist()
        state.evict(cid)
        assert index.candidates(state).tolist() == ground_truth(state).tolist()
        fail_machines(state, [0])
        assert index.candidates(state).tolist() == ground_truth(state).tolist()
        assert index.rebuilds == 1, "mutations must resync, not rebuild"
        assert index.resyncs >= 3

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_churn_stays_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        state = fresh_state(n_machines=16, machines_per_rack=4)
        index = MachineIndex()
        live = []
        for _ in range(60):
            op = rng.random()
            if op < 0.55 or not live:
                m = int(rng.integers(0, 16))
                cpu = float(rng.choice([1.0, 2.0, 4.0]))
                if state.fits(np.array([cpu, cpu * 2]), m):
                    live.append(deploy(state, 0, m, cpu=cpu, mem=cpu * 2))
            elif op < 0.8:
                cid = live.pop(int(rng.integers(0, len(live))))
                state.evict(cid)
            else:
                cid = live[int(rng.integers(0, len(live)))]
                target = int(rng.integers(0, 16))
                demand = state.container(cid).demand_vector(
                    state.topology.resources
                )
                if state.fits(demand, target) and state.assignment[cid] != target:
                    state.migrate(cid, target)
            assert (
                index.candidates(state).tolist()
                == ground_truth(state).tolist()
            )

    def test_mask_restricts_without_reordering(self):
        state = fresh_state()
        deploy(state, app_id=0, machine_id=2, cpu=8.0)
        deploy(state, app_id=0, machine_id=6, cpu=2.0)
        index = MachineIndex()
        mask = np.zeros(state.n_machines, dtype=bool)
        mask[[1, 2, 6]] = True
        assert (
            index.candidates(state, mask).tolist()
            == ground_truth(state, mask).tolist()
        )

    def test_affinity_promotes_affine_hosts_first(self):
        apps = [Application(0, 2, 4.0, 8.0, affinities=frozenset({1})),
                Application(1, 1, 4.0, 8.0)]
        state = fresh_state(apps=apps)
        deploy(state, app_id=1, machine_id=7)
        index = MachineIndex()
        affinity = state.affinity_mask(0)
        got = index.candidates(state, affinity=affinity)
        assert got.tolist() == ground_truth(state, affinity=affinity).tolist()
        assert got[0] == 7

    def test_heterogeneous_cluster_falls_back_to_exact_scoring(self):
        # A machine with more than the homogeneous 32 CPUs breaks the
        # tier-dominance shortcut; the index must detect it and re-score
        # exactly rather than return a subtly different partition.
        topo = build_heterogeneous_cluster(
            [(1, MachineSpec(cpu=64.0, mem_gb=128.0)),
             (3, MachineSpec(cpu=8.0, mem_gb=16.0))],
            machines_per_rack=2,
        )
        apps = [Application(0, 2, 4.0, 8.0, affinities=frozenset({1})),
                Application(1, 1, 4.0, 8.0)]
        state = ClusterState(topo, ConstraintSet.from_applications(apps))
        deploy(state, app_id=1, machine_id=1)
        index = MachineIndex()
        affinity = state.affinity_mask(0)
        assert (
            index.candidates(state, affinity=affinity).tolist()
            == ground_truth(state, affinity=affinity).tolist()
        )

    def test_key_collision_ties_break_by_machine_id(self):
        # Two machines with identical remaining capacity must keep the
        # ascending-id order through an incremental reinsertion.
        state = fresh_state()
        index = MachineIndex()
        index.candidates(state)
        deploy(state, app_id=0, machine_id=6, cpu=4.0)
        deploy(state, app_id=0, machine_id=3, cpu=4.0)
        got = index.candidates(state)
        assert got.tolist() == ground_truth(state).tolist()
        assert list(got[:2]) == [3, 6]

    def test_rebind_to_new_state_rebuilds(self):
        state_a = fresh_state()
        state_b = fresh_state()
        deploy(state_b, app_id=0, machine_id=0)
        index = MachineIndex()
        index.candidates(state_a)
        got = index.candidates(state_b)
        assert got.tolist() == ground_truth(state_b).tolist()
        assert index.rebuilds == 2

    def test_compacted_log_rebuilds_not_stales(self):
        state = fresh_state(n_machines=2)
        index = MachineIndex()
        index.candidates(state)
        for _ in range(state._log_limit + 10):
            state.touch(0)
        assert index.candidates(state).tolist() == ground_truth(state).tolist()
        assert index.rebuilds == 2

    def test_keys_helpers_match_scores(self):
        state = fresh_state()
        deploy(state, app_id=0, machine_id=1, cpu=3.0)
        ids = np.arange(state.n_machines, dtype=np.int64)
        assert np.array_equal(packing_keys(state, ids), _scores(state, ids, None))
        assert affinity_tier(state.n_machines) > packing_keys(state, ids).max()
