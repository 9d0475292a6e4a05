"""Unit tests for the rack-sharded parallel sweep (repro.core.parallel).

The differential churn harness (tests/test_differential.py) proves the
end-to-end bit-identity claim; these tests pin the pieces it is built
from — the rack-aligned shard partition, the worker-local dirty-log
view, the serial-exact candidate merge, and the coordinator's
shared-memory lifecycle (adopt, rebind, restore on close).
"""

import numpy as np
import pytest

from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Application, containers_of
from repro.cluster.state import ClusterState, ShardView
from repro.cluster.topology import (
    MachineSpec,
    build_cluster,
    build_heterogeneous_cluster,
)


def _hetero_cluster(per_rack):
    return build_heterogeneous_cluster(
        [
            (8, MachineSpec(cpu=8.0, mem_gb=16.0)),
            (4, MachineSpec(cpu=64.0, mem_gb=128.0)),
        ],
        machines_per_rack=per_rack,
    )
from repro.core import AladdinConfig, AladdinScheduler
from repro.core.batchkernel import block_plan
from repro.core.feascache import FeasibilityCache
from repro.core.machindex import MachineIndex
from repro.core.parallel import (
    ParallelSweep,
    _is_rack_partition,
    merge_candidates,
    rack_work_weights,
    shard_bounds,
)
from repro.core.scheduler import _scores


# ----------------------------------------------------------------------
# shard_bounds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_machines", [1, 7, 24, 40, 163, 4000])
@pytest.mark.parametrize("per_rack", [1, 4, 40])
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_shard_bounds_partition_and_rack_alignment(
    n_machines, per_rack, workers
):
    bounds = shard_bounds(n_machines, per_rack, workers)
    n_racks = -(-n_machines // per_rack)
    assert len(bounds) == min(workers, n_racks)
    # Exact partition of [0, n_machines).
    assert bounds[0][0] == 0
    assert bounds[-1][1] == n_machines
    for (lo_a, hi_a), (lo_b, _) in zip(bounds, bounds[1:]):
        assert hi_a == lo_b
        assert lo_a < hi_a
    # Rack alignment: no rack spans two shards.
    for lo, hi in bounds:
        assert lo % per_rack == 0
    # Near-even rack split: shard sizes differ by at most one rack.
    rack_sizes = [(hi - lo + per_rack - 1) // per_rack for lo, hi in bounds]
    assert max(rack_sizes) - min(rack_sizes) <= 1


def test_shard_bounds_rejects_zero_workers():
    with pytest.raises(ValueError):
        shard_bounds(10, 2, 0)


# ----------------------------------------------------------------------
# work-weighted shard sizing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_weighted_shard_bounds_keep_partition_invariants(seed, workers):
    """Random non-negative weights never break the properties the
    merge's determinism proof needs: rack-aligned, non-empty,
    contiguous, exact partition."""
    rng = np.random.default_rng(seed)
    n_machines, per_rack = 52, 4
    n_racks = -(-n_machines // per_rack)
    weights = rng.exponential(5.0, n_racks) * (rng.random(n_racks) < 0.7)
    bounds = shard_bounds(n_machines, per_rack, workers, weights)
    assert _is_rack_partition(bounds, n_machines, per_rack)
    assert len(bounds) == min(workers, n_racks)


def test_weighted_shard_bounds_none_matches_legacy_exactly():
    """``rack_weights=None`` must reproduce the historical even split
    bit-for-bit — the opt-out path of the rebalance satellite."""
    for n_machines, per_rack, workers in [
        (24, 4, 3), (40, 4, 8), (163, 40, 2), (7, 1, 3),
    ]:
        assert shard_bounds(n_machines, per_rack, workers) == shard_bounds(
            n_machines, per_rack, workers, None
        )


def test_weighted_shard_bounds_move_toward_the_load():
    """Heavily loaded leading racks shrink the first shard: the cut
    equalises cumulative work, not rack count."""
    even = shard_bounds(32, 4, 2)
    skewed = shard_bounds(32, 4, 2, np.array([9.0, 9.0, 0, 0, 0, 0, 0, 0]))
    assert even == [(0, 16), (16, 32)]
    assert skewed == [(0, 8), (8, 32)]
    assert skewed[0][1] < even[0][1]
    # All-zero weights fall back to the baseline unit per rack — the
    # even split again, so the cuts stay defined on an idle cluster.
    assert shard_bounds(32, 4, 2, np.zeros(8)) == even


def test_weighted_shard_bounds_validation():
    with pytest.raises(ValueError, match="one entry per rack"):
        shard_bounds(32, 4, 2, np.ones(3))
    with pytest.raises(ValueError, match="non-negative"):
        shard_bounds(32, 4, 2, np.array([1.0, -1.0, 1, 1, 1, 1, 1, 1]))


def test_rack_work_weights_counts_residents_per_rack():
    apps = [Application(app_id=0, n_containers=5, cpu=1.0, mem_gb=1.0)]
    state = ClusterState(
        build_cluster(12, machines_per_rack=4),
        ConstraintSet.from_applications(apps),
    )
    cs = containers_of(apps)
    for c, machine in zip(cs, [0, 1, 1, 5, 8]):
        state.deploy(c, machine)
    assert rack_work_weights(state).tolist() == [3.0, 1.0, 1.0]
    state.evict(cs[0].container_id)
    assert rack_work_weights(state).tolist() == [2.0, 1.0, 1.0]


def test_is_rack_partition_rejects_malformed_bounds():
    assert _is_rack_partition([(0, 8), (8, 16)], 16, 4)
    assert not _is_rack_partition([], 16, 4)
    assert not _is_rack_partition([(0, 8)], 16, 4)          # short
    assert not _is_rack_partition([(0, 8), (12, 16)], 16, 4)  # gap
    assert not _is_rack_partition([(0, 8), (8, 8)], 16, 4)  # empty shard
    assert not _is_rack_partition([(0, 6), (6, 16)], 16, 4)  # unaligned


# ----------------------------------------------------------------------
# live rebalance: decisions unchanged, layout moved, checkpoint carries it
# ----------------------------------------------------------------------
def test_rebalance_moves_bounds_and_keeps_plans_serial_identical():
    apps = [Application(app_id=0, n_containers=12, cpu=2.0, mem_gb=4.0)]
    constraints = ConstraintSet.from_applications(apps)
    sweep = ParallelSweep(2)
    try:
        state = ClusterState(build_cluster(32, machines_per_rack=4), constraints)
        ref = ClusterState(build_cluster(32, machines_per_rack=4), constraints)
        demand = np.array([2.0, 4.0])
        by_app = containers_of(apps)
        # Pack the leading racks so density skews the weighted cut.
        for i, c in enumerate(by_app[:8]):
            for s in (state, ref):
                s.deploy(c, i % 4)
        sweep.plan_block(state, demand, 0, 1, None)  # attach
        before = list(sweep._bounds)
        moved = sweep.rebalance(state, rack_work_weights(state))
        assert moved
        assert sweep.rebalances == 1
        assert sweep._bounds != before
        assert _is_rack_partition(sweep._bounds, 32, 4)
        # A no-op re-cut with the same weights reports False.
        assert not sweep.rebalance(state, rack_work_weights(state))
        assert sweep.rebalances == 1
        # Decisions after the rebalance still equal the serial plan.
        machines, _, _ = sweep.plan_block(state, demand, 0, 4, None)
        expected = _serial_plan(ref, demand, 0, 4, None)
        assert machines.tolist() == expected.tolist()
    finally:
        sweep.close()


def test_checkpoint_carries_rebalanced_bounds_through_restore():
    constraints = ConstraintSet()
    sweep = ParallelSweep(2)
    restored = ParallelSweep(2)
    try:
        state = ClusterState(build_cluster(32, machines_per_rack=4), constraints)
        sweep.plan_block(state, np.array([1.0, 1.0]), 0, 1, None)
        weights = np.array([9.0, 9.0, 0, 0, 0, 0, 0, 0])
        assert sweep.rebalance(state, weights)
        rebalanced = list(sweep._bounds)
        payload = sweep.checkpoint()
        assert payload is not None
        assert [tuple(b) for b in payload["bounds"]] == rebalanced
        assert payload["rebalances"] == 1

        state2 = ClusterState(build_cluster(32, machines_per_rack=4), constraints)
        restored.restore(state2, payload)
        assert restored._bounds == rebalanced
        assert restored.rebalances == 1
        # The restored layout still produces serial-identical plans.
        machines, _, _ = restored.plan_block(
            state2, np.array([1.0, 1.0]), 0, 3, None
        )
        ref = ClusterState(build_cluster(32, machines_per_rack=4), constraints)
        expected = _serial_plan(ref, np.array([1.0, 1.0]), 0, 3, None)
        assert machines.tolist() == expected.tolist()
    finally:
        sweep.close()
        restored.close()


def test_scheduler_rebalance_shards_is_opt_in():
    apps = [Application(app_id=0, n_containers=6, cpu=2.0, mem_gb=4.0)]
    constraints = ConstraintSet.from_applications(apps)
    off = AladdinScheduler(AladdinConfig(workers=2))
    on = AladdinScheduler(AladdinConfig(workers=2, shard_rebalance=True))
    serial = AladdinScheduler()
    try:
        states = [
            ClusterState(build_cluster(32, machines_per_rack=4), constraints)
            for _ in range(3)
        ]
        batch = containers_of(apps)
        rounds = [
            e.schedule(list(batch), s)
            for e, s in zip((off, on, serial), states)
        ]
        assert rounds[0].placements == rounds[2].placements
        assert rounds[1].placements == rounds[2].placements
        # Gating: disabled config refuses, enabled one answers honestly.
        assert off.rebalance_shards(states[0]) is False
        assert off.parallel.rebalances == 0
        on.rebalance_shards(states[1])
        # Whatever the verdict, the next round still matches serial.
        more = containers_of(apps, start_id=100)
        again = [
            e.schedule(list(more), s)
            for e, s in zip((off, on, serial), states)
        ]
        assert again[0].placements == again[2].placements
        assert again[1].placements == again[2].placements
        # Serial engines expose the hook too, as a no-op.
        assert serial.rebalance_shards(states[2]) is False
    finally:
        off.close()
        on.close()
        serial.close()


# ----------------------------------------------------------------------
# ShardView dirty-log semantics
# ----------------------------------------------------------------------
def test_shard_view_tracks_and_dedupes_dirty_ids():
    view = ShardView(np.ones((6, 2)))
    v0 = view.version
    view.advance(np.array([3, 1]))
    view.advance(np.array([1, 4]))
    assert view.version == v0 + 2
    assert list(view.dirty_array_since(v0)) == [1, 3, 4]
    assert list(view.dirty_array_since(v0 + 1)) == [1, 4]
    assert view.dirty_array_since(view.version).size == 0
    assert view.dirty_raw_since(v0).tolist() == [3, 1, 1, 4]


def test_shard_view_full_resync_and_compaction_report_none():
    view = ShardView(np.ones((4, 2)))
    v0 = view.version
    view.advance(np.array([2]))
    view.advance(None)  # coordinator-reported full resync
    assert view.dirty_array_since(v0) is None
    assert view.dirty_raw_since(v0) is None
    # After the reset, incremental tracking resumes.
    v1 = view.version
    view.advance(np.array([0]))
    assert list(view.dirty_array_since(v1)) == [0]


def test_shard_view_compacts_old_segments():
    view = ShardView(np.ones((4, 2)))
    v0 = view.version
    for i in range(ShardView.MAX_SEGMENTS + 1):
        view.advance(np.array([i % 4]))
    assert view.dirty_array_since(v0) is None, "old history must compact"
    assert view.dirty_array_since(view.version - 1) is not None


def test_shard_view_constraints_are_empty():
    view = ShardView(np.ones((4, 2)))
    assert not view.constraints.has_within(0)
    assert not view.constraints.has_conflicts(0)


# ----------------------------------------------------------------------
# merge_candidates vs the serial total order
# ----------------------------------------------------------------------
def _serial_order(state, mask, affinity):
    ids = np.flatnonzero(mask)
    return ids[np.argsort(_scores(state, ids, affinity), kind="stable")]


@pytest.mark.parametrize("seed", range(8))
def test_merge_candidates_matches_serial_order(seed):
    rng = np.random.default_rng(seed)
    state = ClusterState(build_cluster(20, machines_per_rack=4), ConstraintSet())
    # Randomize packing levels, with deliberate ties.
    state.available[:, 0] = rng.choice([4.0, 8.0, 16.0], size=20)
    mask = rng.random(20) < 0.7
    affinity = rng.random(20) < 0.3 if seed % 2 else None
    serial = _serial_order(state, mask, affinity)

    ids = np.flatnonzero(mask).astype(np.int64)
    keys = state.available[ids, 0] * (state.n_machines + 1) + ids.astype(
        np.float64
    )
    aff = affinity[ids] if affinity is not None else None
    merged = merge_candidates(ids, keys, aff, state.n_machines)
    assert merged.tolist() == serial.tolist()


def test_merge_candidates_heterogeneous_fallback_matches_serial():
    """Keys large enough to cross the affinity tier force the exact
    rescoring branch; the merged order must still equal the serial one."""
    state = ClusterState(_hetero_cluster(4), ConstraintSet())
    state.available[:, 0] = np.linspace(1.0, 10_000.0, 12)
    mask = np.ones(12, dtype=bool)
    affinity = np.zeros(12, dtype=bool)
    affinity[[1, 10, 11]] = True
    serial = _serial_order(state, mask, affinity)
    ids = np.arange(12, dtype=np.int64)
    keys = state.available[ids, 0] * (state.n_machines + 1) + ids.astype(
        np.float64
    )
    merged = merge_candidates(ids, keys, affinity, state.n_machines)
    assert merged.tolist() == serial.tolist()


def test_merge_candidates_empty():
    out = merge_candidates(
        np.empty(0, dtype=np.int64), np.empty(0), None, 10
    )
    assert out.size == 0


# ----------------------------------------------------------------------
# plan_block vs the serial pipeline
# ----------------------------------------------------------------------
def _apps_for_scopes():
    return [
        Application(app_id=0, n_containers=4, cpu=2.0, mem_gb=4.0),
        Application(
            app_id=1, n_containers=3, cpu=2.0, mem_gb=4.0,
            anti_affinity_within=True, anti_affinity_scope="machine",
        ),
        Application(
            app_id=2, n_containers=3, cpu=2.0, mem_gb=4.0,
            anti_affinity_within=True, anti_affinity_scope="rack",
            conflicts=frozenset({0}),
        ),
        Application(
            app_id=3, n_containers=2, cpu=1.0, mem_gb=2.0,
            affinities=frozenset({0}),
        ),
    ]


def _serial_plan(state, demand, app_id, k, scope):
    cache = FeasibilityCache()
    index = MachineIndex()
    mask = cache.feasible_mask(state, demand, app_id)
    order = index.candidates(state, mask, state.affinity_mask(app_id))
    return np.repeat(*block_plan(state, demand, app_id, order, k, scope))


@pytest.mark.parametrize("workers", [2, 3])
def test_plan_block_matches_serial_across_scopes(workers):
    apps = _apps_for_scopes()
    constraints = ConstraintSet.from_applications(apps)
    by_app: dict[int, list] = {}
    for c in containers_of(apps):
        by_app.setdefault(c.app_id, []).append(c)
    sweep = ParallelSweep(workers)
    try:
        state = ClusterState(build_cluster(16, machines_per_rack=4), constraints)
        ref = ClusterState(build_cluster(16, machines_per_rack=4), constraints)
        for app in apps:
            demand = np.array([app.cpu, app.mem_gb])
            scope = (
                constraints.within_scope(app.app_id)
                if constraints.has_within(app.app_id)
                else None
            )
            k = app.n_containers
            machines, recomputed, admitted = sweep.plan_block(
                state, demand, app.app_id, k, scope
            )
            expected = _serial_plan(ref, demand, app.app_id, k, scope)
            assert machines.tolist() == expected.tolist(), app.app_id
            assert admitted > 0
            # Deploy on both states so the next app sees churned state
            # (exercises the incremental dirty propagation).
            for i, m in enumerate(machines):
                for s in (state, ref):
                    s.deploy(by_app[app.app_id][i], int(m), demand)
    finally:
        sweep.close()


def test_plan_block_heterogeneous_matches_serial():
    sweep = ParallelSweep(2)
    try:
        state = ClusterState(_hetero_cluster(3), ConstraintSet())
        ref = state.snapshot()
        demand = np.array([2.0, 4.0])
        machines, _, _ = sweep.plan_block(state, demand, 0, 5, None)
        expected = _serial_plan(ref, demand, 0, 5, None)
        assert machines.tolist() == expected.tolist()
    finally:
        sweep.close()


# ----------------------------------------------------------------------
# lifecycle: shared-memory adoption, rebind, close
# ----------------------------------------------------------------------
def test_close_restores_private_available_and_is_restartable():
    sweep = ParallelSweep(2)
    state = ClusterState(build_cluster(8, machines_per_rack=4), ConstraintSet())
    demand = np.array([1.0, 1.0])
    sweep.plan_block(state, demand, 0, 1, None)
    adopted = state.available
    before = np.array(adopted)
    sweep.close()
    # close() must hand back an equal-valued private array the state can
    # keep using (the shared segment is gone).
    assert state.available is not adopted
    assert np.array_equal(state.available, before)
    state.available[0, 0] -= 1.0  # writable, not a dead shm view
    # close() is idempotent and the sweep is restartable.
    sweep.close()
    machines, _, _ = sweep.plan_block(state, demand, 0, 1, None)
    assert machines.size == 1
    sweep.close()


def test_rebind_to_second_state():
    sweep = ParallelSweep(2)
    try:
        demand = np.array([1.0, 1.0])
        state_a = ClusterState(
            build_cluster(8, machines_per_rack=4), ConstraintSet()
        )
        ma, _, _ = sweep.plan_block(state_a, demand, 0, 1, None)
        state_b = ClusterState(
            build_cluster(12, machines_per_rack=4), ConstraintSet()
        )
        mb, _, _ = sweep.plan_block(state_b, demand, 0, 1, None)
        ref = ClusterState(
            build_cluster(12, machines_per_rack=4), ConstraintSet()
        )
        assert mb.tolist() == _serial_plan(ref, demand, 0, 1, None).tolist()
        # The first state got its private array back on rebind.
        assert isinstance(state_a.available, np.ndarray)
        state_a.available[0, 0] -= 1.0
    finally:
        sweep.close()


def test_scheduler_close_and_workers_validation():
    with pytest.raises(ValueError):
        AladdinConfig(workers=0)
    with pytest.raises(ValueError):
        ParallelSweep(0)
    serial = AladdinScheduler()
    assert serial.parallel is None
    serial.close()  # no-op, must not raise
    parallel = AladdinScheduler(AladdinConfig(workers=2))
    assert parallel.parallel is not None
    parallel.close()
    parallel.close()


def test_workers_cap_at_rack_count():
    sweep = ParallelSweep(64)
    try:
        state = ClusterState(
            build_cluster(8, machines_per_rack=4), ConstraintSet()
        )
        machines, _, _ = sweep.plan_block(
            state, np.array([1.0, 1.0]), 0, 3, None
        )
        ref = state.snapshot()
        expected = _serial_plan(ref, np.array([1.0, 1.0]), 0, 3, None)
        assert machines.tolist() == expected.tolist()
        assert len(sweep._bounds) == 2  # 8 machines / 4 per rack
    finally:
        sweep.close()


def _shm_exists(name: str) -> bool:
    import os

    return os.path.exists(f"/dev/shm/{name}")


def test_close_after_worker_kill_leaves_no_shm_residue():
    """Regression: close() used to unlink the segment only on the clean
    path — a worker killed mid-run (SIGKILL, OOM) left a /dev/shm leak.
    close() must now be idempotent against dead children and always
    remove the segment."""
    sweep = ParallelSweep(2)
    state = ClusterState(build_cluster(8, machines_per_rack=4), ConstraintSet())
    sweep.plan_block(state, np.array([1.0, 1.0]), 0, 1, None)
    shm_name = sweep._shm.name
    assert _shm_exists(shm_name)
    for proc in sweep._procs:  # simulate a hard worker crash
        proc.kill()
        proc.join(timeout=5)
    sweep.close()
    assert sweep._shm is None
    assert not _shm_exists(shm_name), "segment must be unlinked"
    sweep.close()  # idempotent after the dirty shutdown
    # ...and the sweep is restartable afterwards.
    machines, _, _ = sweep.plan_block(state, np.array([1.0, 1.0]), 0, 1, None)
    assert machines.size == 1
    sweep.close()


@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_close_unlinks_even_with_live_exported_view():
    """A raw exported memoryview keeps shm.close() raising BufferError;
    the old close-then-unlink order leaked the segment whenever that
    happened.  Unlink-first removes the name regardless."""
    sweep = ParallelSweep(2)
    state = ClusterState(build_cluster(8, machines_per_rack=4), ConstraintSet())
    sweep.plan_block(state, np.array([1.0, 1.0]), 0, 1, None)
    shm_name = sweep._shm.name
    pin = sweep._shm.buf[0:8]  # exported pointer → close() raises
    try:
        sweep.close()
        assert not _shm_exists(shm_name), "unlink must not be skipped"
        # The state still got its private array back.
        assert isinstance(state.available, np.ndarray)
        state.available[0, 0] -= 1.0
    finally:
        pin.release()


def test_sweep_checkpoint_restore_round_trip():
    demand = np.array([1.0, 1.0])
    sweep = ParallelSweep(2)
    try:
        state = ClusterState(
            build_cluster(8, machines_per_rack=4), ConstraintSet()
        )
        sweep.plan_block(state, demand, 0, 2, None)
        image = sweep.checkpoint()
        assert image is not None
        assert len(image["workers"]) == 2
        state_image = state.checkpoint_payload()
        sweep.close()

        restored_state = ClusterState.from_payload(
            state_image, build_cluster(8, machines_per_rack=4)
        )
        fresh = ParallelSweep(2)
        try:
            fresh.restore(restored_state, image)
            assert fresh._synced_version == image["synced_version"]
            assert fresh.sweeps == image["sweeps"]
            machines, _, _ = fresh.plan_block(
                restored_state, demand, 0, 2, None
            )
            ref = ClusterState(
                build_cluster(8, machines_per_rack=4), ConstraintSet()
            )
            expected = _serial_plan(ref, demand, 0, 2, None)
            assert machines.tolist() == expected.tolist()
        finally:
            fresh.close()
    finally:
        sweep.close()


def test_sweep_checkpoint_none_paths():
    sweep = ParallelSweep(2)
    assert sweep.checkpoint() is None  # nothing attached yet
    state = ClusterState(build_cluster(8, machines_per_rack=4), ConstraintSet())
    sweep.plan_block(state, np.array([1.0, 1.0]), 0, 1, None)
    for proc in sweep._procs:
        proc.kill()
        proc.join(timeout=5)
    assert sweep.checkpoint() is None  # dead workers → cold restart
    sweep.close()
    # A None payload on restore is the documented cold fallback.
    fresh = ParallelSweep(2)
    try:
        fresh.restore(state, None)
        machines, _, _ = fresh.plan_block(
            state, np.array([1.0, 1.0]), 0, 1, None
        )
        assert machines.size == 1
    finally:
        fresh.close()


def test_parallel_sweep_telemetry_counter():
    from repro import telemetry

    sweep = ParallelSweep(2)
    try:
        state = ClusterState(
            build_cluster(8, machines_per_rack=4), ConstraintSet()
        )
        tele = telemetry.SchedulerTelemetry()
        with telemetry.collect(tele):
            sweep.plan_block(state, np.array([1.0, 1.0]), 0, 2, None)
        assert tele.parallel_sweeps == 1
        assert tele.counters()["parallel_sweeps"] == 1
        assert tele.worker_time_s, "per-worker timings must be recorded"
        assert "parallel_sweeps" not in tele.worker_time_s
        # Wall times stay out of the deterministic counter set.
        assert "worker_time_s" not in tele.counters()
    finally:
        sweep.close()
