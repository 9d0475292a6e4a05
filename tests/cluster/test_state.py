"""Unit tests for ClusterState — the heart of all schedulers' bookkeeping."""

import numpy as np
import pytest

from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Container
from repro.cluster.state import ClusterState, StateCursor, dominates
from repro.cluster.topology import build_cluster


def container(cid, app=0, cpu=4.0, prio=0):
    return Container(
        container_id=cid, app_id=app, instance=0, cpu=cpu, mem_gb=cpu * 2,
        priority=prio,
    )


@pytest.fixture
def state():
    topo = build_cluster(4)
    cs = ConstraintSet([AntiAffinityRule(0, 0), AntiAffinityRule(1, 2)])
    return ClusterState(topo, cs)


class TestDeployEvict:
    def test_deploy_reduces_available(self, state):
        state.deploy(container(0, cpu=4.0), 1)
        assert state.available[1].tolist() == [28.0, 56.0]
        assert state.container_count[1] == 1
        assert state.assignment[0] == 1

    def test_evict_restores_everything(self, state):
        c = container(0, cpu=4.0)
        state.deploy(c, 1)
        returned = state.evict(0)
        assert returned == c
        assert state.available[1].tolist() == [32.0, 64.0]
        assert state.container_count[1] == 0
        assert 0 not in state.assignment
        assert state.machines_hosting(0) == {}

    def test_double_deploy_rejected(self, state):
        state.deploy(container(0), 1)
        with pytest.raises(ValueError, match="already deployed"):
            state.deploy(container(0), 2)

    def test_deploy_beyond_capacity_rejected(self, state):
        state.deploy(container(0, cpu=30.0), 1)
        with pytest.raises(ValueError, match="lacks resources"):
            state.deploy(container(1, cpu=4.0), 1)

    def test_evict_unknown_rejected(self, state):
        with pytest.raises(KeyError):
            state.evict(99)

    def test_migrate_moves_atomically(self, state):
        state.deploy(container(0), 1)
        state.migrate(0, 3)
        assert state.assignment[0] == 3
        assert state.available[1, 0] == 32.0
        assert state.available[3, 0] == 28.0


class TestAntiAffinityBookkeeping:
    def test_within_app_blacklists_own_machine(self, state):
        state.deploy(container(0, app=0), 2)  # app 0 has within-AA
        mask = state.forbidden_mask(0)
        assert mask[2]
        assert mask.sum() == 1

    def test_cross_app_blacklist_symmetric(self, state):
        state.deploy(container(0, app=1), 0)
        assert state.forbidden_mask(2)[0]
        assert not state.forbidden_mask(1)[0]  # app 1 has no within rule

    def test_deploy_in_violation_requires_force(self, state):
        state.deploy(container(0, app=1), 0)
        with pytest.raises(ValueError, match="anti-affinity"):
            state.deploy(container(1, app=2), 0)
        state.deploy(container(1, app=2), 0, force=True)
        assert state.anti_affinity_violations() == 2

    def test_would_violate(self, state):
        state.deploy(container(0, app=1), 0)
        assert state.would_violate(container(1, app=2), 0)
        assert not state.would_violate(container(1, app=3), 0)

    def test_within_violation_counts_each_container(self, state):
        state.deploy(container(0, app=0), 0)
        state.deploy(container(1, app=0), 0, force=True)
        assert state.anti_affinity_violations() == 2

    def test_violations_clear_after_evict(self, state):
        state.deploy(container(0, app=1), 0)
        state.deploy(container(1, app=2), 0, force=True)
        state.evict(1)
        assert state.anti_affinity_violations() == 0


class TestQueries:
    def test_feasible_mask_resources_only(self, state):
        state.deploy(container(0, cpu=30.0), 0)
        mask = state.feasible_mask(np.array([4.0, 8.0]))
        assert mask.tolist() == [False, True, True, True]

    def test_feasible_mask_with_anti_affinity(self, state):
        state.deploy(container(0, app=1), 0)
        mask = state.feasible_mask(np.array([4.0, 8.0]), app_id=2)
        assert mask.tolist() == [False, True, True, True]

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_dominates_is_the_row_reduction(self, dims):
        # Equation 6 column by column: the booleans of the reduction it
        # replaces, ties and empty inputs included.
        rng = np.random.default_rng(dims)
        available = rng.integers(0, 6, (500, dims)).astype(np.float64)
        for demand in rng.integers(0, 6, (20, dims)).astype(np.float64):
            assert np.array_equal(
                dominates(available, demand), (available >= demand).all(axis=1)
            )
            rows = available[rng.integers(0, 500, 7)]
            assert np.array_equal(
                dominates(rows, demand), (rows >= demand).all(axis=1)
            )
        assert dominates(available[:0], available[0]).shape == (0,)

    def test_used_machines_and_utilization(self, state):
        state.deploy(container(0, cpu=16.0), 0)
        state.deploy(container(1, app=3, cpu=8.0), 2)
        assert state.used_machines() == 2
        util = state.used_utilization(dim=0)
        assert sorted(util.tolist()) == [0.25, 0.5]

    def test_snapshot_is_independent(self, state):
        state.deploy(container(0), 1)
        snap = state.snapshot()
        state.deploy(container(1, app=3), 2)
        assert 1 not in snap.assignment
        assert snap.available[1, 0] == 28.0
        snap.evict(0)
        assert state.assignment[0] == 1

    def test_deployed_containers_listing(self, state):
        c = container(0)
        state.deploy(c, 1)
        assert state.deployed_containers(1) == [c]
        assert state.deployed_containers(0) == []


class TestAppMachinesIndex:
    """``app_machines`` holds the applications with a resident container
    and nothing else: an entry is dropped with its last container, or a
    long-lived service keeps (and checkpoints) one per application ever
    placed."""

    @staticmethod
    def resident_apps(state):
        return {c.app_id for c in state._containers.values()}

    def test_applications_that_came_and_went_leave_nothing(self):
        state = ClusterState(build_cluster(4), ConstraintSet())
        for app in range(100):
            state.deploy(container(app, app=app, cpu=1.0), app % 4)
        assert len(state.app_machines) == 100
        for app in range(0, 100, 2):
            state.evict(app)
        state.evict_block(range(1, 100, 2))
        assert state.app_machines == {}

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_churn_keeps_exactly_the_resident_applications(self, seed):
        rng = np.random.default_rng(seed)
        state = ClusterState(build_cluster(6), ConstraintSet())
        next_cid = 0
        for _ in range(300):
            op = rng.random()
            live = list(state.assignment)
            if op < 0.4 or not live:
                app, k = int(rng.integers(0, 12)), int(rng.integers(1, 4))
                block = [container(next_cid + i, app=app, cpu=1.0) for i in range(k)]
                machines = rng.integers(0, 6, k)
                next_cid += k
                try:
                    state.deploy_block(block, machines, [1] * k, np.array([1.0, 2.0]))
                except ValueError:
                    pass  # a full machine: the block was rolled back
            elif op < 0.6:
                state.evict(int(rng.choice(live)))
            elif op < 0.8:
                state.evict_block(rng.choice(live, size=min(len(live), 5)).tolist())
            else:
                try:
                    state.migrate(int(rng.choice(live)), int(rng.integers(0, 6)))
                except ValueError:
                    pass  # refused: the container is back on its source
            assert set(state.app_machines) == self.resident_apps(state)
            assert all(
                count > 0
                for per_machine in state.app_machines.values()
                for count in per_machine.values()
            )
        state.evict_block(list(state.assignment))
        assert state.app_machines == {}

    def test_payload_with_emptied_entries_still_restores(self, state):
        # What a checkpoint written before entries were dropped holds:
        # an empty dict for every application that has left.
        state.deploy(container(0, app=1), 1)
        state.deploy(container(1, app=2, cpu=2.0), 2)
        payload = state.checkpoint_payload()
        payload["app_machines"][0] = {}
        payload["app_machines"][7] = {}
        restored = ClusterState.from_payload(
            payload, state.topology, state.constraints
        )
        assert restored.machines_hosting(0) == {}
        assert restored.forbidden_mask(1).tolist() == state.forbidden_mask(1).tolist()
        assert restored.forbidden_mask(0).tolist() == state.forbidden_mask(0).tolist()
        restored.deploy(container(2, app=0), 3)
        restored.evict(2)
        restored.evict(0)
        assert set(restored.app_machines) - {7} == {2}


class TestDirtyLogCompactionBoundary:
    """Regression: consumers synced before the compaction base must get
    ``None`` ("everything may have changed"), never a mis-sliced tail of
    the log or stale verdicts.  The ``version < _log_base`` guard in
    :meth:`ClusterState.advance` pins this; without it the slice index
    ``version - _log_base`` would go negative and silently return the
    wrong suffix of the log.
    """

    def _compact(self, state):
        for _ in range(state._log_limit + 1):
            state.touch(3)
        assert state._log_base > 0  # compaction actually happened

    def test_pre_compaction_version_returns_none(self, state):
        state.deploy(container(0, app=3), 1)
        since = state.cursor()
        self._compact(state)
        assert since.version < state._log_base
        assert state.advance(since) is None

    def test_version_exactly_at_base_still_served(self, state):
        self._compact(state)
        at_base = StateCursor(state.state_uid, state._log_base)
        assert set(state.advance(at_base).tolist()) == {3}

    def test_negative_slice_would_lie_guard_prevents_it(self, state):
        # Dirty machines 0 and 1 before compaction, then only 3 after.
        state.touch(0)
        synced = state.cursor()  # after touch(0), before touch(1)
        state.touch(1)
        self._compact(state)
        # A naive slice of the log at ``version - _log_base`` would go
        # negative and return a short tail of post-compaction entries —
        # all machine 3 — silently omitting machine 1's mutation.  The
        # feed answers "rebuild" instead.
        assert state.advance(synced) is None

    def test_current_version_is_empty_even_after_compaction(self, state):
        self._compact(state)
        assert state.advance(state.cursor()).size == 0


class TestDirtyLog:
    """The one change feed: :meth:`ClusterState.cursor` marks a position
    and :meth:`ClusterState.advance` answers the raw log slice since it
    — every machine a mutation touched, in mutation order, duplicates
    kept — or ``None`` ("rebuild"), and moves the cursor to now.  The
    cross-round consumers (machine index, resident ledger, violation
    tally, the flow engine's residual patches) all read it."""

    @staticmethod
    def fresh_state(n_machines=8):
        return ClusterState(
            build_cluster(n_machines, machines_per_rack=4), ConstraintSet()
        )

    def test_every_mutation_bumps_version_and_logs_machine(self):
        state = self.fresh_state()
        v0 = state.version
        since = state.cursor()
        state.deploy(container(1), 2)
        assert state.version == v0 + 1
        assert state.advance(since).tolist() == [2]
        state.evict(1)
        assert state.version == v0 + 2
        assert state.advance(since).tolist() == [2]
        assert (since.uid, since.version) == (state.state_uid, v0 + 2)

    def test_migrate_dirties_source_and_target(self):
        state = self.fresh_state()
        state.deploy(container(1), 6)
        since = state.cursor()
        state.migrate(1, 1)
        assert state.advance(since).tolist() == [6, 1]

    def test_dirty_array_since_current_version_is_empty(self):
        state = self.fresh_state()
        empty = state.advance(state.cursor())
        assert isinstance(empty, np.ndarray) and empty.size == 0
        state.deploy(container(1), 0)
        assert state.advance(state.cursor()).size == 0

    def test_touch_records_out_of_band_mutations(self):
        state = self.fresh_state()
        since = state.cursor()
        state.available[3] = 0.0
        state.touch(3)
        assert state.advance(since).tolist() == [3]

    def test_duplicates_are_kept(self):
        state = self.fresh_state()
        since = state.cursor()
        state.deploy(container(1), 1)
        state.deploy(container(2), 4)
        state.migrate(2, 7)
        assert state.advance(since).tolist() == [1, 4, 4, 7]

    def test_compaction_returns_none_for_ancient_consumers(self):
        state = self.fresh_state(n_machines=2)
        since = state.cursor()
        for _ in range(state._log_limit + 10):
            state.touch(0)
        assert state.advance(since) is None
        # The cursor moved to now: it gets exact answers again.
        state.touch(1)
        assert state.advance(since).tolist() == [1]

    def test_a_never_synced_cursor_rebuilds(self):
        state = self.fresh_state()
        since = StateCursor()
        assert state.advance(since) is None
        assert state.advance(since).size == 0

    def test_snapshot_starts_a_fresh_identity(self):
        state = self.fresh_state()
        state.deploy(container(1), 0)
        clone = state.snapshot()
        assert clone.state_uid != state.state_uid
        assert clone.version == 0
        assert clone.advance(clone.cursor()).size == 0

    def test_a_snapshot_answers_a_foreign_cursor_with_rebuild(self):
        # Regression: the clone's log is numbered from 0, so a bare
        # version taken on the original (6) is "ahead" of the clone
        # (1) and read as "nothing changed" — though machine 7 did.
        state = self.fresh_state()
        for m in range(6):
            state.touch(m)
        since = state.cursor()
        clone = state.snapshot()
        clone.touch(7)
        assert clone.advance(since) is None
        assert (since.uid, since.version) == (clone.state_uid, 1)
        assert clone.advance(since).size == 0

    def test_a_restored_state_answers_an_unbound_cursor_with_rebuild(self):
        state = self.fresh_state()
        state.deploy(container(1), 5)
        since = state.cursor()
        restored = ClusterState.from_payload(
            state.checkpoint_payload(), state.topology, state.constraints
        )
        assert restored.version == since.version
        assert restored.advance(since) is None
        # Rebound, the persisted numbering serves the restored log.
        rebound = StateCursor(restored.state_uid, since.version - 1)
        assert restored.advance(rebound).tolist() == [5]


class TestEventTracking:
    def test_events_recorded_when_enabled(self):
        from repro.cluster.events import EventKind

        topo = build_cluster(2)
        state = ClusterState(topo, track_events=True)
        state.deploy(container(0), 0)
        state.migrate(0, 1)
        state.evict(0)
        kinds = [e.kind for e in state.events]
        # migrate() is implemented as evict+deploy plus a MIGRATE record
        assert kinds.count(EventKind.DEPLOY) == 2
        assert kinds.count(EventKind.EVICT) == 2
        assert kinds.count(EventKind.MIGRATE) == 1

    def test_events_disabled_by_default(self, state):
        assert state.events is None
