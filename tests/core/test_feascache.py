"""The cross-round feasibility cache and the dirty-log that feeds it.

Unit coverage for :class:`repro.core.feascache.FeasibilityCache` and
:class:`repro.cluster.state.ClusterState` change tracking, plus the
regression scenarios the ISSUE singles out: cache invalidation under
preemption and under rescue migration — the ``core/scheduler.py`` path
where "the isomorphism cache is rebuilt from live state" after a rescue
mutates machines mid-block.
"""

import numpy as np
import pytest

from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Application, Container, containers_of
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core import AladdinConfig, AladdinScheduler
from repro.core.feascache import FeasibilityCache


def fresh_state(n_machines=6, apps=(), machines_per_rack=3):
    return ClusterState(
        build_cluster(n_machines, machines_per_rack=machines_per_rack),
        ConstraintSet.from_applications(list(apps)),
    )


def deploy(state, app_id, machine_id, cpu=4.0, mem=8.0, cid=None):
    if cid is None:
        deploy._next = getattr(deploy, "_next", 0) + 1
        cid = 10_000 + deploy._next
    c = Container(container_id=cid, app_id=app_id, instance=0, cpu=cpu, mem_gb=mem)
    state.deploy(c, machine_id)
    return cid


# ----------------------------------------------------------------------
# ClusterState change tracking
# ----------------------------------------------------------------------
class TestDirtyLog:
    def test_every_mutation_bumps_version_and_logs_machine(self):
        state = fresh_state()
        v0 = state.version
        cid = deploy(state, app_id=0, machine_id=2)
        assert state.version == v0 + 1
        assert state.dirty_array_since(v0).tolist() == [2]
        state.evict(cid)
        assert state.version == v0 + 2
        assert state.dirty_array_since(v0).tolist() == [2]

    def test_migrate_dirties_source_and_target(self):
        state = fresh_state()
        cid = deploy(state, app_id=0, machine_id=1)
        v = state.version
        state.migrate(cid, 4)
        assert state.dirty_array_since(v).tolist() == [1, 4]

    def test_dirty_array_since_current_version_is_empty(self):
        state = fresh_state()
        deploy(state, app_id=0, machine_id=0)
        assert state.dirty_array_since(state.version).size == 0

    def test_touch_records_out_of_band_mutations(self):
        state = fresh_state()
        v = state.version
        state.available[3] = 0.0
        state.touch(3)
        assert state.dirty_array_since(v).tolist() == [3]

    def test_compaction_returns_none_for_ancient_consumers(self):
        state = fresh_state(n_machines=2)
        v0 = state.version
        for _ in range(state._log_limit + 10):
            state.touch(0)
        assert state.dirty_array_since(v0) is None
        # A consumer synced after compaction still gets exact answers.
        v_recent = state.version
        state.touch(1)
        assert state.dirty_array_since(v_recent).tolist() == [1]

    def test_snapshot_starts_a_fresh_identity(self):
        state = fresh_state()
        deploy(state, app_id=0, machine_id=0)
        clone = state.snapshot()
        assert clone.state_uid != state.state_uid
        assert clone.version == 0
        assert clone.dirty_array_since(0).size == 0


# ----------------------------------------------------------------------
# FeasibilityCache unit behaviour
# ----------------------------------------------------------------------
UNCONSTRAINED = [
    Application(0, 2, 4.0, 8.0),
    Application(1, 2, 4.0, 8.0),  # same shape as app 0, also unconstrained
    Application(2, 1, 8.0, 16.0),
]
CONSTRAINED = [
    Application(3, 2, 4.0, 8.0, anti_affinity_within=True),
    Application(4, 1, 4.0, 8.0, conflicts=frozenset({3})),
    Application(5, 2, 4.0, 8.0, anti_affinity_within=True,
                anti_affinity_scope="rack"),
]
DEMAND = np.array([4.0, 8.0])


class TestFeasibilityCache:
    def test_reuse_gate_stores_on_first_recurrence_then_hits(self):
        # Adaptive insertion: the first sighting of a shape computes
        # without storing; the second stores; the third is a pure hit.
        state = fresh_state(apps=UNCONSTRAINED + CONSTRAINED)
        cache = FeasibilityCache()
        n = state.n_machines
        mask = cache.feasible_mask(state, DEMAND, app_id=0)
        assert cache.misses == n and cache.hits == 0
        assert len(cache) == 0, "a one-shot shape must not allocate"
        assert np.array_equal(mask, state.feasible_mask(DEMAND, 0))
        again = cache.feasible_mask(state, DEMAND, app_id=0)
        assert cache.misses == 2 * n and cache.hits == 0
        assert len(cache) == 1
        assert np.array_equal(again, mask)
        third = cache.feasible_mask(state, DEMAND, app_id=0)
        assert cache.hits == n
        assert np.array_equal(third, mask)

    def test_returned_mask_is_a_private_copy(self):
        state = fresh_state(apps=UNCONSTRAINED)
        cache = FeasibilityCache()
        cache.feasible_mask(state, DEMAND, app_id=0)
        second = cache.feasible_mask(state, DEMAND, app_id=0)  # stored now
        second[:] = False
        third = cache.feasible_mask(state, DEMAND, app_id=0)
        assert third.any(), "caller mutation corrupted the cached entry"

    def test_only_dirty_machines_recompute(self):
        state = fresh_state(apps=UNCONSTRAINED + CONSTRAINED)
        cache = FeasibilityCache()
        cache.feasible_mask(state, DEMAND, app_id=0)
        cache.feasible_mask(state, DEMAND, app_id=0)  # entry stored
        deploy(state, app_id=2, machine_id=3, cpu=8.0, mem=16.0)
        cache.misses = cache.hits = 0
        mask = cache.feasible_mask(state, DEMAND, app_id=0)
        assert cache.misses == 1  # machine 3 only
        assert cache.hits == state.n_machines - 1
        assert cache.last_recomputed == 1
        assert np.array_equal(mask, state.feasible_mask(DEMAND, 0))

    def test_unconstrained_apps_share_one_entry(self):
        state = fresh_state(apps=UNCONSTRAINED + CONSTRAINED)
        cache = FeasibilityCache()
        cache.feasible_mask(state, DEMAND, app_id=0)
        cache.feasible_mask(state, DEMAND, app_id=0)  # entry stored
        assert len(cache) == 1
        cache.hits = 0
        mask = cache.feasible_mask(state, DEMAND, app_id=1)  # pure hit
        assert len(cache) == 1
        assert cache.hits == state.n_machines
        assert np.array_equal(mask, state.feasible_mask(DEMAND, 1))

    def test_constrained_apps_share_the_dominance_entry(self):
        # The cached term (capacity dominance) is app-independent, so
        # constrained apps share it too; their blacklists are applied
        # live on top.  Three same-shape apps -> one entry, stored on
        # the shape's first recurrence.
        state = fresh_state(apps=UNCONSTRAINED + CONSTRAINED)
        cache = FeasibilityCache()
        cache.feasible_mask(state, DEMAND, app_id=3)
        cache.feasible_mask(state, DEMAND, app_id=4)
        cache.feasible_mask(state, DEMAND, app_id=0)
        assert len(cache) == 1
        assert cache.hits == state.n_machines  # the third query only
        for app_id in (3, 4, 0):
            assert np.array_equal(
                cache.feasible_mask(state, DEMAND, app_id),
                state.feasible_mask(DEMAND, app_id),
            )

    def test_constrained_verdicts_track_blacklist_changes(self):
        apps = UNCONSTRAINED + CONSTRAINED
        state = fresh_state(apps=apps)
        cache = FeasibilityCache()
        cache.feasible_mask(state, DEMAND, app_id=4)
        # App 3 lands on machine 2: machine 2 is now forbidden for the
        # conflicting app 4, and the dirty-machine sync must see it.
        deploy(state, app_id=3, machine_id=2)
        mask = cache.feasible_mask(state, DEMAND, app_id=4)
        assert not mask[2]
        assert np.array_equal(mask, state.feasible_mask(DEMAND, 4))

    def test_rack_scope_needs_no_invalidation_at_all(self):
        apps = UNCONSTRAINED + CONSTRAINED
        state = fresh_state(n_machines=6, apps=apps, machines_per_rack=3)
        cache = FeasibilityCache()
        cache.feasible_mask(state, DEMAND, app_id=5)
        cache.feasible_mask(state, DEMAND, app_id=5)  # entry stored
        # One container of rack-scoped app 5 lands on machine 1: every
        # machine of rack 0 (machines 0-2) becomes infeasible for its
        # sibling even though only machine 1 is in the dirty log — the
        # rack-wide prohibition comes from the live blacklist term, so
        # only the dirty machine's *dominance* verdict recomputes.
        deploy(state, app_id=5, machine_id=1)
        mask = cache.feasible_mask(state, DEMAND, app_id=5)
        assert cache.last_recomputed == 1  # dominance: machine 1 only
        assert not mask[:3].any()
        assert mask[3:].all()
        assert np.array_equal(mask, state.feasible_mask(DEMAND, 5))

    def test_rebinding_to_a_new_state_resets(self):
        state_a = fresh_state(apps=UNCONSTRAINED)
        state_b = fresh_state(apps=UNCONSTRAINED)
        deploy(state_b, app_id=2, machine_id=0, cpu=8.0, mem=16.0)
        cache = FeasibilityCache()
        cache.feasible_mask(state_a, DEMAND, app_id=0)
        cache.feasible_mask(state_a, DEMAND, app_id=0)  # stored for a
        assert len(cache) == 1
        mask = cache.feasible_mask(state_b, DEMAND, app_id=0)
        assert np.array_equal(mask, state_b.feasible_mask(DEMAND, 0))
        assert len(cache) == 0  # state_a's entry and sightings dropped
        cache.feasible_mask(state_b, DEMAND, app_id=0)
        assert len(cache) == 1  # the recurrence re-stores against b

    def test_compacted_log_degrades_to_full_recompute(self):
        state = fresh_state(n_machines=2, apps=UNCONSTRAINED)
        cache = FeasibilityCache()
        cache.feasible_mask(state, DEMAND, app_id=0)
        cache.feasible_mask(state, DEMAND, app_id=0)  # entry stored
        for _ in range(state._log_limit + 10):
            state.touch(0)
        cache.invalidations = 0
        mask = cache.feasible_mask(state, DEMAND, app_id=0)
        assert cache.invalidations == state.n_machines
        assert cache.last_recomputed == state.n_machines
        assert np.array_equal(mask, state.feasible_mask(DEMAND, 0))

    def test_hit_rate(self):
        cache = FeasibilityCache()
        assert cache.hit_rate == 0.0
        state = fresh_state(apps=UNCONSTRAINED)
        cache.feasible_mask(state, DEMAND, app_id=0)
        cache.feasible_mask(state, DEMAND, app_id=0)
        cache.feasible_mask(state, DEMAND, app_id=0)
        assert cache.hit_rate == pytest.approx(1 / 3)

    def test_gap_cost_model_recomputes_wholesale(self):
        # An entry whose version gap exceeds the cost-model threshold
        # (max(SYNC_GAP_FLOOR, n/8)) is recomputed from scratch
        # (misses = invalidations = n) instead of slicing and deduping
        # the dirty log — and the verdicts stay exact either way.
        state = fresh_state(n_machines=4, apps=UNCONSTRAINED)
        cache = FeasibilityCache()
        cache.feasible_mask(state, DEMAND, app_id=0)
        cache.feasible_mask(state, DEMAND, app_id=0)  # entry stored
        cid = deploy(state, app_id=2, machine_id=3, cpu=8.0, mem=16.0)
        threshold = max(
            FeasibilityCache.SYNC_GAP_FLOOR, state.n_machines >> 3
        )
        for _ in range(threshold):  # push the gap past the threshold
            state.touch(0)
        cache.hits = cache.misses = cache.invalidations = 0
        mask = cache.feasible_mask(state, DEMAND, app_id=0)
        n = state.n_machines
        assert (cache.hits, cache.misses, cache.invalidations) == (0, n, n)
        assert np.array_equal(mask, state.feasible_mask(DEMAND, 0))
        # A small gap still syncs incrementally.
        state.evict(cid)
        cache.hits = cache.misses = 0
        cache.feasible_mask(state, DEMAND, app_id=0)
        assert cache.misses == 1 and cache.hits == n - 1

    def test_checkpoint_preserves_reuse_sightings(self):
        # A shape seen once before the checkpoint must store on its
        # first sighting after restore, exactly as the uninterrupted
        # cache would — otherwise resumed runs drift observably.
        state = fresh_state(apps=UNCONSTRAINED)
        cache = FeasibilityCache()
        cache.feasible_mask(state, DEMAND, app_id=0)
        assert len(cache) == 0
        back = FeasibilityCache()
        back.restore(cache.checkpoint(), state.state_uid)
        back.feasible_mask(state, DEMAND, app_id=0)
        assert len(back) == 1


# ----------------------------------------------------------------------
# Regression: invalidation under preemption and rescue migration
# ----------------------------------------------------------------------
def run_rounds(engine, apps_by_round, n_machines, constraints_apps):
    """Schedule successive rounds on one persistent state."""
    state = fresh_state(n_machines=n_machines, apps=constraints_apps,
                        machines_per_rack=n_machines)
    results = []
    next_cid = 0
    for apps in apps_by_round:
        batch = containers_of(apps, start_id=next_cid)
        next_cid += len(batch)
        results.append(engine.schedule(batch, state))
    return results, state


class TestRescueInvalidation:
    """The scheduler's mid-block cache rebuild after a rescue must serve
    verdicts that reflect the rescue's mutations — cached and cold
    engines agree even when preemption/migration fire."""

    def compare_engines(self, apps_by_round, n_machines, constraints_apps):
        cached = AladdinScheduler()
        cold = AladdinScheduler(
            AladdinConfig(enable_feasibility_cache=False)
        )
        res_cached, state_cached = run_rounds(
            cached, apps_by_round, n_machines, constraints_apps
        )
        res_cold, state_cold = run_rounds(
            cold, apps_by_round, n_machines, constraints_apps
        )
        for rc, rf in zip(res_cached, res_cold):
            assert rc.placements == rf.placements
            assert rc.undeployed == rf.undeployed
        assert state_cached.assignment == state_cold.assignment
        assert np.allclose(state_cached.available, state_cold.available)
        return res_cached, cached

    def test_preemption_invalidates_cached_verdicts(self):
        # Round 1 fills both machines with low-priority containers;
        # round 2's high-priority within-anti-affinity pair must preempt
        # on each machine, rebuilding the IL cache after each rescue.
        # (The tiny low-priority app in round 2 puts both priority
        # classes into the round's Equation-5 guard weights, so the
        # high class's weighted flow strictly dominates its victims'.)
        low = [Application(0, 4, 16.0, 32.0, priority=0)]
        high = [
            Application(1, 2, 16.0, 32.0, priority=2,
                        anti_affinity_within=True),
            Application(2, 1, 1.0, 2.0, priority=0),
        ]
        results, engine = self.compare_engines(
            [low, high], n_machines=2, constraints_apps=low + high
        )
        assert results[1].preemptions >= 2
        placed_hi = {
            m for cid, m in results[1].placements.items() if cid < 6
        }
        assert len(placed_hi) == 2  # anti-affinity honoured through rescue
        assert engine.feas_cache.invalidations > 0
        assert engine.feas_cache.hits > 0

    def test_rescue_migration_invalidates_cached_verdicts(self):
        # m0 hosts apps 0 and 1 (free 20 CPU); m1 hosts app 2 (free 16)
        # because it conflicts with app 0.  A 24-CPU arrival fits
        # nowhere; the only rescue is consolidating app 1's small
        # container from m0 onto m1 (app 0 itself cannot move there —
        # the conflict blocks it), and the post-migration cache sync
        # must see m0's recovered capacity.
        round1 = [
            Application(0, 1, 8.0, 16.0),
            Application(1, 1, 4.0, 8.0),
            Application(2, 1, 16.0, 32.0, conflicts=frozenset({0})),
        ]
        round2 = [Application(3, 1, 24.0, 48.0)]
        results, engine = self.compare_engines(
            [round1, round2], n_machines=2,
            constraints_apps=round1 + round2,
        )
        assert results[1].migrations >= 1
        assert results[1].n_undeployed == 0
        # Under the reuse gate the 24/48 arrival's shape is one-shot:
        # its post-rescue re-query is the shape's second sighting, a
        # *fresh* recompute rather than an invalidation — the rescue's
        # mutations are seen either way, which the zero-failure outcome
        # and the cached ≡ cold comparison above prove.
        assert engine.feas_cache.misses > 0
