"""AladdinScheduler behaviour tests."""

import numpy as np
import pytest

from repro.base import FailureReason
from repro.cluster.container import Application, containers_of
from repro.cluster.machine import MachineSpec
from repro.core import AladdinConfig, AladdinScheduler

from tests.conftest import containers_for, make_apps, state_for


def run(apps, n_machines=4, config=None, machine=None):
    sched = AladdinScheduler(config or AladdinConfig())
    state = state_for(apps, n_machines=n_machines, machine=machine)
    result = sched.schedule(containers_for(apps), state)
    return result, state


class TestBasicPlacement:
    def test_places_everything_with_room(self):
        apps = make_apps((3, 4.0, 0, False, ()), (2, 8.0, 0, False, ()))
        result, state = run(apps)
        assert result.n_deployed == 5
        assert result.n_undeployed == 0
        assert state.anti_affinity_violations() == 0

    def test_packs_most_packed_first(self):
        """Containers stack on one machine before opening a second."""
        apps = make_apps((4, 4.0, 0, False, ()))
        result, state = run(apps)
        assert state.used_machines() == 1

    def test_within_anti_affinity_spreads(self):
        apps = make_apps((3, 4.0, 0, True, ()))
        result, state = run(apps)
        machines = {result.placements[c.container_id] for c in containers_for(apps)}
        assert len(machines) == 3

    def test_within_app_needs_enough_machines(self):
        apps = make_apps((5, 1.0, 0, True, ()))
        result, state = run(apps, n_machines=4)
        assert result.n_deployed == 4
        assert result.n_undeployed == 1
        reason = list(result.undeployed.values())[0]
        assert reason is FailureReason.ANTI_AFFINITY

    def test_cross_app_conflict_respected(self):
        apps = make_apps((1, 4.0, 0, False, (1,)), (1, 4.0, 0, False, ()))
        result, state = run(apps, n_machines=2)
        m0 = result.placements[0]
        m1 = result.placements[1]
        assert m0 != m1

    def test_resource_exhaustion_reported(self):
        apps = make_apps((3, 32.0, 0, False, ()))
        result, _ = run(apps, n_machines=2)
        assert result.n_undeployed == 1
        assert list(result.undeployed.values())[0] is FailureReason.RESOURCES


class TestPriorityOrdering:
    def test_high_priority_wins_contended_slot(self):
        """Both apps fit only on the single free machine; the
        high-priority app must get it even when submitted last."""
        apps = make_apps(
            (1, 32.0, 0, False, ()),  # low priority, submitted first
            (1, 32.0, 3, False, ()),  # high priority, submitted last
        )
        result, _ = run(apps, n_machines=1, config=AladdinConfig(final_repair=False))
        assert 1 in result.placements
        assert 0 in result.undeployed

    def test_weights_derived_for_stream(self):
        apps = make_apps((1, 4.0, 0, False, ()), (1, 2.0, 2, False, ()))
        sched = AladdinScheduler()
        state = state_for(apps)
        sched.schedule(containers_for(apps), state)
        assert sched.last_weights[0] == 1.0
        assert sched.last_weights[2] >= 16.0

    def test_priority_only_reorders_within_window(self):
        """Across windows the arrival stream is authoritative."""
        apps = make_apps(
            (1, 32.0, 0, False, ()),
            (1, 32.0, 3, False, ()),
        )
        cfg = AladdinConfig(
            window_apps=1, enable_preemption=False, enable_migration=False,
            final_repair=False,
        )
        result, _ = run(apps, n_machines=1, config=cfg)
        # Window 1 holds only the low-priority app: it takes the machine.
        assert 0 in result.placements
        assert 1 in result.undeployed


class TestIlDlInvariance:
    @pytest.mark.parametrize("il", [True, False])
    @pytest.mark.parametrize("dl", [True, False])
    def test_prunings_do_not_change_placements(self, il, dl, small_trace):
        from repro.trace.arrival import ArrivalOrder, order_containers
        from repro.cluster.state import ClusterState
        from repro.cluster.topology import build_cluster

        containers = order_containers(small_trace, ArrivalOrder.TRACE)
        baseline_cfg = AladdinConfig(enable_il=True, enable_dl=True)
        variant_cfg = AladdinConfig(enable_il=il, enable_dl=dl)
        placements = []
        for cfg in (baseline_cfg, variant_cfg):
            topo = build_cluster(small_trace.config.n_machines)
            state = ClusterState(topo, small_trace.constraints)
            result = AladdinScheduler(cfg).schedule(containers, state)
            placements.append(result.placements)
        assert placements[0] == placements[1]

    def test_il_explores_less(self, small_trace):
        from repro.trace.arrival import ArrivalOrder, order_containers
        from repro.cluster.state import ClusterState
        from repro.cluster.topology import build_cluster

        containers = order_containers(small_trace, ArrivalOrder.TRACE)
        explored = {}
        for il in (True, False):
            topo = build_cluster(small_trace.config.n_machines)
            state = ClusterState(topo, small_trace.constraints)
            cfg = AladdinConfig(enable_il=il)
            result = AladdinScheduler(cfg).schedule(containers, state)
            explored[il] = result.explored
        assert explored[True] < explored[False]


class TestStateConsistency:
    def test_placements_match_state(self, small_trace):
        from repro.sim import Simulator

        sim = Simulator(small_trace)
        result = sim.run(AladdinScheduler())
        # Simulator._check_consistency already asserts; double-check here.
        assert set(result.schedule.placements) == set(result.state.assignment)

    def test_no_anti_affinity_violations_ever(self, small_trace):
        from repro.sim import Simulator

        sim = Simulator(small_trace)
        result = sim.run(AladdinScheduler())
        assert result.state.anti_affinity_violations() == 0
        assert result.metrics.n_violating_placements == 0

    def test_weight_base_sweep_same_outcomes(self, small_trace):
        """The paper's 16/32/64/128 sweep (Fig. 9a-d): any compliant
        weight base yields the same placement quality — individual
        rescue decisions may differ (the Equation-9 guard scales with
        the weights) but violations and undeployed counts must not."""
        from repro.sim import Simulator

        sim = Simulator(small_trace)
        outcomes = set()
        for base in (16, 32, 64, 128):
            r = sim.run(AladdinScheduler(AladdinConfig(priority_weight_base=base)))
            outcomes.add(
                (r.metrics.n_undeployed, r.metrics.n_violating_placements)
            )
        assert len(outcomes) == 1


class TestMaskRebuiltAfterRescue:
    """A rescue mutates machines in the middle of a block; the block's
    admit mask is then rebuilt from live state.  The IL engine must
    decide exactly what the IL-off engine decides, which reads a fresh
    mask for every container."""

    @staticmethod
    def run_rounds(config, apps_by_round, n_machines, constraints_apps):
        """Schedule successive rounds on one persistent state."""
        engine = AladdinScheduler(config)
        state = state_for(
            constraints_apps, n_machines=n_machines,
            machines_per_rack=n_machines,
        )
        results = []
        next_cid = 0
        for apps in apps_by_round:
            batch = containers_of(apps, start_id=next_cid)
            next_cid += len(batch)
            results.append(engine.schedule(batch, state))
        return results, state

    def compare_engines(self, apps_by_round, n_machines, constraints_apps):
        res_il, state_il = self.run_rounds(
            AladdinConfig(), apps_by_round, n_machines, constraints_apps
        )
        res_cold, state_cold = self.run_rounds(
            AladdinConfig(enable_il=False), apps_by_round, n_machines,
            constraints_apps,
        )
        for ri, rc in zip(res_il, res_cold):
            assert ri.placements == rc.placements
            assert ri.undeployed == rc.undeployed
        assert state_il.assignment == state_cold.assignment
        assert np.allclose(state_il.available, state_cold.available)
        return res_il

    def test_preemption_rebuilds_the_block_mask(self):
        # Round 1 fills both machines with low-priority containers;
        # round 2's high-priority within-anti-affinity pair must preempt
        # on each machine, rebuilding the block's mask after each rescue.
        # (The tiny low-priority app in round 2 puts both priority
        # classes into the round's Equation-5 guard weights, so the
        # high class's weighted flow strictly dominates its victims'.)
        low = [Application(0, 4, 16.0, 32.0, priority=0)]
        high = [
            Application(1, 2, 16.0, 32.0, priority=2,
                        anti_affinity_within=True),
            Application(2, 1, 1.0, 2.0, priority=0),
        ]
        results = self.compare_engines(
            [low, high], n_machines=2, constraints_apps=low + high
        )
        assert results[1].preemptions >= 2
        placed_hi = {
            m for cid, m in results[1].placements.items() if cid < 6
        }
        assert len(placed_hi) == 2  # anti-affinity honoured through rescue

    def test_rescue_migration_rebuilds_the_block_mask(self):
        # m0 hosts apps 0 and 1 (free 20 CPU); m1 hosts app 2 (free 16)
        # because it conflicts with app 0.  A 24-CPU arrival fits
        # nowhere; the only rescue is consolidating app 1's small
        # container from m0 onto m1 (app 0 itself cannot move there —
        # the conflict blocks it), and the rebuilt mask must see m0's
        # recovered capacity.
        round1 = [
            Application(0, 1, 8.0, 16.0),
            Application(1, 1, 4.0, 8.0),
            Application(2, 1, 16.0, 32.0, conflicts=frozenset({0})),
        ]
        round2 = [Application(3, 1, 24.0, 48.0)]
        results = self.compare_engines(
            [round1, round2], n_machines=2,
            constraints_apps=round1 + round2,
        )
        assert results[1].migrations >= 1
        assert results[1].n_undeployed == 0
