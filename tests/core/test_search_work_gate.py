"""Count gate: search work follows the block, not the cluster.

No timing here — every assertion is a count the program makes, the same
on any runner.  On a seeded packed-first churn over 2,004 machines (the
``mixed-lla`` scenario the end-to-end ruler runs at 12,000, at a sixth
of the scale):

* a resync rewrites the span its moved machines cross, not the order
  (``MachineIndex.positions_rewritten``; the whole-order merge this
  replaced rewrote exactly ``resyncs x n_machines`` positions);
* ``_batch_place`` reads one candidate window per block, a second one
  only rarely, and a block placed from its windows builds no
  cluster-wide verdict (no ``forbidden_mask``, no
  ``ClusterState.feasible_mask``; the kernel reads exactly the
  windows' positions);
* the kernel asks Equations 7-8 about no position behind the machine
  that takes the block's last container;
* the round's bookkeeping follows the application, not the container:
  a violation resync reads no resident ``Container`` (the tally asks
  ``machine_apps``), ``_derive_weights_for`` is handed one container
  per block, and ``evict_block`` derives one demand vector per
  departing application.

A regression to per-cluster (or per-container) work fails these long
before a benchmark would notice.  The workload matters: these counts hold where most of
the packed front admits the next block.  ``tests/test_differential.py``
replays conflict- and memory-bound streams on which a block reads 1.2
to 1.9 windows on average — decisions are pinned there, work is gated
here.
"""

import numpy as np
import pytest

from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Container
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core import AladdinScheduler, scheduler
from repro.core.machindex import MachineIndex
from repro.sim.online import OnlineConfig, OnlineSimulator
from repro.trace import build_scenario
from tests.core.test_batchkernel import ReadRecorder


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_resyncs_and_windows_stay_far_below_cluster_size(seed, monkeypatch):
    spans: list[int] = []
    windows: list[int] = []
    reinsert, candidates = MachineIndex._reinsert, MachineIndex.candidates

    def counting_reinsert(self, state, dirty):
        before = self.positions_rewritten
        reinsert(self, state, dirty)
        spans.append(self.positions_rewritten - before)

    def counting_candidates(self, *args, limit=None, **kwargs):
        got = candidates(self, *args, limit=limit, **kwargs)
        if limit is not None:
            windows.append(limit)
            assert got.size <= limit, "read past the window"
            assert not got.flags.writeable, "a window is a view of the order"
        return got

    monkeypatch.setattr(MachineIndex, "_reinsert", counting_reinsert)
    monkeypatch.setattr(MachineIndex, "candidates", counting_candidates)

    trace = build_scenario(
        "mixed-lla", scale=0.167, seed=seed, ticks=24, n_functions=100
    )
    simulator = OnlineSimulator(trace, OnlineConfig(seed=seed, scenario="mixed-lla"))
    engine = AladdinScheduler()
    result = simulator.run(engine)
    n_machines = simulator._topology.n_machines
    index = engine.machine_index
    blocks = result.telemetry.batch_kernel_invocations
    assert n_machines >= 2000
    assert result.peak_used_machines > 500
    assert index.rebuilds == 1
    assert index.resyncs == len(spans) > 2000
    assert sum(spans) == index.positions_rewritten

    assert np.median(spans) < 0.10 * n_machines
    assert index.positions_rewritten < 0.25 * index.resyncs * n_machines
    assert blocks > 2000
    assert len(windows) <= 1.05 * blocks
    assert max(windows) < n_machines, "a window as wide as the order"


class CountingReads(dict):
    """A dict that counts the reads of its values."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def values(self):
        self.reads += len(self)
        return super().values()

    def items(self):
        self.reads += len(self)
        return super().items()


def test_round_bookkeeping_follows_the_application(monkeypatch):
    counts = {"syncs": 0, "container_reads": 0, "evictions": 0}
    handed: list[tuple[int, int]] = []  # (containers handed, blocks)
    blocks_this_round: list[int] = []
    demand_calls: list[tuple[int, int]] = []  # (demand vectors, apps)
    in_evict = [False]

    violations = ClusterState.anti_affinity_violations
    evict_block = ClusterState.evict_block
    demand_vector = Container.demand_vector
    group_blocks = scheduler._group_blocks
    derive = scheduler._derive_weights_for

    def counting_violations(self):
        # Swapped in for the call only; the dirty machines resync here.
        real = self._containers
        self._containers = spy = CountingReads(real)
        try:
            return violations(self)
        finally:
            self._containers = real
            counts["syncs"] += 1
            counts["container_reads"] += spy.reads

    def counting_evict_block(self, ids):
        ids = list(ids)
        apps = {
            self._containers[cid].app_id for cid in ids if cid in self.assignment
        }
        before = counts["evictions"]
        in_evict[0] = True
        try:
            return evict_block(self, ids)
        finally:
            in_evict[0] = False
            demand_calls.append((counts["evictions"] - before, len(apps)))

    def counting_demand_vector(self, *args, **kwargs):
        if in_evict[0]:
            counts["evictions"] += 1
        return demand_vector(self, *args, **kwargs)

    def counting_group_blocks(containers):
        blocks = group_blocks(containers)
        blocks_this_round.append(len(blocks))
        return blocks

    def counting_derive(arg, *args, **kwargs):
        handed.append((len(arg), blocks_this_round[-1]))
        return derive(arg, *args, **kwargs)

    monkeypatch.setattr(
        ClusterState, "anti_affinity_violations", counting_violations
    )
    monkeypatch.setattr(ClusterState, "evict_block", counting_evict_block)
    monkeypatch.setattr(Container, "demand_vector", counting_demand_vector)
    monkeypatch.setattr(scheduler, "_group_blocks", counting_group_blocks)
    monkeypatch.setattr(scheduler, "_derive_weights_for", counting_derive)

    trace = build_scenario(
        "mixed-lla", scale=0.167, seed=0, ticks=24, n_functions=100
    )
    simulator = OnlineSimulator(trace, OnlineConfig(seed=0, scenario="mixed-lla"))
    result = simulator.run(AladdinScheduler())
    blocks = result.telemetry.batch_kernel_invocations

    assert counts["syncs"] > 50
    assert counts["container_reads"] == 0
    assert len(handed) == 2 * len(blocks_this_round) >= 2 * 24
    assert all(n == n_blocks for n, n_blocks in handed)
    assert sum(n for n, _ in handed) >= 2 * blocks
    assert len(demand_calls) > 50 and sum(apps for _, apps in demand_calls) > 500
    assert all(calls <= apps for calls, apps in demand_calls)


def test_window_blocks_ask_no_cluster_wide_verdict(monkeypatch):
    """A block the kernel places in full from its windows evaluates
    Equations 6-8 on those windows only: no ``forbidden_mask`` (the walk
    over every conflict partner's hosts) and no cluster-wide admit mask
    (``ClusterState.feasible_mask``), and the kernel is handed exactly the windows' positions.
    Affinity-tiered blocks read a full mask by design and are left
    out."""
    counts = {"forbidden": 0, "mask": 0, "positions": 0, "windows": 0}
    full_plan = [False]
    last_window = [None]
    window_blocks = leaky_blocks = 0

    forbidden_mask = ClusterState.forbidden_mask
    feasible_mask = ClusterState.feasible_mask
    candidates = MachineIndex.candidates
    block_plan = scheduler.block_plan
    batch_place = AladdinScheduler._batch_place
    place_block = AladdinScheduler._place_block

    def counting_forbidden(self, app_id):
        counts["forbidden"] += 1
        return forbidden_mask(self, app_id)

    def counting_mask(self, *args):
        counts["mask"] += 1
        return feasible_mask(self, *args)

    def counting_candidates(self, *args, limit=None, **kwargs):
        got = candidates(self, *args, limit=limit, **kwargs)
        if limit is not None:
            counts["windows"] += got.size
            last_window[0] = got
        return got

    def counting_block_plan(state, demand, app_id, window, *args):
        if window is last_window[0]:
            counts["positions"] += window.size
        return block_plan(state, demand, app_id, window, *args)

    def recording_batch_place(self, block, *args):
        placed = batch_place(self, block, *args)
        full_plan[0] = placed == len(block)
        return placed

    def gated_place_block(self, block, state, *args):
        nonlocal window_blocks, leaky_blocks
        before = counts["forbidden"] + counts["mask"]
        full_plan[0] = False
        place_block(self, block, state, *args)
        affine = state.constraints.affinities_of(block[0].app_id)
        if full_plan[0] and not affine:
            window_blocks += 1
            leaky_blocks += counts["forbidden"] + counts["mask"] > before

    monkeypatch.setattr(ClusterState, "forbidden_mask", counting_forbidden)
    monkeypatch.setattr(ClusterState, "feasible_mask", counting_mask)
    monkeypatch.setattr(MachineIndex, "candidates", counting_candidates)
    monkeypatch.setattr(scheduler, "block_plan", counting_block_plan)
    monkeypatch.setattr(
        AladdinScheduler, "_batch_place", recording_batch_place
    )
    monkeypatch.setattr(AladdinScheduler, "_place_block", gated_place_block)

    trace = build_scenario(
        "mixed-lla", scale=0.167, seed=0, ticks=24, n_functions=100
    )
    simulator = OnlineSimulator(trace, OnlineConfig(seed=0, scenario="mixed-lla"))
    result = simulator.run(AladdinScheduler())
    blocks = result.telemetry.batch_kernel_invocations

    assert window_blocks > 0.9 * blocks > 1800
    assert leaky_blocks == 0
    assert 0 < counts["positions"] == counts["windows"]


def test_equations_7_8_stop_at_the_blocks_last_planned_machine(monkeypatch):
    """A constrained block placed in full from its windows asks what a
    machine hosts only up to the machine that takes its last container:
    the kernel's walk stops there, where a predicate over the whole
    window would ask every Equation-6 survivor of it.  And nothing in
    ``_batch_place`` builds a cluster-wide verdict."""
    counts = {"blocks": 0, "asked": 0, "late": 0, "cluster_wide": 0}
    engine = AladdinScheduler()
    in_window_path = [False]
    block_size = [0]

    forbidden_mask = ClusterState.forbidden_mask
    feasible_mask = ClusterState.feasible_mask
    deploy_block = ClusterState.deploy_block
    batch_place = AladdinScheduler._batch_place

    def counting_forbidden(self, app_id):
        counts["cluster_wide"] += in_window_path[0]
        return forbidden_mask(self, app_id)

    def counting_mask(self, *args):
        counts["cluster_wide"] += in_window_path[0]
        return feasible_mask(self, *args)

    def recording_batch_place(self, block, state, demand, mask, *args):
        if mask is not None:
            return batch_place(self, block, state, demand, mask, *args)
        real = state.machine_apps
        state.machine_apps = ReadRecorder(real)
        in_window_path[0] = True
        block_size[0] = len(block)
        try:
            return batch_place(self, block, state, demand, mask, *args)
        finally:
            in_window_path[0] = False
            state.machine_apps = real

    def checking_deploy_block(self, containers, machines, runs, demand):
        spy = self.machine_apps
        if isinstance(spy, ReadRecorder):
            # the plan is made: the real map takes the commit
            self.machine_apps = spy.real
            app_id = containers[0].app_id
            cs = self.constraints
            constrained = cs.has_within(app_id) or cs.has_conflicts(app_id)
            if constrained and len(containers) == block_size[0]:
                order = engine.machine_index._order
                position = np.empty(order.size, dtype=np.int64)
                position[order] = np.arange(order.size)
                last = position[machines[-1]]
                counts["blocks"] += 1
                counts["asked"] += len(spy.asked)
                counts["late"] += int((position[spy.asked] > last).sum())
        return deploy_block(self, containers, machines, runs, demand)

    monkeypatch.setattr(ClusterState, "forbidden_mask", counting_forbidden)
    monkeypatch.setattr(ClusterState, "feasible_mask", counting_mask)
    monkeypatch.setattr(ClusterState, "deploy_block", checking_deploy_block)
    monkeypatch.setattr(
        AladdinScheduler, "_batch_place", recording_batch_place
    )

    trace = build_scenario(
        "mixed-lla", scale=0.167, seed=0, ticks=24, n_functions=100
    )
    simulator = OnlineSimulator(trace, OnlineConfig(seed=0, scenario="mixed-lla"))
    simulator.run(engine)

    assert counts["blocks"] > 500
    assert counts["asked"] >= counts["blocks"]
    assert counts["late"] == 0
    assert counts["cluster_wide"] == 0


def test_a_resync_whose_machines_kept_their_keys_rewrites_nothing():
    state = ClusterState(build_cluster(12), ConstraintSet())
    index = MachineIndex()
    state.deploy(
        Container(container_id=1, app_id=1, instance=0, cpu=4.0, mem_gb=1.0), 3
    )
    index.candidates(state)
    state.touch(3)
    state.touch(7)
    index.candidates(state)
    assert (index.resyncs, index.last_resynced) == (1, 2)
    assert index.positions_rewritten == 0
