"""Count gate: search work follows the block, not the cluster.

No timing here — every assertion is a count the program makes, the same
on any runner.  On a seeded packed-first churn over 2,004 machines (the
``mixed-lla`` scenario the end-to-end ruler runs at 12,000, at a sixth
of the scale):

* a resync rewrites the span its moved machines cross, not the order
  (``MachineIndex.positions_rewritten``; the whole-order merge this
  replaced rewrote exactly ``resyncs x n_machines`` positions);
* ``_batch_place`` reads one candidate window per block, a second one
  only rarely.

A regression to per-cluster work fails these long before a benchmark
would notice.  The workload matters: these counts hold where most of
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
from repro.core import AladdinScheduler
from repro.core.machindex import MachineIndex
from repro.sim.online import OnlineConfig, OnlineSimulator
from repro.trace import build_scenario


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
