"""What the deleted rack-sharded parallel sweep left behind.

The sweep (``AladdinConfig.workers``) was removed after it never beat
the serial path.  Two things of it outlive the code:

* the candidate order its merge had to reproduce — the serial
  packed-first order of :class:`repro.core.machindex.MachineIndex`.
  The merged orders it produced on its own test states, recorded at
  the last commit that had it (4fe1a11), are pinned here against the
  index; and
* the images it wrote.  Engine images from that commit carry a
  ``parallel`` entry (``None`` on a serial engine, the sweep's
  checkpoint with ``workers=2``) and pickled telemetry carries its
  ``parallel_sweeps`` / ``worker_time_s``.  The serial engine must
  read both and decide exactly as if the entries were not there.

``tests/test_differential.py`` pins the decisions the sweep made under
churn against the serial engine, and ``tests/sim/test_parent_checkpoints.py``
resumes whole runs from the images.
"""

import gzip
import pathlib

import numpy as np
import pytest

from repro.cluster.constraints import ConstraintSet
from repro.cluster.snapshot import read_snapshot
from repro.cluster.state import ClusterState
from repro.cluster.topology import (
    MachineSpec,
    build_cluster,
    build_heterogeneous_cluster,
)
from repro.core import AladdinScheduler
from repro.core.machindex import MachineIndex
from repro.core.scheduler import _scores
from repro.sim.online import OnlineConfig, pool_topology
from repro.telemetry import SchedulerTelemetry
from repro.trace import generate_trace

DATA = pathlib.Path(__file__).parents[1] / "sim" / "data"


def _hetero_cluster(per_rack):
    return build_heterogeneous_cluster(
        [
            (8, MachineSpec(cpu=8.0, mem_gb=16.0)),
            (4, MachineSpec(cpu=64.0, mem_gb=128.0)),
        ],
        machines_per_rack=per_rack,
    )


# ----------------------------------------------------------------------
# the serial order the sweep's candidate merge reproduced
# ----------------------------------------------------------------------
def _serial_order(state, mask, affinity):
    ids = np.flatnonzero(mask)
    return ids[np.argsort(_scores(state, ids, affinity), kind="stable")]


#: seed -> the order ``merge_candidates`` returned at 4fe1a11
MERGED = {
    0: [3, 5, 7, 8, 1, 10, 12, 13, 18, 9, 11, 14, 15, 19],
    1: [9, 18, 1, 6, 4, 5, 8, 12, 11, 16, 17, 2, 7],
    2: [1, 2, 3, 7, 17, 18, 4, 8, 9, 16, 19, 0, 5, 10, 11, 14],
    3: [1, 9, 6, 2, 3, 8, 10, 15, 18, 7, 12, 13, 0, 16],
    4: [15, 18, 8, 9, 12, 14, 19, 1, 2, 5, 13, 16],
    5: [1, 8, 2, 7, 9, 10, 14, 16, 6, 11, 13, 0, 19],
    6: [10, 15, 19, 0, 2, 6, 7, 11, 12, 18, 9, 13, 16],
    7: [10, 16, 1, 2, 3, 5, 8, 13, 18, 4, 14, 19, 0, 11, 12, 15],
}


@pytest.mark.parametrize("seed", range(8))
def test_merge_candidates_matches_serial_order(seed):
    rng = np.random.default_rng(seed)
    state = ClusterState(build_cluster(20, machines_per_rack=4), ConstraintSet())
    # Randomize packing levels, with deliberate ties.
    state.available[:, 0] = rng.choice([4.0, 8.0, 16.0], size=20)
    mask = rng.random(20) < 0.7
    affinity = rng.random(20) < 0.3 if seed % 2 else None
    order = MachineIndex().candidates(state, mask, affinity)
    assert order.tolist() == _serial_order(state, mask, affinity).tolist()
    assert order.tolist() == MERGED[seed]


def test_merge_candidates_heterogeneous_fallback_matches_serial():
    """Keys large enough to cross the affinity tier forced the merge's
    exact rescoring branch; the index's order on the same state is the
    one that branch returned."""
    state = ClusterState(_hetero_cluster(4), ConstraintSet())
    state.available[:, 0] = np.linspace(1.0, 10_000.0, 12)
    mask = np.ones(12, dtype=bool)
    affinity = np.zeros(12, dtype=bool)
    affinity[[1, 10, 11]] = True
    order = MachineIndex().candidates(state, mask, affinity)
    assert order.tolist() == _serial_order(state, mask, affinity).tolist()
    assert order.tolist() == list(range(12))


def test_merge_candidates_empty():
    state = ClusterState(build_cluster(10, machines_per_rack=4), ConstraintSet())
    out = MachineIndex().candidates(state, np.zeros(10, dtype=bool))
    assert out.size == 0


# ----------------------------------------------------------------------
# images written while the sweep existed
# ----------------------------------------------------------------------
_TRACE = None


def _lla_trace():
    global _TRACE
    if _TRACE is None:
        _TRACE = generate_trace(scale=0.03, seed=0)
    return _TRACE


def _snapshot(name, tmp_path):
    path = tmp_path / f"{name}.ckpt"
    path.write_bytes(gzip.decompress((DATA / f"{name}.ckpt.gz").read_bytes()))
    return read_snapshot(str(path), kind="online-sim")


def _next_round(snapshot, image):
    """Restore ``image`` on a fresh serial engine against the snapshot's
    state and schedule the next 60 containers that are not running."""
    trace = _lla_trace()
    state = ClusterState.from_payload(
        snapshot["state"],
        pool_topology(trace, OnlineConfig(ticks=12, seed=0)),
        trace.constraints,
    )
    engine = AladdinScheduler.from_checkpoint(image, state)
    batch = [
        c for c in trace.containers if c.container_id not in state.assignment
    ][:60]
    result = engine.schedule(batch, state)
    return (
        result.placements,
        result.undeployed,
        result.explored,
        result.telemetry.counters(),
        state.assignment,
    )


def _without_parallel(image):
    return {k: v for k, v in image.items() if k != "parallel"}


def test_sweep_checkpoint_none_paths(tmp_path):
    """A serial engine's image from before the deletion carries
    ``parallel: None``; the engine restores it as if the key were
    absent."""
    snapshot = _snapshot("lla", tmp_path)
    image = snapshot["engine"]
    assert "parallel" in image and image["parallel"] is None
    placements, *rest = _next_round(snapshot, image)
    assert placements, "the round placed nothing"
    assert [placements, *rest] == list(
        _next_round(snapshot, _without_parallel(image))
    )


def test_sweep_checkpoint_restore_round_trip(tmp_path):
    """An image written by a ``workers=2`` engine carries the sweep's
    own checkpoint (shard bounds, watermark, per-worker ledgers); the
    serial engine ignores it, and its next round — placements,
    verdicts, ``explored``, counters and the resulting state — is the
    one it makes from the same image without the entry."""
    snapshot = _snapshot("lla-workers2", tmp_path)
    image = snapshot["engine"]
    sweep = image["parallel"]
    assert sweep is not None and len(sweep["workers"]) == 2
    assert sweep["sweeps"] > 0
    placements, *rest = _next_round(snapshot, image)
    assert placements, "the round placed nothing"
    assert [placements, *rest] == list(
        _next_round(snapshot, _without_parallel(image))
    )


def test_parallel_sweep_telemetry_counter(tmp_path):
    """Telemetry pickled by a ``workers=2`` run still carries the
    sweep's counter and per-worker timings; neither reaches the
    deterministic counter set, and merging it folds only the counters
    that exist."""
    written = _snapshot("lla-workers2", tmp_path)["result"].telemetry
    assert vars(written)["parallel_sweeps"] > 0
    assert vars(written)["worker_time_s"]
    counters = written.counters()
    assert "parallel_sweeps" not in counters
    assert list(counters) == list(SchedulerTelemetry().counters())
    merged = SchedulerTelemetry()
    merged.merge(written)
    assert merged.counters() == counters
    assert "parallel_sweeps" not in vars(merged)
    assert "worker_time_s" not in vars(merged)
