"""Span-bounded index repair against the fresh stable ``argsort``.

:meth:`repro.core.machindex.MachineIndex._reinsert` rewrites, in place,
only the span of the order between the moved machines' smallest and
largest old and new keys.  The oracle is ``ground_truth`` from
``test_machindex`` — a stable ``argsort`` of the scratch-built scores —
and the worlds below are built to reach what that module's randomized
test (16 machines, integer CPUs, one mutation per sync) cannot:

* several machines dirtied between two syncs, by ``deploy_block`` (runs
  of several containers), ``evict_block``, ``migrate``, faults, power
  drains and bare touches;
* both regimes of the repair: short feeds (one to ``SHORT_FEED``
  moved machines, slid into place one by one, falling back to the span
  sort on an exact key collision) and feeds past that threshold (the
  span sort), each rewriting exactly the span its moved machines cross;
* machines emptied back into the tail of untouched machines;
* heterogeneous capacities;
* **exact float key collisions** — on 9 machines with half-CPU shapes
  machine 0 at 2.5 CPU and machine 5 at 2.0 CPU both key 25.0, so the
  machine-id tie-break decides and previous positions must not.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Container
from repro.cluster.state import ClusterState, StateCursor
from repro.cluster.topology import (
    MachineSpec,
    build_cluster,
    build_heterogeneous_cluster,
)
from repro.core.machindex import SHORT_FEED, MachineIndex, packing_keys
from repro.sim.faults import fail_machines, machine_is_down, repair_machines
from tests.core.test_machindex import deploy, ground_truth

#: (cpu, mem) per container; the half-CPU shapes make keys collide
SHAPES = [(0.5, 1.0), (1.0, 1.0), (1.5, 2.0), (2.0, 2.0), (2.5, 4.0), (4.0, 8.0)]


def collision_topology():
    """9 machines x 4 CPUs: remaining CPU steps by 0.5, the key spread
    is 10, so machines five ids apart collide all the time."""
    return build_cluster(9, MachineSpec(cpu=4.0, mem_gb=16.0), machines_per_rack=3)


def mixed_topology():
    """48 machines of three sizes: no collision is possible (the spread
    is 49), dirty sets are wide, and most machines start in the tail."""
    return build_heterogeneous_cluster(
        [
            (8, MachineSpec(cpu=64.0, mem_gb=128.0)),
            (24, MachineSpec(cpu=32.0, mem_gb=64.0)),
            (16, MachineSpec(cpu=8.0, mem_gb=16.0)),
        ],
        machines_per_rack=8,
    )


class World:
    """One state under random mutation, with the index that follows it."""

    OPS = (
        ["deploy_block"] * 4
        + ["evict_block"] * 3
        + ["migrate"] * 2
        + ["fault", "power", "bare_touch", "empty_machines"]
    )

    def __init__(self, topology, r: random.Random) -> None:
        self.r = r
        self.state = ClusterState(topology, ConstraintSet())
        self.index = MachineIndex()
        self.next_cid = 0
        self.failed: set[int] = set()
        self.drained: set[int] = set()
        self.reached: Counter[str] = Counter()

    # -- mutations ------------------------------------------------------
    def up_machines(self) -> list[int]:
        return [
            m for m in range(self.state.n_machines)
            if m not in self.failed and m not in self.drained
        ]

    def deploy_block(self) -> None:
        cpu, mem = self.r.choice(SHAPES)
        demand = np.array([cpu, mem])
        room = self.state.available.copy()
        machines: list[int] = []
        counts: list[int] = []
        up = self.up_machines()
        for m in self.r.sample(up, min(len(up), self.r.randint(1, 4))):
            n = 0
            for _ in range(self.r.randint(1, 3)):
                if (room[m] >= demand).all():
                    room[m] -= demand
                    n += 1
            if n:
                machines.append(m)
                counts.append(n)
        block = [
            Container(container_id=self.next_cid + i, app_id=self.next_cid,
                      instance=i, cpu=cpu, mem_gb=mem)
            for i in range(sum(counts))
        ]
        self.next_cid += len(block) + 1
        self.state.deploy_block(block, machines, counts, demand)

    def evict_block(self) -> None:
        cids = list(self.state.assignment)
        self.state.evict_block(
            self.r.sample(cids, min(len(cids), self.r.randint(1, 8)))
        )

    def empty_machines(self) -> None:
        hosts = [m for m, c in self.state.machine_containers.items() if c]
        picked = self.r.sample(hosts, min(len(hosts), self.r.randint(1, 3)))
        self.state.evict_block(
            [cid for m in picked for cid in self.state.machine_containers[m]]
        )
        if picked:
            self.reached["machines emptied back into the tail"] += 1

    def migrate(self) -> None:
        if not self.state.assignment:
            return
        cid = self.r.choice(list(self.state.assignment))
        try:
            self.state.migrate(cid, self.r.randrange(self.state.n_machines))
        except ValueError:
            pass  # full or down: the container is back on its source

    def fault(self) -> None:
        if self.failed and self.r.random() < 0.5:
            m = self.r.choice(sorted(self.failed))
            repair_machines(self.state, [m])
            self.failed.discard(m)
            return
        m = self.r.randrange(self.state.n_machines)
        if not machine_is_down(self.state, m):
            fail_machines(self.state, [m])
            self.failed.add(m)
            self.reached["fault zeroed a machine"] += 1

    def power(self) -> None:
        # what PowerManager._seal / _wake do to an idle machine's row
        state = self.state
        if self.drained and self.r.random() < 0.5:
            m = self.r.choice(sorted(self.drained))
            state.available[m] = state.topology.capacity[m]
            self.drained.discard(m)
        else:
            idle = [
                m for m in self.up_machines()
                if not state.machine_containers.get(m)
            ]
            if not idle:
                return
            m = self.r.choice(idle)
            state.available[m] = 0.0
            self.drained.add(m)
            self.reached["power drained a machine"] += 1
        state.touch(m)

    def bare_touch(self) -> None:
        self.state.touch(self.r.randrange(self.state.n_machines))

    # -- the check ------------------------------------------------------
    def sync_and_check(self) -> None:
        state, index = self.state, self.index
        all_ids = np.arange(state.n_machines, dtype=np.int64)
        synced = index._cursor
        raw = state.advance(StateCursor(synced.uid, synced.version))
        dirty = None if raw is None else np.unique(raw)
        before = (index.resyncs, index.rebuilds, index.positions_rewritten)
        old_keys = None if index._keys is None else index._keys.copy()
        old_sorted = None if index._keys is None else index._sorted_keys.copy()

        got = index.candidates(state)
        assert got.tolist() == ground_truth(state).tolist()
        keys = packing_keys(state, all_ids)
        assert np.array_equal(index._keys, keys)
        assert np.array_equal(index._sorted_keys, keys[index._order])

        if index.resyncs > before[0] and index.rebuilds == before[1]:
            moved = dirty[keys[dirty] != old_keys[dirty]]
            rewritten = index.positions_rewritten - before[2]
            # the span between the moved machines' extreme old and new
            # keys, bisected on the order as it was: both regimes rewrite
            # exactly that many positions
            span = 0
            if moved.size:
                ends = np.concatenate((old_keys[moved], keys[moved]))
                span = int(old_sorted.searchsorted(ends.max(), side="right")) - int(
                    old_sorted.searchsorted(ends.min())
                )
            assert rewritten == span
            assert rewritten <= state.n_machines
            short = 0 < moved.size <= SHORT_FEED and raw.size <= 4 * SHORT_FEED
            collided = any(
                (old_keys == old_keys[m]).sum() > 1 or (keys == keys[m]).sum() > 1
                for m in moved.tolist()
            )
            if short:
                self.reached[
                    "short feed, one machine moved" if moved.size == 1
                    else "short feed, several machines moved"
                ] += 1
                if collided:
                    self.reached["short feed met a key collision"] += 1
            elif moved.size:
                self.reached["feed past the threshold"] += 1
            if moved.size > 1:
                self.reached["several machines moved in one resync"] += 1
            if moved.size < dirty.size:
                self.reached["a dirty machine kept its key"] += 1
            if moved.size and rewritten < state.n_machines:
                self.reached["span narrower than the order"] += 1
            if any((keys == keys[m]).sum() > 1 for m in moved.tolist()):
                self.reached["a moved machine collided on its key"] += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            # random intervals: no mutation at all, one, or a burst
            for _ in range(self.r.choice([0, 1, 1, 2, 3, 6])):
                getattr(self, self.r.choice(self.OPS))()
            self.sync_and_check()


#: both regimes of the repair, on every world
REGIMES = (
    "short feed, one machine moved",
    "short feed, several machines moved",
    "feed past the threshold",
)
COLLISION_REQUIRED = REGIMES + (
    "short feed met a key collision",
    "a moved machine collided on its key",
    "several machines moved in one resync",
    "a dirty machine kept its key",
    "machines emptied back into the tail",
    "fault zeroed a machine",
    "power drained a machine",
)
MIXED_REQUIRED = REGIMES + (
    "span narrower than the order",
    "several machines moved in one resync",
    "machines emptied back into the tail",
    "fault zeroed a machine",
    "power drained a machine",
)


@pytest.mark.parametrize("seed", range(12))
def test_seeded_replay_with_key_collisions(seed):
    world = World(collision_topology(), random.Random(seed))
    world.run(300)
    missing = [k for k in COLLISION_REQUIRED if not world.reached[k]]
    assert not missing, f"seed {seed} never reached: {missing}"
    assert world.index.rebuilds == 1, "mutations must resync, not rebuild"


@pytest.mark.parametrize("seed", range(12))
def test_seeded_replay_on_heterogeneous_machines(seed):
    world = World(mixed_topology(), random.Random(100 + seed))
    world.run(300)
    missing = [k for k in MIXED_REQUIRED if not world.reached[k]]
    assert not missing, f"seed {seed} never reached: {missing}"
    assert not world.reached["a moved machine collided on its key"]
    assert world.index.rebuilds == 1


# ----------------------------------------------------------------------
# pointed cases
# ----------------------------------------------------------------------
def test_colliding_keys_order_by_machine_id_whichever_moved():
    """Machine 0 at 2.5 CPU and machine 5 at 2.0 CPU both key 25.0."""
    for first, second in ((0, 5), (5, 0)):
        state = ClusterState(collision_topology(), ConstraintSet())
        index = MachineIndex()
        index.candidates(state)
        cpu = {0: 1.5, 5: 2.0}
        deploy(state, 0, first, cpu=cpu[first])
        index.candidates(state)
        deploy(state, 0, second, cpu=cpu[second])
        got = index.candidates(state).tolist()
        keys = packing_keys(state, np.arange(9, dtype=np.int64))
        assert keys[0] == keys[5] == 25.0
        assert got == ground_truth(state).tolist()
        assert got.index(0) + 1 == got.index(5)
        assert index.rebuilds == 1


def test_one_moved_machine_rewrites_only_the_positions_it_crosses():
    state = ClusterState(build_cluster(100), ConstraintSet())
    index = MachineIndex()
    for m in range(10):  # ten used machines, 22..31 CPUs remaining
        deploy(state, 0, m, cpu=10.0 - m)
    index.candidates(state)
    deploy(state, 0, 9, cpu=3.0)  # 31 -> 28: passes machines 8 and 7, lands after 6
    assert index.candidates(state).tolist() == ground_truth(state).tolist()
    assert index.positions_rewritten == 3


def test_one_raw_slice_that_touches_a_machine_several_times():
    """The resync reads the raw log slice: machine 4 appears five times
    (deploys, an eviction, a bare touch) and machine 2 twice.  Every
    entry is applied — re-keying a machine is idempotent — and the
    order is the fresh ``argsort``'s, as if the slice had been deduped."""
    state = ClusterState(build_cluster(12), ConstraintSet())
    index = MachineIndex()
    deploy(state, 0, 7, cpu=6.0)
    index.candidates(state)
    since = state.cursor()
    cids = [deploy(state, 0, 4, cpu=3.0) for _ in range(3)]
    deploy(state, 0, 2, cpu=1.5)
    state.evict(cids[0])
    state.touch(4)
    deploy(state, 0, 2, cpu=2.0)
    raw = state.advance(since).tolist()
    assert raw == [4, 4, 4, 2, 4, 4, 2]
    assert index.candidates(state).tolist() == ground_truth(state).tolist()
    assert (index.resyncs, index.rebuilds) == (1, 1)
    assert index.last_resynced == len(raw)
    # the span runs from machine 7 (26 CPU, which machine 4 at 26 CPU
    # now precedes by id) to machine 4's old place behind 0, 1, 2, 3:
    # six positions, however often the slice names machine 4
    assert index.positions_rewritten == 6
    keys = packing_keys(state, np.arange(12, dtype=np.int64))
    assert np.array_equal(index._sorted_keys, np.sort(keys))


def test_unmasked_result_is_read_only():
    state = ClusterState(build_cluster(8), ConstraintSet())
    index = MachineIndex()
    order = index.candidates(state)
    with pytest.raises(ValueError):
        order[0] = 3
    mask = np.ones(8, dtype=bool)
    index.candidates(state, mask)[0] = 3  # a masked result is a fresh array
    assert index.candidates(state).tolist() == ground_truth(state).tolist()


def test_image_written_without_sorted_keys_restores_and_resyncs():
    """The checkpoint holds ``order`` and ``keys`` only — what the
    whole-order implementation wrote; the sorted keys positions are
    bisected on are derived on restore."""
    world = World(mixed_topology(), random.Random(7))
    world.run(40)
    image = world.index.checkpoint()
    assert sorted(image) == [
        "keys", "last_resynced", "order", "rebuilds", "resyncs", "version",
    ]
    payload = world.state.checkpoint_payload()
    restored = ClusterState.from_payload(
        payload, world.state.topology, world.state.constraints
    )
    index = MachineIndex()
    index.restore(image, restored.state_uid)
    # the same mutations on both sides, then one resync each
    for state in (world.state, restored):
        state.evict_block(list(state.assignment)[:5])
        fail_machines(state, [2])
    assert (
        index.candidates(restored).tolist()
        == world.index.candidates(world.state).tolist()
        == ground_truth(restored).tolist()
    )
    assert index.rebuilds == world.index.rebuilds == 1
    assert index.resyncs == world.index.resyncs
