"""Windowed candidates: a block's plan from a prefix of the order.

``AladdinScheduler._batch_place`` hands the batch kernel a raw window of
the packed-first order (``max(64, 2k)`` positions from the CPU bisect),
on which the kernel evaluates Equations 6-8 itself, and widens it x4
only while the plan is short and the order has more to read.  The claim
is that this is the plan from the whole list: all three ``block_plan``
scopes consume candidates strictly in order.

The oracle is the unlimited form — ``block_plan`` over
``candidates(state, feasible_mask)`` from a *fresh* index — on clusters
wider than the first window, so that windows really are narrower than
the order.  ``candidates(..., min_cpu, limit)`` itself is checked
against the unlimited list with windows far smaller than the
scheduler's.
"""

import numpy as np
import pytest

from repro.base import ScheduleResult
from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Application, containers_of
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core import AladdinScheduler
from repro.core.batchkernel import block_plan
from repro.core.machindex import MachineIndex, packing_keys
from tests.core.walk_oracle import walk_blocks

N_MACHINES = 400
PER_RACK = 40
N_FILL = 48

#: (cpu, mem) of the resident filler; 32 GB twice fills a 64 GB machine
#: with 28 CPUs to spare — the memory-bound run the CPU bisect cannot skip
FILL_SHAPES = [(1.0, 2.0), (2.0, 32.0), (4.0, 8.0), (8.0, 16.0), (16.0, 8.0)]
PROBE_SHAPES = [(1.0, 2.0), (2.0, 4.0), (1.0, 16.0), (8.0, 8.0), (24.0, 4.0)]


def build_world(seed, probes):
    """A 400-machine state with ~150 used machines and its probe apps.

    ``probes`` is a list of ``(k, cpu, mem, scope, conflict_share)``:
    one application each, conflicting with that share of the filler.
    """
    rng = np.random.default_rng(seed)
    apps = []
    for i in range(N_FILL):
        cpu, mem = FILL_SHAPES[int(rng.integers(len(FILL_SHAPES)))]
        apps.append(Application(i, int(rng.integers(4, 30)), cpu, mem))
    for j, (k, cpu, mem, scope, share) in enumerate(probes):
        apps.append(
            Application(
                N_FILL + j, k, cpu, mem,
                anti_affinity_within=scope is not None,
                anti_affinity_scope=scope or "machine",
                conflicts=frozenset(
                    i for i in range(N_FILL) if rng.random() < share
                ),
            )
        )
    state = ClusterState(
        build_cluster(N_MACHINES, machines_per_rack=PER_RACK),
        ConstraintSet.from_applications(apps),
    )
    by_app: dict[int, list] = {}
    for c in containers_of(apps):
        by_app.setdefault(c.app_id, []).append(c)
    # The filler lands on a random 160 machines, several apps a machine.
    hosts = rng.permutation(N_MACHINES)[:160]
    for app in apps[:N_FILL]:
        demand = app.demand_vector(state.topology.resources)
        room = state.available.copy()
        machines = []
        for m in rng.choice(hosts, size=app.n_containers).tolist():
            if (room[m] >= demand).all():
                room[m] -= demand
                machines.append(m)
        state.deploy_block(
            by_app[app.app_id][: len(machines)], machines, [1] * len(machines),
            demand,
        )
    return state, apps[N_FILL:], by_app


def batch_place(engine, state, block):
    """``_batch_place`` as ``_place_block`` calls it, with the plan the
    unlimited candidate list gives, computed first on a fresh index."""
    app_id = block[0].app_id
    demand = block[0].demand_vector(state.topology.resources)
    cs = state.constraints
    scope = cs.within_scope(app_id) if cs.has_within(app_id) else None
    mask = state.feasible_mask(demand, app_id)
    affinity = state.affinity_mask(app_id)
    expected = np.repeat(*block_plan(
        state, demand, app_id,
        MachineIndex().candidates(state, mask, affinity), len(block), scope,
    ))
    result = ScheduleResult()
    placed = engine._batch_place(
        block, state, demand, None if affinity is None else mask, affinity,
        result,
    )
    got = [result.placements[c.container_id] for c in block[:placed]]
    return got, expected.tolist()


@pytest.fixture
def candidate_calls(monkeypatch):
    """Count ``MachineIndex.candidates`` calls (one per window read)."""
    calls = []
    original = MachineIndex.candidates

    def counting(self, *args, **kwargs):
        calls.append(kwargs.get("limit"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MachineIndex, "candidates", counting)
    return calls


# ----------------------------------------------------------------------
# the property: windows == unlimited, for every scope
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(25))
def test_widening_windows_plan_what_the_whole_list_plans(seed, candidate_calls):
    rng = np.random.default_rng(1000 + seed)
    probes = []
    for _ in range(18):
        cpu, mem = PROBE_SHAPES[int(rng.integers(len(PROBE_SHAPES)))]
        probes.append((
            int(rng.choice([1, 3, 12, 40, 90, 300])),
            cpu, mem,
            [None, "machine", "rack"][int(rng.integers(3))],
            float(rng.choice([0.0, 0.1, 0.6, 1.0])),
        ))
    state, apps, by_app = build_world(seed, probes)
    engine = AladdinScheduler()
    short = widened = 0
    for app in apps:  # placements accumulate: later probes see earlier ones
        before = len(candidate_calls)
        got, expected = batch_place(engine, state, by_app[app.app_id])
        assert got == expected, f"app {app.app_id} {probes[app.app_id - N_FILL]}"
        short += len(expected) < app.n_containers
        widened += len(candidate_calls) - before > 2  # oracle's call + first window
    assert widened, "no block ever needed a second window"
    assert short, "no block ever overflowed its candidates"


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------
def packed_front(n_hosts, cpu, mem, probe):
    """``n_hosts`` machines each holding one ``(cpu, mem)`` container of
    filler app 0 — the packed front every window starts in — plus one
    probe application ``(k, cpu, mem, scope, conflicts)``."""
    k, pcpu, pmem, scope, conflicts = probe
    apps = [
        Application(0, n_hosts, cpu, mem),
        Application(
            1, k, pcpu, pmem,
            anti_affinity_within=scope is not None,
            anti_affinity_scope=scope or "machine",
            conflicts=frozenset(conflicts),
        ),
    ]
    state = ClusterState(
        build_cluster(N_MACHINES, machines_per_rack=PER_RACK),
        ConstraintSet.from_applications(apps),
    )
    containers = containers_of(apps)
    state.deploy_block(
        containers[:n_hosts], list(range(n_hosts)), [1] * n_hosts,
        apps[0].demand_vector(state.topology.resources),
    )
    return state, containers[n_hosts:]


def test_memory_bound_run_after_the_cpu_bisect(candidate_calls):
    # 100 machines keep 30 CPUs but only 4 GB: the bisect for 1 CPU lands
    # on them, and an 8 GB container fits none — the first window of 64
    # is all memory-infeasible.
    state, block = packed_front(100, 2.0, 60.0, (5, 1.0, 8.0, None, ()))
    got, expected = batch_place(AladdinScheduler(), state, block)
    assert got == expected == [100] * 5
    assert candidate_calls == [None, 64, 256]


def test_blacklist_excludes_the_entire_first_window(candidate_calls):
    state, block = packed_front(70, 2.0, 4.0, (3, 1.0, 2.0, None, (0,)))
    got, expected = batch_place(AladdinScheduler(), state, block)
    assert got == expected == [70] * 3
    assert candidate_calls == [None, 64, 256]


def test_k_larger_than_the_remaining_capacity(candidate_calls):
    # 24-CPU containers: one per machine, and only the 30 machines the
    # probe does not conflict away admit one — the windows run to the
    # end of the order and the plan stays short, exactly as unlimited.
    state, block = packed_front(
        370, 2.0, 4.0, (40, 24.0, 4.0, None, (0,)),
    )
    got, expected = batch_place(AladdinScheduler(), state, block)
    assert got == expected == list(range(370, 400))
    assert candidate_calls == [None, 80, 320, 1280]


def test_overflow_reaches_the_walk_and_rescue_at_the_same_point():
    """The whole ``schedule()`` agrees with the per-container loop when
    the block outgrows its candidates: same placements, same verdicts,
    same rescue migrations for the ten containers left over."""
    results = []
    for engine in (AladdinScheduler(), walk_blocks(AladdinScheduler())):
        state, block = packed_front(
            370, 2.0, 4.0, (40, 24.0, 4.0, None, (0,)),
        )
        result = engine.schedule(block, state)
        results.append(
            (result.placements, result.undeployed, result.migrations)
        )
        assert len(result.placements) + len(result.undeployed) == 40
    assert results[0] == results[1]
    assert results[0][2], "the overflow never reached rescue"


def test_rack_scoped_block_needs_k_distinct_racks(candidate_calls):
    # 64 positions span two racks of 40; six containers need six.
    state, block = packed_front(200, 2.0, 4.0, (6, 1.0, 2.0, "rack", ()))
    got, expected = batch_place(AladdinScheduler(), state, block)
    assert got == expected == [0, 40, 80, 120, 160, 200]
    assert candidate_calls == [None, 64, 256]


def test_rack_scoped_block_with_fewer_racks_than_k():
    state, block = packed_front(
        200, 2.0, 4.0, (14, 1.0, 2.0, "rack", ()),
    )
    got, expected = batch_place(AladdinScheduler(), state, block)
    assert got == expected
    assert len(got) == N_MACHINES // PER_RACK  # ten racks, ten containers


def test_affinity_keeps_the_unlimited_path(candidate_calls):
    apps = [
        Application(0, 100, 2.0, 4.0),
        Application(1, 1, 2.0, 4.0),
        Application(2, 4, 1.0, 2.0, affinities=frozenset({1})),
    ]
    state = ClusterState(
        build_cluster(N_MACHINES, machines_per_rack=PER_RACK),
        ConstraintSet.from_applications(apps),
    )
    containers = containers_of(apps)
    demand = apps[0].demand_vector(state.topology.resources)
    state.deploy_block(containers[:100], list(range(100)), [1] * 100, demand)
    state.deploy(containers[100], 333)  # the affine host, deep in the tail
    engine = AladdinScheduler()
    got, expected = batch_place(engine, state, containers[101:])
    assert got == expected == [333] * 4
    assert engine.machine_index.last_complete
    assert len(candidate_calls) == 2  # the oracle's and one tiered query


# ----------------------------------------------------------------------
# the index contract, with windows far smaller than the scheduler's
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_window_is_a_prefix_of_the_unlimited_list(seed):
    rng = np.random.default_rng(seed)
    state, _, _ = build_world(seed, [])
    index = MachineIndex()
    for _ in range(40):
        cpu, mem = PROBE_SHAPES[int(rng.integers(len(PROBE_SHAPES)))]
        demand = np.array([cpu, mem])
        mask = state.feasible_mask(demand)
        mask &= rng.random(N_MACHINES) < rng.choice([0.05, 0.5, 1.0])
        full = index.candidates(state, mask)
        assert index.last_complete
        min_cpu = float(rng.choice([0.0, cpu / 2, cpu]))
        limit = int(rng.choice([1, 4, 32, 150, 400, 1000]))
        window = index.candidates(state, min_cpu=min_cpu, limit=limit)
        complete = index.last_complete
        assert not window.flags.writeable
        # the window is raw: what the mask admits of it is a prefix of
        # the admitted list, since the mask rejects every machine the
        # min_cpu bisect skipped
        admitted = window[mask[window]]
        assert admitted.tolist() == full[: admitted.size].tolist()
        # exactly ``limit`` positions of the order, from the first key
        # that min_cpu does not rule out
        keys = packing_keys(state, np.arange(N_MACHINES, dtype=np.int64))
        start = int((keys < min_cpu * (N_MACHINES + 1)).sum())
        order = index.candidates(state)
        assert window.tolist() == order[start : start + limit].tolist()
        assert complete == (start + limit >= N_MACHINES)
        if complete:
            assert admitted.size == full.size


def test_min_cpu_zero_starts_at_the_head_of_the_order():
    state, _ = packed_front(10, 32.0, 4.0, (1, 1.0, 1.0, None, ()))
    index = MachineIndex()
    got = index.candidates(state, min_cpu=0.0, limit=12)
    assert got.tolist() == list(range(12))  # the ten full machines first
    assert not index.last_complete
    got = index.candidates(state, min_cpu=1.0, limit=12)
    assert got.tolist() == list(range(10, 22))  # bisected past them
    index.candidates(state, min_cpu=1.0, limit=N_MACHINES - 10)
    assert index.last_complete
