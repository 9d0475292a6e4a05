"""The batched block placement kernel against its oracles.

:func:`repro.core.batchkernel.block_plan` walks a raw window of the
machine order once: Equation 6 vectorised, Equations 7–8 and the fit
quota per surviving position, stopping at the block's k-th container.
Two oracles hold it:

* the per-container walk, written naively — take the first candidate
  that still fits, decrement its remaining capacity, honour
  within-anti-affinity by dropping used machines (or whole racks);
* the vectorised plan the kernel replaced — ``oracle_block_plan``, a
  quota prefix-sum and a ``searchsorted`` over candidates already
  filtered by the window predicate it also replaced,
  ``oracle_admits`` (``feasible_mask(demand, app)[ids]`` evaluated on
  ``ids`` only).

The hypothesis property feeds both the kernel and the vectorised oracle
the same window — random orders over fractional-CPU, memory-bound
clusters with machine- and rack-scoped within-rules, conflicts,
evictions, failed machines and rules added after placement — and asks
for the same placement runs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Container
from repro.cluster.state import ClusterState, dominates
from repro.cluster.topology import build_cluster
from repro.core.batchkernel import block_plan
from repro.sim.faults import fail_machines
from tests.core.test_blacklist import RULE_PAIRS, scoped_constraints


def fresh_state(n_machines=8, apps=(), machines_per_rack=4):
    return ClusterState(
        build_cluster(n_machines, machines_per_rack=machines_per_rack),
        ConstraintSet.from_applications(list(apps)),
    )


def deploy(state, app_id, machine_id, cpu=4.0, mem=8.0):
    deploy._next = getattr(deploy, "_next", 0) + 1
    c = Container(container_id=30_000 + deploy._next, app_id=app_id,
                  instance=0, cpu=cpu, mem_gb=mem)
    state.deploy(c, machine_id)


def plan(state, demand, candidates, k, within_scope, app_id=0):
    """The kernel's runs, expanded to one machine per container."""
    return np.repeat(
        *block_plan(state, demand, app_id, candidates, k, within_scope)
    ).tolist()


def sequential_oracle(state, demand, candidates, k, within_scope):
    """The per-container walk, literally: first fitting candidate wins."""
    avail = state.available[candidates].copy()
    used_machines: set[int] = set()
    used_racks: set[int] = set()
    out = []
    for _ in range(k):
        chosen = None
        for j, m in enumerate(candidates):
            if within_scope == "machine" and int(m) in used_machines:
                continue
            if within_scope == "rack" and (
                int(state.topology.rack_of[m]) in used_racks
            ):
                continue
            if (avail[j] >= demand).all():
                chosen = j
                break
        if chosen is None:
            break
        out.append(int(candidates[chosen]))
        avail[chosen] -= demand
        used_machines.add(int(candidates[chosen]))
        used_racks.add(int(state.topology.rack_of[candidates[chosen]]))
    return out


# ----------------------------------------------------------------------
# the vectorised oracle: the window predicate and the quota prefix-sum
# ----------------------------------------------------------------------
def oracle_admits(state, ids, demand, app_id):
    """``feasible_mask(demand, app_id)[ids]``, evaluated on ``ids`` only:
    Equation 6 on the gathered rows, then Equations 7–8 per machine from
    the applications it hosts."""
    ok = dominates(state.available[ids], demand)
    cs = state.constraints
    within = cs.has_within(app_id)
    if not (within or cs.has_conflicts(app_id)):
        return ok
    own = app_id if within else None
    conflicts = cs.conflicts_of(app_id)
    get = state.machine_apps.get
    pos = np.flatnonzero(ok)
    blocked = [
        i
        for i, m in zip(pos.tolist(), ids[pos].tolist())
        if (hosted := get(m))
        and (own in hosted or not conflicts.isdisjoint(hosted))
    ]
    if blocked:
        ok[blocked] = False
    if within and cs.within_scope(app_id) == "rack":
        hosting = state.app_machines.get(app_id)
        if hosting:
            rack_of = state.topology.rack_of
            ok &= ~np.isin(rack_of[ids], rack_of[list(hosting)])
    return ok


def oracle_block_plan(state, demand, candidates, k, within_scope):
    """Machine per container from *admitting* candidates, vectorised:
    one machine per rack (rack scope) or per machine (machine scope),
    else per-machine quotas, one cumulative sum and a ``searchsorted``."""
    if candidates.size == 0 or k <= 0:
        return []
    if within_scope == "rack":
        racks = state.topology.rack_of[candidates]
        _, first = np.unique(racks, return_index=True)
        candidates = candidates[np.sort(first)]
    if within_scope is not None:
        return candidates[:k].tolist()
    candidates = candidates[:k]
    with np.errstate(divide="ignore"):
        quota = np.floor(
            (state.available[candidates] / demand).min(axis=1)
        ).astype(np.int64)
    cum = np.cumsum(quota)
    placed = min(k, int(cum[-1]))
    if placed <= 0:
        return []
    slots = np.searchsorted(cum, np.arange(1, placed + 1), side="left")
    return candidates[slots].tolist()


def runs_of(machines):
    """``(machines, counts)`` of consecutive equal entries."""
    out_m: list[int] = []
    out_n: list[int] = []
    for m in machines:
        if out_m and out_m[-1] == m:
            out_n[-1] += 1
        else:
            out_m.append(m)
            out_n.append(1)
    return out_m, out_n


class TestBlockPlan:
    def test_empty_candidates_or_zero_k(self):
        state = fresh_state()
        demand = np.array([4.0, 8.0])
        empty = np.empty(0, dtype=np.int64)
        assert plan(state, demand, empty, 3, None) == []
        ids = np.arange(4, dtype=np.int64)
        assert plan(state, demand, ids, 0, None) == []

    def test_fill_then_spill_in_candidate_order(self):
        # 32 CPU machines, 8-CPU containers: 4 per machine, then spill.
        state = fresh_state(n_machines=3)
        demand = np.array([8.0, 8.0])
        cands = np.array([2, 0, 1], dtype=np.int64)
        machines, counts = block_plan(state, demand, 0, cands, 10, None)
        assert (machines, counts) == ([2, 0, 1], [4, 4, 2])
        assert {type(x) for x in machines + counts} == {int}

    def test_partial_fit_prefix_when_quotas_run_dry(self):
        state = fresh_state(n_machines=2)
        deploy(state, 0, 0, cpu=28.0, mem=8.0)   # machine 0: 4 CPU left
        deploy(state, 0, 1, cpu=24.0, mem=8.0)   # machine 1: 8 CPU left
        demand = np.array([4.0, 4.0])
        cands = np.array([0, 1], dtype=np.int64)
        assert plan(state, demand, cands, 5, None) == [0, 1, 1]  # 3 of 5

    def test_machine_scope_takes_one_per_machine(self):
        state = fresh_state(n_machines=4)
        demand = np.array([4.0, 8.0])
        cands = np.array([3, 1, 0, 2], dtype=np.int64)
        assert plan(state, demand, cands, 3, "machine") == [3, 1, 0]

    def test_rack_scope_takes_first_machine_per_rack(self):
        # 8 machines, 4 per rack: candidates interleave racks; the plan
        # keeps the first representative of each rack in order.
        state = fresh_state(n_machines=8, machines_per_rack=4)
        demand = np.array([4.0, 8.0])
        cands = np.array([1, 0, 5, 2, 6], dtype=np.int64)  # racks 0,0,1,0,1
        assert plan(state, demand, cands, 4, "rack") == [1, 5]

    def test_fractional_demand_quota_floors(self):
        state = fresh_state(n_machines=1)
        demand = np.array([5.0, 5.0])  # floor(32/5)=6, floor(64/5)=12 → 6
        cands = np.array([0], dtype=np.int64)
        assert plan(state, demand, cands, 10, None) == [0] * 6

    def test_zero_demand_dimension_does_not_divide_by_zero(self):
        state = fresh_state(n_machines=1)
        demand = np.array([4.0, 0.0])
        cands = np.array([0], dtype=np.int64)
        assert plan(state, demand, cands, 3, None) == [0, 0, 0]

    def test_window_machines_that_do_not_fit_are_skipped(self):
        state = fresh_state(n_machines=4)
        deploy(state, 0, 1, cpu=30.0, mem=8.0)   # machine 1: 2 CPU left
        demand = np.array([4.0, 8.0])
        cands = np.array([1, 3, 0], dtype=np.int64)
        assert plan(state, demand, cands, 9, None) == [3] * 8 + [0]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("scope", [None, "machine", "rack"])
    def test_matches_sequential_oracle(self, seed, scope):
        rng = np.random.default_rng(seed)
        state = fresh_state(n_machines=12, machines_per_rack=3)
        # Pre-load random machines so quotas vary.
        for m in range(12):
            load = float(rng.choice([0.0, 8.0, 16.0, 24.0, 28.0]))
            if load:
                deploy(state, 0, m, cpu=load, mem=load)
        demand = np.array([float(rng.choice([2.0, 4.0, 8.0]))] * 2)
        # Candidates: a random preference order over every machine; the
        # oracle walk gets the ones that fit (it checks no blacklist,
        # and app 1 has no rule).
        order = rng.permutation(12).astype(np.int64)
        feasible = order[(state.available[order] >= demand).all(axis=1)]
        k = int(rng.integers(1, 20))
        assert plan(state, demand, order, k, scope, app_id=1) == (
            sequential_oracle(state, demand, feasible, k, scope)
        )


class ReadRecorder:
    """Stands in for ``ClusterState.machine_apps``, recording the
    machines whose hosted applications were asked for."""

    def __init__(self, real):
        self.real = real
        self.asked: list[int] = []

    def get(self, key, default=None):
        self.asked.append(key)
        return self.real.get(key, default)


def test_the_walk_asks_equations_7_8_only_up_to_the_last_planned_machine():
    """A conflicted block of 6 fits on the window's first two machines:
    the machines behind them are never asked what they host, however
    many of them pass Equation 6."""
    state = ClusterState(
        build_cluster(16, machines_per_rack=4),
        ConstraintSet([AntiAffinityRule(0, 1)]),
    )
    for m in range(16):
        deploy(state, 2, m, cpu=20.0, mem=8.0)   # 12 CPU left everywhere
    demand = np.array([4.0, 8.0])
    window = np.arange(16, dtype=np.int64)
    state.machine_apps = spy = ReadRecorder(state.machine_apps)
    machines, counts = block_plan(state, demand, 1, window, 6, None)
    assert (machines, counts) == ([0, 1], [3, 3])
    assert spy.asked == [0, 1]


# ----------------------------------------------------------------------
# the property: the walk plans what the vectorised oracle plans
# ----------------------------------------------------------------------
#: (cpu, mem) of resident containers: fractional CPUs, and memory-heavy
#: shapes that leave CPU to spare on a full 64 GB machine
RESIDENT_SHAPES = [(0.5, 1.0), (1.5, 2.0), (4.0, 8.0), (2.5, 30.0), (8.0, 40.0)]
#: probe demands: Equation-6 verdicts that differ with a machine's load,
#: exact fits included
PROBE_DEMANDS = [
    np.array(d) for d in
    [(0.5, 1.0), (1.5, 3.0), (4.0, 8.0), (2.0, 24.0), (12.5, 2.0), (32.0, 64.0)]
]
N_MACHINES = 8


@settings(max_examples=150, deadline=None)
@given(
    RULE_PAIRS,
    st.sets(st.integers(0, 4)),
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(0, N_MACHINES - 1),
            st.integers(0, len(RESIDENT_SHAPES) - 1),
        ),
        max_size=30,
    ),
    st.lists(st.integers(0, 29), max_size=6),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 7)), max_size=3),
    st.lists(st.integers(0, N_MACHINES - 1), max_size=2, unique=True),
    RULE_PAIRS,
    st.permutations(range(N_MACHINES)),
    st.integers(1, N_MACHINES),
    st.integers(1, 14),
)
@example(  # a blacklisted prefix: the window's first machines host app 0
    rules=[(0, 1)], rack_scoped=set(),
    deployments=[(0, 2, 2), (0, 5, 2), (3, 1, 4)],
    evictions=[], migrations=[], failures=[], late_rules=[],
    order=[2, 5, 1, 0, 3, 4, 6, 7], length=8, k=10,
)
def test_walk_matches_the_oracle_on_the_feasible_window(
    rules, rack_scoped, deployments, evictions, migrations, failures,
    late_rules, order, length, k,
):
    """For every application (scopes machine, rack and none), every
    probe demand and a random window of a random order: the window
    predicate is ``feasible_mask(demand, app)[window]``, and the kernel's
    runs over the raw window are the vectorised oracle's plan over the
    window's admitting machines.  Checked after deployments,
    ``evict_block``, migrations, failed machines and rules added after
    placement, on an eight-machine, four-rack cluster."""
    state = ClusterState(
        build_cluster(N_MACHINES, machines_per_rack=2),
        scoped_constraints(rules, rack_scoped),
    )
    for cid, (app, machine, shape) in enumerate(deployments):
        cpu, mem = RESIDENT_SHAPES[shape]
        if state.fits(np.array([cpu, mem]), machine):
            state.deploy(
                Container(container_id=cid, app_id=app, instance=0,
                          cpu=cpu, mem_gb=mem),
                machine, force=True,
            )
    window = np.array(order[:length], dtype=np.int64)
    assert_walk_matches_oracle(state, window, k)
    state.evict_block(evictions)
    for cid, target in migrations:
        if cid in state.assignment:
            try:
                state.migrate(cid, target)
            except ValueError:
                pass  # refused: the container stays on its source
    fail_machines(state, failures)
    assert_walk_matches_oracle(state, window, k)
    for a, b in late_rules:
        scope = "rack" if a == b and a not in rack_scoped else "machine"
        state.constraints.add_rule(AntiAffinityRule(a, b), scope=scope)
    assert_walk_matches_oracle(state, window, k)


def assert_walk_matches_oracle(state, window, k):
    cs = state.constraints
    for app in range(6):  # app 5 is named by no rule
        scope = cs.within_scope(app) if cs.has_within(app) else None
        for demand in PROBE_DEMANDS:
            feasible = state.feasible_mask(demand, app)[window]
            assert np.array_equal(
                oracle_admits(state, window, demand, app), feasible
            ), (app, demand)
            machines, counts = block_plan(state, demand, app, window, k, scope)
            assert (machines, counts) == runs_of(
                oracle_block_plan(state, demand, window[feasible], k, scope)
            ), (app, demand, scope)
