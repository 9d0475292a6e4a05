"""The rescue kernel's admit query: Equation 6 first, blacklist live.

``RescueKernel._admissible_ids`` answers "which machines admit one
container of ``(app, demand shape)``" for the relocation planner.  It
checks Equation 6 dominance first and evaluates the Equation 7–8
blacklist — read live from the state, never cached — only when some
machine survives it.  Three contracts are pinned here:

* **the answer** is ``state.feasible_mask`` (the from-scratch scan),
  whatever happened to the state between two queries;
* **the work**: no blacklist evaluation where nothing fits, never
  more than one per admissible-memo miss that found room plus one per
  rescue, and no relocation plan that reaches the admit query with a
  mover nothing dominates — counted, not timed, so a regression of
  the ordering fails here on any host;
* **the memos** are bounded by one state-version window, and their
  checkpoint image still reads both ways across the change that
  bounded them.

The decision-level contract (kernel ≡ loop oracle) stays where it was:
``tests/core/test_rescuekernel.py`` and the rescue axis of
``tests/test_differential.py``.
"""

from itertools import groupby
from operator import attrgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import rescue_stream
from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Container
from repro.cluster.machine import MachineSpec
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core import AladdinConfig, AladdinScheduler
from repro.core import rescuekernel
from repro.core.migration import RescuePlanner
from repro.core.rescuekernel import _NO_IDS, RescueKernel
from repro.sim.faults import fail_machines, machine_is_down, repair_machines
from tests.core.test_blacklist import (
    PROBE_APP,
    RULE_PAIRS,
    scoped_constraints,
)

N_MACHINES = 8
#: 16 CPU fits no machine of the 8-CPU pool, 8 only an empty one
DEMAND_CPUS = (1.0, 2.0, 4.0, 8.0, 16.0)

MACHINE = st.integers(0, N_MACHINES - 1)
CONTAINER_ID = st.integers(0, 23)
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("deploy"), PROBE_APP, MACHINE,
            st.sampled_from(DEMAND_CPUS[:3]),
        ),
        st.tuples(st.just("migrate"), CONTAINER_ID, MACHINE),
        st.tuples(st.just("evict"), CONTAINER_ID),
        st.tuples(st.just("fail"), MACHINE),
        st.tuples(st.just("repair"), MACHINE),
        st.tuples(st.just("ask"), PROBE_APP, st.sampled_from(DEMAND_CPUS)),
    ),
    max_size=40,
)


def small_state(rules, rack_scoped=frozenset()):
    """Eight 8-CPU machines in two racks under ``rules``; a within-rule
    of an application in ``rack_scoped`` spreads over racks."""
    topology = build_cluster(
        N_MACHINES, machine=MachineSpec(cpu=8.0, mem_gb=16.0),
        machines_per_rack=4,
    )
    return ClusterState(topology, scoped_constraints(rules, rack_scoped))


def demand_of(cpu):
    return np.array([cpu, 2.0 * cpu])


def assert_admissible_matches_scan(kernel, state, app, cpu):
    demand = demand_of(cpu)
    expected = np.flatnonzero(state.feasible_mask(demand, app))
    # twice: the second answer is the memo's
    for _ in range(2):
        assert np.array_equal(
            kernel._admissible_ids(state, app, demand), expected
        )


@settings(max_examples=150, deadline=None)
@given(RULE_PAIRS, st.sets(PROBE_APP), OPS)
def test_admissible_ids_match_the_from_scratch_scan(rules, rack_scoped, ops):
    """One kernel, asked again and again while the state moves under it
    — deployments, migrations (refused ones included: they still bump
    the version), evictions, machines zeroed by a fault and repaired —
    always answers what ``feasible_mask`` computes from scratch, the
    nothing-fits demand included."""
    state = small_state(rules, rack_scoped)
    kernel = RescueKernel()
    next_id = 0
    for op in ops:
        if op[0] == "deploy":
            _, app, machine, cpu = op
            if next_id < 24 and state.fits(demand_of(cpu), machine):
                state.deploy(
                    Container(
                        container_id=next_id, app_id=app, instance=0,
                        cpu=cpu, mem_gb=2.0 * cpu,
                    ),
                    machine,
                    force=True,
                )
                next_id += 1
        elif op[0] == "migrate":
            _, cid, machine = op
            if cid in state.assignment:
                try:
                    state.migrate(cid, machine)
                except ValueError:
                    pass  # refused: rolled back, version moved on
        elif op[0] == "evict":
            if op[1] in state.assignment:
                state.evict(op[1])
        elif op[0] == "fail":
            if not machine_is_down(state, op[1]):
                fail_machines(state, [op[1]])
        elif op[0] == "repair":
            if machine_is_down(state, op[1]):
                repair_machines(state, [op[1]])
        else:
            assert_admissible_matches_scan(kernel, state, op[1], op[2])
    for app in range(6):  # app 5 is named by no rule
        for cpu in DEMAND_CPUS:
            assert_admissible_matches_scan(kernel, state, app, cpu)


# ----------------------------------------------------------------------
# the work: counted, not timed
# ----------------------------------------------------------------------
def count_calls(obj, name, counter, key, gate=None):
    """Rebind ``obj.name`` to a wrapper that bumps ``counter[key]`` —
    only while ``counter[gate]`` is positive, when a gate is named —
    and returns the original's result."""
    original = getattr(obj, name)

    def wrapper(*args, **kwargs):
        if gate is None or counter[gate] > 0:
            counter[key] += 1
        return original(*args, **kwargs)

    setattr(obj, name, wrapper)


def test_no_blacklist_work_where_nothing_fits():
    """Every machine is too full for the demand: the admit query ends at
    Equation 6 — zero ``forbidden_mask`` calls, an empty answer — for a
    conflict-laden application and across versions."""
    state = small_state([(0, 1), (0, 2), (0, 0)])
    for machine in range(N_MACHINES):
        state.deploy(
            Container(
                container_id=machine, app_id=1 + machine % 2, instance=0,
                cpu=6.0, mem_gb=12.0,
            ),
            machine,
            force=True,
        )
    calls = {"forbidden": 0}
    count_calls(state, "forbidden_mask", calls, "forbidden")
    kernel = RescueKernel()
    for cid in (0, 1, 2):
        assert kernel._admissible_ids(state, 0, demand_of(4.0)).size == 0
        assert kernel._admissible_ids(state, 3, demand_of(8.0)).size == 0
        # swap the 6-CPU resident for a 5-CPU one: 3 CPU free, no room
        state.evict(cid)
        state.deploy(
            Container(
                container_id=100 + cid, app_id=1, instance=0,
                cpu=5.0, mem_gb=10.0,
            ),
            cid,
            force=True,
        )
    assert calls["forbidden"] == 0
    # and where something does fit, the blacklist is consulted: once
    assert kernel._admissible_ids(state, 0, demand_of(2.0)).size == 0
    assert kernel._admissible_ids(state, 3, demand_of(2.0)).tolist() == [
        0, 1, 2, 3, 4, 5, 6, 7,
    ]
    assert calls["forbidden"] == 2


def tight_pool(n_apps, churn_ticks, seed=0, slack=1.0):
    """One ``tight-rescue`` pool in miniature, filled: the e2e ruler's
    own generator (1.06× offered CPU, stationary churn).  ``slack``
    multiplies the machine count for a pool offered less than that."""
    stream = rescue_stream(0, seed, n_apps, churn_ticks)
    state = ClusterState(
        build_cluster(
            int(np.ceil(stream.n_machines * slack)), machines_per_rack=8
        ),
        ConstraintSet.from_applications(stream.applications),
    )
    engine = AladdinScheduler()
    for batch in stream.fill:
        engine.schedule(batch, state)
    return stream, state, engine


def churn(stream, state, engine, after_tick=None):
    """Churn like ``benchmarks.e2e.inproc.run_tight_rescue``: a tick's
    departures leave with its first arrival, every arriving application
    is its own ``schedule`` round."""
    for tick, (departing, arriving) in enumerate(stream.churn):
        state.evict_block(departing)
        for _, block in groupby(arriving, key=attrgetter("app_id")):
            engine.schedule(list(block), state)
        if after_tick is not None:
            after_tick(tick)


def count_screen_rejections(kernel, n, rejected=None):
    """Rebind the kernel's two walk screens so ``n["rejected"]`` counts
    the positions they reject; ``rejected`` (if given) holds the machine
    ids the running walk's screen rejected, and is emptied when the walk
    returns."""
    for name in ("_consolidation_screen", "_preemption_screen"):
        screen = getattr(kernel, name)

        # the state (consolidation) or the planner (preemption) first
        def screened(source, order, *args, _screen=screen):
            passing = _screen(source, order, *args)
            n["rejected"] += order.size - passing.size
            if rejected is not None:
                rejected.update(np.delete(order, passing).tolist())
            return passing

        setattr(kernel, name, screened)
    if rejected is not None:
        for name in ("_consolidate", "_preempt"):
            walk = getattr(kernel, name)

            def walked(*args, _walk=walk):
                try:
                    return _walk(*args)
                finally:
                    rejected.clear()

            setattr(kernel, name, walked)


def test_blacklist_evaluations_bounded_by_misses_that_found_room(
    monkeypatch,
):
    """Over a seeded tight churn the kernel evaluates the blacklist at
    most once per admissible-memo miss whose Equation 6 mask was
    non-empty, plus once per rescue (``rescue_plan`` needs the blocked
    container's own mask).  That the no-room queries — most of them on
    a tight pool — never reach the admit query at all is the screens':
    the walks reject, from the resident table, every machine whose
    covering mover prefix holds a shape nothing dominates (more than
    five positions per attempt here), the relocation planner ends any
    other set holding one, so no ``_admissible_ids`` call made from
    inside ``_plan_relocations`` comes back with the empty Equation 6
    answer, and the sequential planner body (entered iff the plan asks
    for at least one admissible list) runs fewer than twice per rescue
    attempt.  Without the planner's screen every plan enters it: 13
    bodies per attempt on this churn (1,175 for 90 attempts, 1,061 of
    them ending on an empty Equation 6 answer), ~78 at full scale."""
    stream, state, engine = tight_pool(n_apps=90, churn_ticks=8)
    kernel = engine.rescue_kernel
    n = {
        "in_rescue": 0, "in_admissible": 0, "in_plan": 0, "forbidden": 0,
        "misses": 0, "misses_with_room": 0, "rejected": 0,
        "plans": 0, "bodies": 0, "dead_in_plan": 0,
    }
    count_calls(state, "forbidden_mask", n, "forbidden", gate="in_rescue")
    count_screen_rejections(kernel, n)

    def scoped(name, flag):
        original = getattr(kernel, name)

        def wrapper(*args, **kwargs):
            n[flag] += 1
            try:
                return original(*args, **kwargs)
            finally:
                n[flag] -= 1

        setattr(kernel, name, wrapper)

    scoped("rescue_plan", "in_rescue")
    scoped("_admissible_ids", "in_admissible")
    # the kernel's Equation 6 call: one per admissible-memo miss
    dominates = rescuekernel.dominates

    def counted_dominates(available, demand):
        fit = dominates(available, demand)
        if n["in_admissible"]:
            n["misses"] += 1
            n["misses_with_room"] += bool(fit.any())
        return fit

    monkeypatch.setattr(rescuekernel, "dominates", counted_dominates)

    admissible_ids = kernel._admissible_ids
    asked_in_plan = []

    def counted_admissible_ids(*args):
        ids = admissible_ids(*args)
        if n["in_plan"]:
            asked_in_plan.append(ids)
            n["dead_in_plan"] += ids is _NO_IDS
        return ids

    kernel._admissible_ids = counted_admissible_ids
    plan_relocations = kernel._plan_relocations

    def counted_plan_relocations(*args):
        n["plans"] += 1
        asked_in_plan.clear()
        n["in_plan"] += 1
        try:
            return plan_relocations(*args)
        finally:
            n["in_plan"] -= 1
            n["bodies"] += bool(asked_in_plan)

    kernel._plan_relocations = counted_plan_relocations
    invocations_before = kernel.invocations
    churn(stream, state, engine)
    rescues = kernel.invocations - invocations_before

    assert rescues > 0 and n["misses_with_room"] > 0, "churn never rescued"
    assert n["rejected"] > 5 * rescues, "the pool is not tight: few dead walks"
    assert n["dead_in_plan"] == 0
    assert 0 < n["bodies"] < 2 * rescues
    assert n["forbidden"] <= n["misses_with_room"] + rescues


#: ``rescue_machines_scanned`` over the churn below, before the walks
#: screened: every position up to and including the success, or the
#: whole walk — the count a screen must leave alone
SCANNED_BEFORE_THE_WALK_SCREENS = 3807


def test_walks_plan_only_where_the_screen_passes():
    """The walks read residents only where a plan can start.  Over the
    seeded tight churn the relocation planner is entered at most 1.5
    times per rescue attempt (84 for 90; 1,175 before the walks
    screened, when consolidation handed it every covering prefix), never
    for a machine the running walk's screen rejected, and the strategy
    walks are charged exactly the positions they were charged before."""
    stream, state, engine = tight_pool(n_apps=90, churn_ticks=8)
    kernel = engine.rescue_kernel
    rejected: set[int] = set()
    n = {"rejected": 0, "plans": 0, "on_rejected": 0, "attempts": 0,
         "scanned": 0}
    count_screen_rejections(kernel, n, rejected)
    plan_relocations = kernel._plan_relocations

    def counted_plan_relocations(planner, movers, exclude, out):
        n["plans"] += 1
        n["on_rejected"] += exclude in rejected
        return plan_relocations(planner, movers, exclude, out)

    kernel._plan_relocations = counted_plan_relocations
    rescue_plan = kernel.rescue_plan

    def counted_rescue_plan(*args):
        out = rescue_plan(*args)
        n["attempts"] += 1
        n["scanned"] += out.scanned
        return out

    kernel.rescue_plan = counted_rescue_plan
    churn(stream, state, engine)

    assert n["attempts"] == 90 and n["rejected"] > 0
    assert n["plans"] <= 1.5 * n["attempts"]
    assert n["on_rejected"] == 0
    assert n["scanned"] == SCANNED_BEFORE_THE_WALK_SCREENS


#: ``explored`` over the same churn before the preemption screen decided
#: machines without a blocker exactly — it removes only positions the
#: loop passes over without a charge, so this must not move either.
#: Re-recorded (6,362 before) when the kernel's private dominance cache
#: was deleted: each rescue's Equation 6 scan is now charged the loop's
#: ``n_machines``, where the cache charged only the verdicts it
#: recomputed.  ``SCANNED_BEFORE_THE_WALK_SCREENS`` did not move.
EXPLORED_BEFORE_THE_EXACT_SCREEN = 11849


def test_preemption_reads_rows_only_where_a_blocker_or_a_plan_is():
    """Where no resident blocks the container, the preemption screen
    decides the machine exactly (Equation 9 included), so the walk reads
    a machine's residents (``state.deployed_containers``, outside the
    table's batch writer) only on a machine hosting a blocker or where
    it plans.  Over the seeded tight churn: 142 machines read in 17
    preemption walks, every one hosting a blocker (384 before, 241 of
    them hosting none; at full size 460 in 382 walks, 9,602 before),
    and the walks are charged exactly the ``scanned`` and ``explored``
    they were charged before."""
    stream, state, engine = tight_pool(n_apps=90, churn_ticks=8)
    kernel = engine.rescue_kernel
    ledger = kernel.ledger
    n = {
        "in_table": 0, "walks": 0, "rows": 0, "unblocked_rows": 0,
        "plans": 0, "scanned": 0, "explored": 0,
    }
    #: the running preemption walk: its container, and the machines it
    #: planned on (a plan and its per-victim fallbacks count once)
    walk: dict = {}
    preempt, table = kernel._preempt, ledger.table
    deployed_containers = state.deployed_containers
    plan_relocations = kernel._plan_relocations
    rescue_plan = kernel.rescue_plan

    def walked(planner, container, demand, out):
        n["walks"] += 1
        walk.update(container=container, planned=set())
        try:
            return preempt(planner, container, demand, out)
        finally:
            walk.clear()

    def scoped_table(*args):
        n["in_table"] += 1
        try:
            return table(*args)
        finally:
            n["in_table"] -= 1

    def counted_deployed_containers(machine_id):
        residents = deployed_containers(machine_id)
        if walk and not n["in_table"]:
            app_id = walk["container"].app_id
            n["rows"] += 1
            n["unblocked_rows"] += not any(
                state.constraints.violates(app_id, c.app_id)
                for c in residents
            )
        return residents

    def counted_plan_relocations(planner, movers, exclude, out):
        if walk and exclude not in walk["planned"]:
            walk["planned"].add(exclude)
            n["plans"] += 1
        return plan_relocations(planner, movers, exclude, out)

    def counted_rescue_plan(*args):
        out = rescue_plan(*args)
        n["scanned"] += out.scanned
        n["explored"] += out.explored
        return out

    kernel._preempt, ledger.table = walked, scoped_table
    state.deployed_containers = counted_deployed_containers
    kernel._plan_relocations = counted_plan_relocations
    kernel.rescue_plan = counted_rescue_plan
    churn(stream, state, engine)

    assert n["walks"] > 0 and n["rows"] > 0
    assert n["unblocked_rows"] <= n["plans"]
    assert n["scanned"] == SCANNED_BEFORE_THE_WALK_SCREENS
    assert n["explored"] == EXPLORED_BEFORE_THE_EXACT_SCREEN


# ----------------------------------------------------------------------
# the memos: one version window, in memory and in the snapshot
# ----------------------------------------------------------------------
def memo_size(kernel):
    """Entries in the kernel's two version-window memos."""
    return len(kernel._admissible) + len(kernel._failures)


def test_memos_stay_bounded_over_a_long_churn():
    """200 churn ticks (6,000 scheduling rounds, ~2,800 rescues) on one
    engine: the two version-keyed memos (admissible ids, failed rescues)
    hold what one version window put there, so their size after the
    second hundred ticks is what it was after the first — before they
    were bounded every (app, shape), plan and failure key ever seen
    stayed (6,518 entries at the end of this very churn)."""
    stream, state, engine = tight_pool(n_apps=60, churn_ticks=200)
    kernel = engine.rescue_kernel
    sizes = []
    churn(
        stream, state, engine,
        after_tick=lambda _tick: sizes.append(memo_size(kernel)),
    )
    assert kernel.invocations > 1000
    assert max(sizes) > 0, "no tick ever ended with a memoised entry"
    assert max(sizes[100:]) <= 2 * max(sizes[:100])
    assert max(sizes) < 10 * state.n_machines


def test_stale_entries_are_dropped_when_the_version_moves():
    stream, state, engine = tight_pool(n_apps=60, churn_ticks=3)
    kernel = engine.rescue_kernel
    churn(stream, state, engine)
    assert kernel._memo_stamp[0] == state.state_uid
    state.touch(0)
    kernel._sync_memos(state)
    assert memo_size(kernel) == 0
    assert kernel._memo_stamp == (state.state_uid, state.version)


def failed_rescue(state, kernel):
    """Drive one rescue that fails (and is therefore memoised)."""
    planner = RescuePlanner(state, AladdinConfig(), kernel=kernel)
    blocked = Container(
        container_id=99, app_id=4, instance=0, cpu=8.0, mem_gb=16.0,
    )
    demand = blocked.demand_vector(state.topology.resources)
    out = planner.rescue(blocked, demand)
    assert not out.ok
    return planner, blocked, demand, out


def full_small_state():
    state = small_state([(0, 1)])
    for machine in range(N_MACHINES):
        state.deploy(
            Container(
                container_id=machine, app_id=machine % 2, instance=0,
                cpu=7.0, mem_gb=14.0, priority=3,
            ),
            machine,
            force=True,
        )
    return state


def test_checkpoint_image_reads_both_ways():
    """The payload keeps the per-entry ``(version, ...)`` form: an image
    written here restores the charged memo (failed rescues; it carries
    no plan or liveness memo, the kernel has neither), and an image in
    an older form — entries of many versions, most of them dead, plus
    the relocation-plan, liveness and dominance-cache images kernels
    used to write — is cut down to the live failures on restore and
    replays the same charges."""
    state = full_small_state()
    kernel = RescueKernel()
    planner, blocked, demand, first = failed_rescue(state, kernel)
    image = kernel.checkpoint()
    version = state.version
    assert image["failures"] and all(
        entry[0] == version for entry in image["failures"].values()
    )
    assert set(image) == {"failures", "invocations"}

    # what a snapshot written before the memos were bounded looks like,
    # with the image of the private dominance cache the kernel kept
    # until Equation 6 was read live
    older = dict(image)
    older["dominance"] = {
        "entries": {demand.tobytes(): (np.zeros(N_MACHINES, bool), version)},
        "shape_seen": {}, "hits": 0, "misses": N_MACHINES,
        "invalidations": 0, "last_recomputed": N_MACHINES,
    }
    older["failures"] = dict(image["failures"])
    older["failures"][(7, b"stale", True, False, None)] = (
        version - 3, first.failure, 11, 13,
    )
    older["plans"] = {("c", 5, 2): (version - 1, None), ("b", 0, 4): (
        version, None,
    )}
    older["live"] = {demand.tobytes(): (version, False)}

    for payload in (image, older):
        restored = RescueKernel()
        restored.restore(payload, state)
        assert restored._memo_stamp == (state.state_uid, version)
        assert set(restored._failures) == set(image["failures"])
        replay = RescuePlanner(
            state, planner.config, kernel=restored
        ).rescue(blocked, demand)
        assert (replay.failure, replay.scanned, replay.explored) == (
            first.failure, first.scanned, first.explored,
        )
        # a memo hit: the restored kernel planned nothing
        assert restored.ledger._table is None
