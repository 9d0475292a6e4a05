"""The relocation planner's Equation-6 screen against the unscreened planner.

``RescueKernel._plan_relocations`` asks, before it plans any mover,
whether any machine dominates each mover's demand shape; the first
mover nobody dominates ends the plan.  The planner body it stands in
front of is copied here (:func:`unscreened_plan_relocations`) as the
oracle.  Three contracts:

* **per plan** — same moves, or the same ``None``; the ``explored``
  charge is the oracle's unless the oracle failed at a *live* mover
  ``i`` ahead of the screen's dead mover ``j``, and then it is
  ``j + 1`` instead of ``i + 1`` — never more than the set's length.
  Checked for every mover set the three strategies can draw from a
  machine (prefix of the (priority, cpu) order, blocker subset, victim
  list) while a small state is mutated under one kernel, and for every
  plan a tight and a loose churn actually make;
* **per round** — an engine whose kernel plans through the oracle makes
  the same placements, failures, migrations, preemptions and strategy
  walk as the engine with the screen;
* **across a snapshot** — restoring engine and state at every round
  boundary changes nothing, ``explored`` included, and a snapshot
  written before the kernel had a screen still restores.

Round-level ``explored`` is compared as a total only: a failed rescue's
charges are replayed from the failure memo (so one plan's extra units
recur), and the two kernels' dominance caches are synced at different
versions (so the blocked container's own Equation 6 charge can differ
either way).
"""

from itertools import groupby
from operator import attrgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import OFFERED_LOAD
from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Container
from repro.cluster.machine import MachineSpec
from repro.cluster.state import ClusterState, dominates
from repro.cluster.topology import build_cluster
from repro.core import AladdinConfig, AladdinScheduler
from repro.core.migration import RescueOutcome, RescuePlanner
from repro.core.rescuekernel import RescueKernel
from tests.core.test_blacklist import PROBE_APP, RULE_PAIRS, scoped_constraints
from tests.core.test_rescue_admissible import tight_pool


def unscreened_plan_relocations(
    kernel, planner, movers, exclude, out, demands
):
    """``RescueKernel._plan_relocations`` as it was before the screen:
    every mover pays its admit query (and, where anything dominates it,
    a blacklist evaluation) until one has nowhere to go."""
    state = planner.state
    reserved: dict[int, np.ndarray] = {}
    plan: list[tuple[Container, int]] = []
    for i, mover in enumerate(movers):
        demand = demands[i]
        ids = kernel._admissible_ids(state, mover.app_id, demand)
        out.explored += 1
        drop = [exclude]
        for mover_prev, target_prev in plan:
            if state.constraints.violates(mover.app_id, mover_prev.app_id):
                drop.append(target_prev)
        for machine_id, used in reserved.items():
            if not ((state.available[machine_id] - used) >= demand).all():
                drop.append(machine_id)
        if ids.size and drop:
            keep = np.ones(ids.size, dtype=bool)
            for machine_id in drop:
                pos = int(ids.searchsorted(machine_id))
                if pos < ids.size and ids[pos] == machine_id:
                    keep[pos] = False
            ids = ids[keep]
        if ids.size == 0:
            return None
        cpu = state.available[ids, 0]
        if reserved:
            cpu = cpu.copy()
            for machine_id, used in reserved.items():
                pos = int(ids.searchsorted(machine_id))
                if pos < ids.size and ids[pos] == machine_id:
                    cpu[pos] -= used[0]
        target = int(ids[np.argmin(cpu)])
        plan.append((mover, target))
        reserved[target] = (
            reserved.get(target, np.zeros_like(demand)) + demand
        )
    return plan


def oracle_plan(kernel, planner, row, mover_rows, exclude, out):
    """The oracle behind the screened planner's signature."""
    return unscreened_plan_relocations(
        kernel, planner, [row.containers[i] for i in mover_rows], exclude,
        out, row.demands[np.asarray(mover_rows, dtype=np.intp)],
    )


def assert_screen_agrees(
    screened_plan, oracle_kernel, planner, row, mover_rows, exclude
):
    """One mover set through ``screened_plan`` and through the oracle;
    returns the screened moves and charge, and how many units of it the
    oracle would not have charged."""
    state = planner.state
    version = state.version
    dead = next(
        (
            j for j, i in enumerate(mover_rows)
            if not dominates(state.available, row.demands[i]).any()
        ),
        None,
    )
    screened = RescueOutcome()
    moves = screened_plan(planner, row, mover_rows, exclude, screened)
    oracle = RescueOutcome()
    expected = oracle_plan(
        oracle_kernel, planner, row, mover_rows, exclude, oracle
    )
    assert moves == expected
    assert state.version == version, "planning mutated the state"
    if dead is None:
        assert screened.explored == oracle.explored
    else:
        assert moves is None, "a mover nothing dominates was relocated"
        assert screened.explored == dead + 1
        assert oracle.explored <= dead + 1
    assert screened.explored <= max(1, len(mover_rows))
    return moves, screened.explored, screened.explored - oracle.explored


# ----------------------------------------------------------------------
# (a) every mover set of a small state, while it is mutated
# ----------------------------------------------------------------------
N_MACHINES = 4
MACHINE = st.integers(0, N_MACHINES - 1)
CONTAINER_ID = st.integers(0, 23)
CPU = st.sampled_from((2.0, 3.0, 5.0))
PRIORITY = st.integers(0, 2)
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("deploy"), PROBE_APP, st.lists(MACHINE, max_size=3), CPU,
            PRIORITY,
        ),
        # one container on every machine with room: what fills the pool
        # until the larger shapes fit nowhere
        st.tuples(
            st.just("deploy"), PROBE_APP, st.just(range(N_MACHINES)), CPU,
            PRIORITY,
        ),
        st.tuples(st.just("migrate"), CONTAINER_ID, MACHINE),
        st.tuples(st.just("evict"), CONTAINER_ID),
        st.tuples(st.just("rule"), PROBE_APP, PROBE_APP),
        st.tuples(st.just("check")),
    ),
    max_size=30,
)


def small_topology():
    return build_cluster(
        N_MACHINES, machine=MachineSpec(cpu=8.0, mem_gb=16.0),
        machines_per_rack=2,
    )


def mover_sets(kernel, state, row):
    """Every mover set a strategy can draw from ``row``: consolidation's
    prefixes, blocker migration's subsets, preemption's victim lists."""
    for n in range(1, len(row.containers) + 1):
        yield row.by_prio_cpu[:n]
    for app in range(5):
        blockers = kernel._blocker_rows(state, app, row)
        if blockers:
            yield blockers
        for priority in (1, 2, 3):
            lower = [
                i for i in row.by_prio_cpu
                if row.priorities[i] < priority and i not in blockers
            ]
            for take in range(1, len(lower) + 1):
                yield blockers + lower[:take]


def check_every_mover_set(kernel, state):
    planner = RescuePlanner(state, AladdinConfig(), kernel=kernel)
    dead_sets = 0
    for machine_id in range(state.n_machines):
        row = kernel.ledger.row(state, machine_id)
        for mover_rows in mover_sets(kernel, state, row):
            moves, _, _ = assert_screen_agrees(
                kernel._plan_relocations, kernel, planner, row, mover_rows,
                machine_id,
            )
            dead_sets += moves is None
    return dead_sets


@settings(max_examples=120, deadline=None)
@given(RULE_PAIRS, st.sets(PROBE_APP), OPS)
def test_screen_agrees_with_the_oracle_on_every_mover_set(
    rules, rack_scoped, ops
):
    """Four 8-CPU machines in two racks, one long-lived kernel, the
    state mutated between checks (refused migrations and rules added
    after the residents they bind included): every mover set of every
    machine gets the oracle's moves, and a set holding a shape nothing
    dominates gets ``None`` from both."""
    constraints = scoped_constraints(rules, rack_scoped)
    state = ClusterState(small_topology(), constraints)
    kernel = RescueKernel()
    next_id = 0
    for op in ops:
        if op[0] == "deploy":
            _, app, machines, cpu, priority = op
            demand = np.array([cpu, 2.0 * cpu])
            for machine in machines:
                if next_id < 24 and state.fits(demand, machine):
                    state.deploy(
                        Container(
                            container_id=next_id, app_id=app, instance=0,
                            cpu=cpu, mem_gb=2.0 * cpu, priority=priority,
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
        elif op[0] == "rule":
            _, a, b = op
            scope = "rack" if a == b and a in rack_scoped else "machine"
            constraints.add_rule(AntiAffinityRule(a, b), scope=scope)
            # a rule does not move the state's version; the kernel's
            # admit memo is per version, so move it like a commit would
            state.touch(0)
        else:
            check_every_mover_set(kernel, state)
    check_every_mover_set(kernel, state)


def full_pool():
    """Four 8-CPU machines, each hosting a 3-, a 2- and a 1-CPU
    resident: 2 CPU free everywhere, the 3-CPU shape fits nowhere."""
    state = ClusterState(small_topology(), ConstraintSet())
    cid = 0
    for machine in range(N_MACHINES):
        for cpu, app, priority in ((3.0, 0, 1), (2.0, 1, 0), (1.0, 2, 0)):
            state.deploy(
                Container(
                    container_id=cid, app_id=app, instance=0, cpu=cpu,
                    mem_gb=2.0 * cpu, priority=priority,
                ),
                machine,
                force=True,
            )
            cid += 1
    return state


def test_full_pool_every_set_with_a_large_mover_is_dead():
    """The property above is not vacuous: on a pool with 2 CPU free per
    machine, every set holding a 3-CPU mover ends at the screen."""
    state = full_pool()
    kernel = RescueKernel()
    forbidden_calls = []
    forbidden_mask = state.forbidden_mask
    state.forbidden_mask = lambda app: (
        forbidden_calls.append(app) or forbidden_mask(app)
    )
    planner = RescuePlanner(state, AladdinConfig(), kernel=kernel)
    row = kernel.ledger.row(state, 0)
    assert row.by_prio_cpu == [2, 1, 0]
    out = RescueOutcome()
    # the 1- and 2-CPU movers are live, the 3-CPU one is dead: charged
    # three movers looked at, nobody's blacklist evaluated
    assert kernel._plan_relocations(planner, row, [2, 1, 0], 0, out) is None
    assert out.explored == 3 and forbidden_calls == []
    assert kernel._live == {
        row.shape_keys[2]: True, row.shape_keys[1]: True,
        row.shape_keys[0]: False,
    }
    out = RescueOutcome()
    moves = kernel._plan_relocations(planner, row, [2, 1], 0, out)
    assert [(c.container_id, m) for c, m in moves] == [(2, 1), (1, 2)]
    assert out.explored == 2
    del state.forbidden_mask
    assert check_every_mover_set(kernel, state) > 0


# ----------------------------------------------------------------------
# (b) engine with the screen ≡ engine planning through the oracle
# ----------------------------------------------------------------------
def rounds(stream, states):
    """The churn as ``benchmarks.e2e.inproc.run_tight_rescue`` submits
    it, one application per round; a tick's departures leave every
    state in ``states`` before its first arrival."""
    for departing, arriving in stream.churn:
        for state in states:
            state.evict_block(departing)
        for _, block in groupby(arriving, key=attrgetter("app_id")):
            yield list(block)


def rescue_counters(result):
    tele = result.telemetry
    return (
        result.migrations, result.preemptions, tele.rescue_attempts,
        tele.rescue_migrations, tele.rescue_preemptions,
        tele.rescue_machines_scanned,
    )


def assert_engines_agree(offered, min_rescues):
    slack = OFFERED_LOAD / offered
    stream, state, engine = tight_pool(90, 8, slack=slack)
    _, oracle_state, oracle_engine = tight_pool(90, 8, slack=slack)
    oracle_kernel = oracle_engine.rescue_kernel
    oracle_kernel._plan_relocations = (
        lambda *args: oracle_plan(oracle_kernel, *args)
    )
    # every plan the screened engine makes is also put to the oracle,
    # on a kernel of its own so neither engine's memos see the other
    kernel = engine.rescue_kernel
    shadow = RescueKernel()
    screened_plan = kernel._plan_relocations
    plans = {"made": 0, "dearer": 0}

    def shadowed_plan(planner, row, mover_rows, exclude, out):
        moves, charge, extra = assert_screen_agrees(
            screened_plan, shadow, planner, row, mover_rows, exclude
        )
        out.explored += charge
        plans["made"] += 1
        plans["dearer"] += extra > 0
        return moves

    kernel._plan_relocations = shadowed_plan
    fill_rescues = kernel.invocations
    explored = oracle_explored = 0
    for block in rounds(stream, (state, oracle_state)):
        result = engine.schedule(block, state)
        expected = oracle_engine.schedule(block, oracle_state)
        assert result.placements == expected.placements
        assert result.undeployed == expected.undeployed
        assert rescue_counters(result) == rescue_counters(expected)
        assert state.assignment == oracle_state.assignment
        explored += result.explored
        oracle_explored += expected.explored
    assert kernel.invocations == oracle_kernel.invocations
    assert kernel.invocations - fill_rescues >= min_rescues
    assert plans["made"] > 0
    assert abs(explored - oracle_explored) <= 0.01 * oracle_explored
    return plans


def test_tight_churn_engine_with_screen_matches_engine_with_oracle():
    """1.06× offered: most plans end at the screen, a few of them one
    the oracle would have ended earlier, at a reservation."""
    plans = assert_engines_agree(offered=OFFERED_LOAD, min_rescues=50)
    assert 0 < plans["dearer"] < 0.05 * plans["made"]


def test_loose_churn_engine_with_screen_matches_engine_with_oracle():
    """0.95× offered — the loosest this miniature still rescues at (at
    0.9× its 240 rounds place everything outright): a handful of
    rescues on a pool with room, where plans pass the screen and the
    planner body decides."""
    plans = assert_engines_agree(offered=0.95, min_rescues=3)
    assert plans["dearer"] == 0


# ----------------------------------------------------------------------
# (c) checkpoint ≡ uninterrupted
# ----------------------------------------------------------------------
def snapshot_and_restore(state, engine):
    """Engine and state through their checkpoint images, as a restart
    would: a fresh state uid, fresh ledgers, the persisted memos."""
    image = engine.checkpoint()
    restored = ClusterState.from_payload(
        state.checkpoint_payload(), state.topology, state.constraints
    )
    return restored, AladdinScheduler.from_checkpoint(image, restored)


def run_rounds(restore_every_round):
    """The tight churn round by round; ``rounds`` reads the current
    state out of ``holder``, which a restore replaces."""
    stream, state, engine = tight_pool(60, 6)
    trail = []
    holder = [state]
    for block in rounds(stream, holder):
        if restore_every_round:
            holder[0], engine = snapshot_and_restore(holder[0], engine)
        result = engine.schedule(block, holder[0])
        trail.append(
            (
                result.placements, result.undeployed, result.explored,
                rescue_counters(result),
            )
        )
    return trail, engine


def test_restoring_at_every_round_boundary_changes_nothing():
    """Snapshot + restore before every scheduling round of the tight
    churn — every tick boundary, and every boundary inside a tick, where
    a failed rescue's memos (liveness included) are still live at the
    restored version: placements, failure reasons, rescue counters and
    ``explored`` repeat the uninterrupted run round for round."""
    expected, straight = run_rounds(restore_every_round=False)
    trail, resumed = run_rounds(restore_every_round=True)
    assert sum(counters[2] for *_, counters in expected) > 30
    assert trail == expected
    assert (
        resumed.rescue_kernel.invocations
        == straight.rescue_kernel.invocations
    )


def test_snapshot_written_before_the_screen_still_restores():
    """An image without a ``live`` entry (what the kernel wrote before
    it had a screen) restores; the shapes are simply asked again."""
    stream, state, engine = tight_pool(60, 2)
    for block in rounds(stream, [state]):
        engine.schedule(block, state)
    kernel = engine.rescue_kernel
    image = kernel.checkpoint()
    version = state.version
    assert all(stored == version for stored, _ in image["live"].values())
    older = {key: value for key, value in image.items() if key != "live"}
    restored = RescueKernel()
    restored.restore(older, state)
    assert restored._live == {}
    assert restored._plans == kernel._plans
    assert restored._failures == kernel._failures
    restored.restore(image, state)
    assert restored._live == kernel._live


def test_liveness_memo_survives_a_snapshot_with_its_charges():
    """Why the memo is in the image: the dominance cache stores a shape
    on its second sighting, so a restored kernel that had to ask a
    screened shape again — same version, same answer — would be charged
    a one-machine resync where the uninterrupted kernel is charged the
    whole scan when that shape is next rescued."""
    blocked = Container(
        container_id=99, app_id=7, instance=0, cpu=3.0, mem_gb=6.0,
    )
    outcomes = []
    for snapshot in (False, True):
        state = full_pool()
        kernel = RescueKernel()
        planner = RescuePlanner(state, AladdinConfig(), kernel=kernel)
        for _ in range(2):
            row = kernel.ledger.row(state, 0)
            out = RescueOutcome()
            assert kernel._plan_relocations(planner, row, [0], 0, out) is None
            assert out.explored == 1
            if snapshot:
                image = kernel.checkpoint()
                kernel = RescueKernel()
                kernel.restore(image, state)
                planner = RescuePlanner(state, AladdinConfig(), kernel=kernel)
        state.evict(11)  # a 1-CPU resident of machine 3
        out = planner.rescue(
            blocked, blocked.demand_vector(state.topology.resources)
        )
        outcomes.append(
            (out.machine_id, out.failure, out.scanned, out.explored)
        )
    assert outcomes[0] == outcomes[1]
