"""The rescue kernel's Equation-6 screens against the unscreened code.

``RescueKernel._plan_relocations`` asks, before it plans any mover,
whether any machine dominates each mover's demand shape; the first
mover nobody dominates ends the plan.  The planner body it stands in
front of is copied here (:func:`unscreened_plan_relocations`) as the
oracle.  The consolidation and preemption walks screen their whole
candidate order at once from the resident ledger's table; their oracle
is the per-machine test the walks used to make position by position
(:func:`loop_consolidation_verdict`; :func:`loop_preemption_victims`
and :func:`loop_preempts`, the loop oracle's preemption body).  Five
contracts:

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
  written before the kernel had a screen, or before the walks screened,
  still restores;
* **per walk position** — the consolidation screen's verdict is the
  loop's; the preemption screen's is the loop's on every machine where
  no resident blocks the container, Equation 9 included, and never
  rejects a machine the loop would plan on where one does (non-dyadic
  demands whose sums depend on order, and integer CPUs whose weighted
  flows tie, included); the liveness vector is Equation 6 per shape;
  and the resident table, rewritten in batches, holds every machine's
  residents — all while the state is mutated under one kernel;
* **per interpreter** — Equation 9 is the loop's own ``sum()``, where a
  left-to-right and a compensated float sum disagree (CI runs both
  CPython 3.11 and 3.12).

Round-level ``explored`` is compared as a total only: a failed rescue's
charges are replayed from the failure memo (so one plan's extra units
recur), and the two kernels' dominance caches are synced at different
versions (so the blocked container's own Equation 6 charge can differ
either way).
"""

import math
from functools import reduce
from itertools import groupby
from operator import add, attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import OFFERED_LOAD
from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Container
from repro.cluster.machine import MachineSpec
from repro.cluster.state import ClusterState, dominates
from repro.cluster.topology import build_cluster
from repro.core import AladdinConfig, AladdinScheduler
from repro.core.migration import RescuePlanner
from repro.core.rescuekernel import (
    _PAD_PRIORITY,
    RescueKernel,
    RescueOutcome,
    _rack_blocked,
)
from repro.sim.faults import fail_machines, machine_is_down, repair_machines
from tests.core.test_blacklist import PROBE_APP, RULE_PAIRS, scoped_constraints
from tests.core.rescue_loop import RescueLoop
from tests.core.test_rescue_admissible import tight_pool
from tests.core.test_rescuekernel import run_pair


def unscreened_plan_relocations(kernel, planner, movers, exclude, out):
    """``RescueKernel._plan_relocations`` as it was before the screen:
    every mover pays its admit query (and, where anything dominates it,
    a blacklist evaluation) until one has nowhere to go."""
    state = planner.state
    reserved: dict[int, np.ndarray] = {}
    plan: list[tuple[Container, int]] = []
    for mover in movers:
        demand = mover.demand_vector(state.topology.resources)
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


def residents_of(state, machine_id):
    """What a walk reads of ``machine_id`` past the screens: its
    residents in enumeration order, and in the loop's stable
    ``(priority, cpu)`` order."""
    residents = state.deployed_containers(machine_id)
    return residents, sorted(residents, key=attrgetter("priority", "cpu"))


def running_demand(state, containers):
    """The demands of ``containers`` added left to right: row ``i`` is
    the sum of the first ``i + 1``."""
    resources = state.topology.resources
    return np.cumsum(
        [c.demand_vector(resources) for c in containers], axis=0
    ).reshape(len(containers), len(resources))


def assert_screen_agrees(
    screened_plan, oracle_kernel, planner, movers, exclude
):
    """One mover set through ``screened_plan`` and through the oracle;
    returns the screened moves and charge, and how many units of it the
    oracle would not have charged."""
    state = planner.state
    version = state.version
    dead = next(
        (
            j for j, mover in enumerate(movers)
            if not dominates(
                state.available,
                mover.demand_vector(state.topology.resources),
            ).any()
        ),
        None,
    )
    screened = RescueOutcome()
    moves = screened_plan(planner, movers, exclude, screened)
    oracle = RescueOutcome()
    expected = unscreened_plan_relocations(
        oracle_kernel, planner, movers, exclude, oracle
    )
    assert moves == expected
    assert state.version == version, "planning mutated the state"
    if dead is None:
        assert screened.explored == oracle.explored
    else:
        assert moves is None, "a mover nothing dominates was relocated"
        assert screened.explored == dead + 1
        assert oracle.explored <= dead + 1
    assert screened.explored <= max(1, len(movers))
    return moves, screened.explored, screened.explored - oracle.explored


# ----------------------------------------------------------------------
# (a) every mover set of a small state, while it is mutated
# ----------------------------------------------------------------------
N_MACHINES = 4
MACHINE = st.integers(0, N_MACHINES - 1)
CONTAINER_ID = st.integers(0, 23)
CPU = st.sampled_from((2.0, 3.0, 5.0))
PRIORITY = st.integers(0, 2)


def small_pool_ops(cpu, *extra):
    """Mutation sequences for :func:`apply_op`, ``check`` marking where
    the property is asked."""
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("deploy"), PROBE_APP, st.lists(MACHINE, max_size=3),
                cpu, PRIORITY,
            ),
            # one container on every machine with room: what fills the
            # pool until the larger shapes fit nowhere
            st.tuples(
                st.just("deploy"), PROBE_APP, st.just(range(N_MACHINES)), cpu,
                PRIORITY,
            ),
            st.tuples(st.just("migrate"), CONTAINER_ID, MACHINE),
            st.tuples(st.just("evict"), CONTAINER_ID),
            st.tuples(st.just("rule"), PROBE_APP, PROBE_APP),
            st.tuples(st.just("check")),
            *extra,
        ),
        max_size=30,
    )


OPS = small_pool_ops(CPU)


def small_topology(cpu=8.0):
    return build_cluster(
        N_MACHINES, machine=MachineSpec(cpu=cpu, mem_gb=2.0 * cpu),
        machines_per_rack=2,
    )


def apply_op(state, rack_scoped, op, next_id):
    """One small-pool mutation (refused migrations and rules added after
    the residents they bind included); returns the next container id."""
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
    elif op[0] == "evict_block":
        state.evict_block([cid for cid in op[1] if cid in state.assignment])
    elif op[0] == "fail":
        if not machine_is_down(state, op[1]):
            fail_machines(state, [op[1]])
    elif op[0] == "repair":
        if machine_is_down(state, op[1]):
            repair_machines(state, [op[1]])
    elif op[0] == "rule":
        _, a, b = op
        scope = "rack" if a == b and a in rack_scoped else "machine"
        state.constraints.add_rule(AntiAffinityRule(a, b), scope=scope)
        # a rule does not move the state's version; the kernel's
        # admit memo is per version, so move it like a commit would
        state.touch(0)
    return next_id


def mover_sets(state, machine_id):
    """Every mover set a strategy can draw from ``machine_id``:
    consolidation's prefixes, blocker migration's subsets, preemption's
    victim lists, and every single resident (preemption's per-victim
    fallback)."""
    residents, ordered = residents_of(state, machine_id)
    for n in range(1, len(ordered) + 1):
        yield ordered[:n]
    for resident in residents:
        yield [resident]
    for app in range(5):
        blockers = [
            c for c in residents if state.constraints.violates(app, c.app_id)
        ]
        if blockers:
            yield blockers
        for priority in (1, 2, 3):
            lower = [
                c for c in ordered
                if c.priority < priority and c not in blockers
            ]
            for take in range(1, len(lower) + 1):
                yield blockers + lower[:take]


def check_every_mover_set(kernel, state):
    """Every mover set through the screened planner and its oracle; a
    one-mover plan also gets the loop's ``_relocation_target`` — the
    same target for the same charge."""
    planner = RescuePlanner(state, AladdinConfig(), kernel=kernel)
    loop = RescueLoop()
    loop.state = state
    dead_sets = 0
    for machine_id in range(state.n_machines):
        for movers in mover_sets(state, machine_id):
            moves, charge, _ = assert_screen_agrees(
                kernel._plan_relocations, kernel, planner, movers, machine_id
            )
            dead_sets += moves is None
            if len(movers) == 1:
                out = RescueOutcome()
                target = loop._relocation_target(movers[0], machine_id, out)
                assert moves == (
                    None if target is None else [(movers[0], target)]
                )
                assert charge == out.explored
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
        if op[0] == "check":
            check_every_mover_set(kernel, state)
        else:
            next_id = apply_op(state, rack_scoped, op, next_id)
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
    residents, ordered = residents_of(state, 0)
    assert ordered == [residents[i] for i in (2, 1, 0)]
    out = RescueOutcome()
    # the 1- and 2-CPU movers are live, the 3-CPU one is dead: charged
    # three movers looked at, nobody's blacklist evaluated
    assert kernel._plan_relocations(planner, ordered, 0, out) is None
    assert out.explored == 3 and forbidden_calls == []
    # the liveness vector: one boolean per interned shape, and the pad
    live = kernel.ledger.live(state)
    _, shape_ids = kernel.ledger._intern(state, ordered)
    assert [live[shape] for shape in shape_ids] == [True, True, False]
    assert len(live) == 4 and not live[-1]
    out = RescueOutcome()
    moves = kernel._plan_relocations(planner, ordered[:2], 0, out)
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
        lambda *args: unscreened_plan_relocations(oracle_kernel, *args)
    )
    # every plan the screened engine makes is also put to the oracle,
    # on a kernel of its own so neither engine's memos see the other
    kernel = engine.rescue_kernel
    shadow = RescueKernel()
    screened_plan = kernel._plan_relocations
    plans = {"made": 0, "dearer": 0}

    def shadowed_plan(planner, movers, exclude, out):
        moves, charge, extra = assert_screen_agrees(
            screened_plan, shadow, planner, movers, exclude
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
    """1.06× offered.  The consolidation walk hands the planner only
    prefixes of live shapes (its own screen rejects the rest, charged
    their visit and nothing else), so a plan is charged more than the
    oracle would charge only when a blocker or victim set holds a dead
    shape behind a live mover the oracle runs out of targets for — on
    this churn, never."""
    plans = assert_engines_agree(offered=OFFERED_LOAD, min_rescues=50)
    assert plans["dearer"] == 0


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
    a failed rescue's memo is still live at the restored version (the
    ledger, its table and the liveness vector are rebuilt):
    placements, failure reasons, rescue counters and ``explored`` repeat
    the uninterrupted run round for round."""
    expected, straight = run_rounds(restore_every_round=False)
    trail, resumed = run_rounds(restore_every_round=True)
    assert sum(counters[2] for *_, counters in expected) > 30
    assert trail == expected
    assert (
        resumed.rescue_kernel.invocations
        == straight.rescue_kernel.invocations
    )


def older_kernel_image(image, state, with_live):
    """``image`` in the form a kernel with a relocation-plan memo wrote:
    a ``plans`` entry (failed consolidation and blocker plans, tagged
    with their version), and — once the planner screened — a ``live``
    entry per resident demand shape."""
    version = state.version
    older = dict(image)
    older["plans"] = {
        ("c", machine, 1): (version, None) for machine in range(3)
    }
    older["plans"][("b", 0, 7)] = (version - 1, None)
    if with_live:
        older["live"] = {}
        for c in state.deployed_containers(0):
            demand = c.demand_vector(state.topology.resources)
            alive = bool(dominates(state.available, demand).any())
            older["live"][demand.tobytes()] = (version, alive)
    return older


def test_snapshot_written_before_the_screen_still_restores():
    """Images written before the planner screened (a ``plans`` memo, no
    ``live``) and before the walks screened (``plans`` and ``live``)
    restore: both entries are ignored — nothing replays a plan, and
    liveness is derived from the state — and an engine restored from
    either, in the middle of a tight churn, makes the uninterrupted
    run's placements, failures and rescue counters to the end."""
    expected, _ = run_rounds(restore_every_round=False)
    for with_live in (False, True):
        stream, state, engine = tight_pool(60, 6)
        trail = []
        for i, block in enumerate(rounds(stream, [state])):
            if i == len(expected) // 2:
                image = engine.checkpoint()
                image["rescue_kernel"] = older_kernel_image(
                    image["rescue_kernel"], state, with_live
                )
                engine = AladdinScheduler.from_checkpoint(image, state)
                kernel = engine.rescue_kernel
                assert not hasattr(kernel, "_plans")
                assert kernel._failures == {
                    key: tuple(verdict)
                    for key, (stored, *verdict) in image["rescue_kernel"][
                        "failures"
                    ].items()
                    if stored == state.version
                }
            result = engine.schedule(block, state)
            trail.append(
                (result.placements, result.undeployed, rescue_counters(result))
            )
        assert trail == [
            (placements, undeployed, counters)
            for placements, undeployed, _, counters in expected
        ]


def test_liveness_memo_survives_a_snapshot_with_its_charges():
    """The dominance cache stores a shape on its second sighting, so a
    screen that asked it — as the planner's did when liveness was a memo
    filled by ``dominance_mask`` — would make a restored kernel that
    asks a screened shape again be charged a one-machine resync where
    the uninterrupted kernel is charged the whole scan when that shape
    is next rescued.  Liveness is now derived from ``available`` and
    never touches the cache, so a snapshot between two screens changes
    no charge."""
    blocked = Container(
        container_id=99, app_id=7, instance=0, cpu=3.0, mem_gb=6.0,
    )
    outcomes = []
    for snapshot in (False, True):
        state = full_pool()
        kernel = RescueKernel()
        planner = RescuePlanner(state, AladdinConfig(), kernel=kernel)
        for _ in range(2):
            residents, _ = residents_of(state, 0)  # the 3-CPU one first
            out = RescueOutcome()
            assert kernel._plan_relocations(
                planner, residents[:1], 0, out
            ) is None
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


# ----------------------------------------------------------------------
# (d) the walks' screens against the loop's per-machine tests
# ----------------------------------------------------------------------
def loop_consolidation_verdict(state, machine_id, shortfall, mover_limit):
    """Whether the consolidation walk, position by position as it was
    before it screened, reached a plan body on ``machine_id``: the
    minimal covering mover prefix exists, fits ``mover_limit``, and
    holds no shape that no machine dominates (the planner's screen)."""
    _, ordered = residents_of(state, machine_id)
    k = len(ordered)
    if k == 0:
        return False
    cum = running_demand(state, ordered)
    movers_needed = 1
    for d in range(shortfall.size):
        if shortfall[d] > 0.0:
            idx = int(cum[:, d].searchsorted(shortfall[d], "left"))
            if idx >= k:
                return False
            movers_needed = max(movers_needed, idx + 1)
    if movers_needed > mover_limit:
        return False
    return all(
        dominates(
            state.available, c.demand_vector(state.topology.resources)
        ).any()
        for c in ordered[:movers_needed]
    )


def loop_preemption_victims(state, machine_id, app_id, demand, priority):
    """``RescueLoop._preempt``'s body on ``machine_id`` up to its
    Equation 9 guard, as ``(hosts a blocker, victims)``: ``victims`` is
    ``None`` unless there is no equal-or-higher blocker, no rack-mate
    conflict, and the victims — blockers first, then lower-priority
    residents in (priority, cpu) order until the machine fits — free
    enough."""
    cs = state.constraints
    resources = state.topology.resources
    residents = state.deployed_containers(machine_id)
    victims = [c for c in residents if cs.violates(app_id, c.app_id)]
    blocked = bool(victims)
    if any(c.priority >= priority for c in victims):
        return blocked, None
    if _rack_blocked(state, app_id, machine_id):
        return blocked, None
    avail = state.available[machine_id]
    freed = sum(
        (v.demand_vector(resources) for v in victims), np.zeros_like(demand)
    )
    if not ((avail + freed) >= demand).all():
        lower = sorted(
            (c for c in residents if c.priority < priority and c not in victims),
            key=lambda c: (c.priority, c.cpu),
        )
        for extra in lower:
            victims.append(extra)
            freed = freed + extra.demand_vector(resources)
            if ((avail + freed) >= demand).all():
                break
    if not ((avail + freed) >= demand).all():
        return blocked, None
    return blocked, victims


def loop_preempts(planner, victims, container):
    """The rest of the loop's body: victims that free enough, and the
    Equation 9 guard in the loop's own arithmetic."""
    return victims is not None and not (
        planner.weights
        and sum(planner._weighted_flow(v) for v in victims)
        >= planner._weighted_flow(container)
    )


def loop_preemption_fits(state, machine_id, app_id, demand, priority):
    """Whether ``RescueLoop._preempt`` reaches its plan on
    ``machine_id`` when no Equation 9 weights are set."""
    _, victims = loop_preemption_victims(
        state, machine_id, app_id, demand, priority
    )
    return victims is not None


def loop_victim_demand(state, machine_id, app_id, priority):
    """The demand the preemption loop frees *exactly*, in its own float
    order, when it takes every victim it may: free resources plus the
    blockers, then the other lower-priority residents."""
    cs = state.constraints
    resources = state.topology.resources
    residents = state.deployed_containers(machine_id)
    blockers = [c for c in residents if cs.violates(app_id, c.app_id)]
    lower = sorted(
        (c for c in residents if c.priority < priority and c not in blockers),
        key=lambda c: (c.priority, c.cpu),
    )
    freed = np.zeros(len(resources))
    for victim in blockers + lower:
        freed = freed + victim.demand_vector(resources)
    return state.available[machine_id] + freed


def assert_table_is_the_residents(ledger, state):
    """Every table row is the machine's residents, read afresh, in
    (priority, cpu) order with the loop's running sum of their demand,
    padded with at least one dead pad."""
    table = ledger.table(state)
    resources = state.topology.resources
    for machine_id in range(state.n_machines):
        _, ordered = residents_of(state, machine_id)
        k = len(ordered)
        assert table.width > k
        shapes = [ledger._shapes[s] for s in table.shape_ids[machine_id, :k]]
        assert shapes == [
            tuple(getattr(c, name) for name in resources) for c in ordered
        ]
        assert table.priorities[machine_id, :k].tolist() == [
            c.priority for c in ordered
        ]
        assert np.array_equal(
            table.sorted_cum[machine_id, :k], running_demand(state, ordered)
        )
        assert (table.shape_ids[machine_id, k:] == -1).all()


def check_walk_screens(kernel, state):
    """Both vector screens at every position of a walk over the whole
    pool, for probe demands, the covering-prefix boundaries of every
    machine, and the exact sums the preemption loop frees — the
    preemption screen under each of :data:`WEIGHT_SETS`."""
    ledger = kernel.ledger
    assert_table_is_the_residents(ledger, state)
    live = ledger.live(state)
    assert live.tolist() == [
        bool(dominates(state.available, np.array(shape)).any())
        for shape in ledger._shapes
    ] + [False]

    n = state.n_machines
    order = np.array([2, 0, 3, 1])
    probes = [np.array([cpu, 2.0 * cpu]) for cpu in (0.1, 0.7, 1.1, 2.0, 4.0)]
    probes += [
        state.available[m] + cum
        for m in order.tolist()
        for cum in running_demand(state, residents_of(state, m)[1])
    ]
    for demand in probes:
        shortfalls = demand - state.available[order]
        for limit in (0, 1, 2, n):
            passing = kernel._consolidation_screen(
                state, order, shortfalls, limit
            ).tolist()
            assert passing == [
                pos for pos, m in enumerate(order.tolist())
                if loop_consolidation_verdict(
                    state, m, shortfalls[pos], limit
                )
            ]

    planners = [
        RescuePlanner(state, AladdinConfig(), weights=weights, kernel=kernel)
        for weights in WEIGHT_SETS
    ]
    for priority in (1, 3):
        for app in range(5):
            demands = probes[:5] + [
                loop_victim_demand(state, m, app, priority)
                for m in order.tolist()
            ]
            for demand in demands:
                verdicts = [
                    loop_preemption_victims(state, m, app, demand, priority)
                    for m in order.tolist()
                ]
                for planner in planners:
                    for container in preemptors(
                        planner, app, priority, demand, verdicts
                    ):
                        check_preemption_screen(
                            kernel, planner, order, container, demand,
                            verdicts,
                        )


#: Equation 9 weights the preemption screen is checked under: none (the
#: fit alone decides); powers of two, under which the boundary flows of
#: :func:`preemptors` land exactly and integer CPUs tie (1.0 × 4 against
#: 2.0 × 2); and weights under which ties are rare
WEIGHT_SETS = (
    {},
    {0: 1.0, 1: 2.0, 2: 2.0, 3: 4.0},
    {0: 0.3, 1: 1.1, 2: 0.7, 3: 2.9},
)


def preemptors(planner, app, priority, demand, verdicts):
    """The container ``demand`` is for, and — under Equation 9 weights —
    containers whose weighted flow is exactly, and one ulp above, what a
    machine's victims carry: where the guard flips."""
    yield Container(
        container_id=99, app_id=app, instance=0, cpu=float(demand[0]),
        mem_gb=float(demand[1]), priority=priority,
    )
    if not planner.weights:
        return
    own = planner.weights.get(priority, 1.0)
    flows = {
        sum(planner._weighted_flow(v) for v in victims)
        for _, victims in verdicts
        if victims
    }
    for flow in sorted(flows):
        for target in (flow, float(np.nextafter(flow, np.inf))):
            yield Container(
                container_id=99, app_id=app, instance=0, cpu=target / own,
                mem_gb=float(demand[1]), priority=priority,
            )


def check_preemption_screen(
    kernel, planner, order, container, demand, verdicts
):
    """Where no resident blocks ``container`` the screen keeps exactly
    the positions the loop plans at; where one does, at least those."""
    passing = set(
        kernel._preemption_screen(planner, order, container, demand).tolist()
    )
    for pos, (blocked, victims) in enumerate(verdicts):
        plans = loop_preempts(planner, victims, container)
        context = (int(order[pos]), container, demand, planner.weights)
        if blocked:
            assert pos in passing or not plans, context
        else:
            assert (pos in passing) == plans, context


def walk_ops(*cpus):
    return small_pool_ops(
        st.sampled_from(cpus),
        st.tuples(st.just("evict_block"), st.lists(CONTAINER_ID, max_size=4)),
        st.tuples(st.just("fail"), MACHINE),
        st.tuples(st.just("repair"), MACHINE),
    )


def check_walks_while_mutating(machine_cpu, rules, rack_scoped, ops):
    state = ClusterState(
        small_topology(cpu=machine_cpu),
        scoped_constraints(rules, rack_scoped),
    )
    kernel = RescueKernel()
    next_id = 0
    for op in ops:
        if op[0] == "check":
            check_walk_screens(kernel, state)
        else:
            next_id = apply_op(state, rack_scoped, op, next_id)
    check_walk_screens(kernel, state)


@settings(max_examples=100, deadline=None)
@given(RULE_PAIRS, st.sets(PROBE_APP), walk_ops(0.1, 0.3, 0.7, 1.1))
# ten 0.1-CPU victims: numpy's pairwise reduction of their flows is 1.0,
# a left-to-right ``sum()`` 0.9999999999999999
@example([], set(), [("deploy", 0, [0] * 10, 0.1, 0)])
# a within-rule: the loop frees the application's own 1.1-CPU resident
# first, the (priority, cpu) prefix would take 0.1 + 0.3 + 1.1
@example(
    [(1, 1)], set(),
    [("deploy", a, [0], cpu, 0) for a, cpu in ((2, 0.1), (2, 0.3), (1, 1.1))],
)
def test_walk_screens_agree_with_the_loop_at_every_position(
    rules, rack_scoped, ops
):
    """Four 2-CPU machines filled with 0.1 / 0.3 / 0.7 / 1.1-CPU
    residents (sums that depend on the order they are added in), one
    long-lived kernel, the state mutated between checks — deploys,
    migrations, evictions one by one and in blocks, machines failed and
    repaired, rules added late: the table holds every machine's residents,
    the liveness vector is Equation 6 per shape, the consolidation
    screen keeps exactly the positions the loop planned at, and the
    preemption screen keeps exactly the positions the loop plans at on
    machines where nothing blocks the container, and at least those
    where something does — with no Equation 9 weights, and with weights
    that do and do not tie."""
    check_walks_while_mutating(2.0, rules, rack_scoped, ops)


@settings(max_examples=60, deadline=None)
@given(RULE_PAIRS, st.sets(PROBE_APP), walk_ops(1.0, 2.0, 3.0))
def test_preemption_screen_is_exact_where_integer_flows_tie(
    rules, rack_scoped, ops
):
    """The walk screens on four 8-CPU machines filled with 1-, 2- and
    3-CPU residents, where weighted flows tie exactly (1.0 × 4 against
    2.0 × 2): a screen that compared Equation 9 with any slack, or with
    ``>`` for ``>=``, keeps machines the loop refuses."""
    check_walks_while_mutating(8.0, rules, rack_scoped, ops)


def test_preemption_screen_keeps_a_fit_that_depends_on_summation_order():
    """An 8-CPU machine hosting a 1.1-CPU blocker and 0.1 / 0.3-CPU
    lower-priority residents: the loop adds the blocker first and frees
    a hair more than the (priority, cpu) prefix sum, so a demand equal
    to what the loop frees fits the loop and falls short of the exact
    screen sum — the slack keeps the machine, and the rescue preempts
    on it exactly as the loop oracle does."""

    def build():
        state = ClusterState(
            build_cluster(1, machine=MachineSpec(cpu=8.0, mem_gb=16.0)),
            ConstraintSet([AntiAffinityRule(0, 1)]),
        )
        for cid, (app, cpu) in enumerate(((1, 1.1), (2, 0.1), (3, 0.3))):
            state.deploy(
                Container(
                    container_id=cid, app_id=app, instance=0, cpu=cpu,
                    mem_gb=2.0 * cpu,
                ),
                0,
            )
        return state

    state = build()
    demand = loop_victim_demand(state, 0, app_id=0, priority=1)
    in_prefix_order = np.cumsum(
        [[0.1, 0.2], [0.3, 0.6], [1.1, 2.2]], axis=0
    )[-1]
    assert not (state.available[0] + in_prefix_order >= demand).all()
    assert loop_preemption_fits(state, 0, 0, demand, priority=1)
    kernel = RescueKernel()
    blocked = Container(
        container_id=9, app_id=0, instance=0, cpu=float(demand[0]),
        mem_gb=float(demand[1]), priority=1,
    )
    planner = RescuePlanner(state, AladdinConfig(), kernel=kernel)
    assert kernel._preemption_screen(
        planner, np.array([0]), blocked, demand
    ).tolist() == [0]
    assert np.array_equal(
        blocked.demand_vector(state.topology.resources), demand
    )
    _, outcome, _ = run_pair(build, blocked)
    assert outcome.ok and len(outcome.preempted) == 3


def test_a_row_wider_than_the_table_widens_it():
    """The table is as wide as its widest row plus a pad; a machine that
    later holds more residents than that widens it, and the verdicts
    stay the loop's."""
    state = ClusterState(small_topology(cpu=2.0), ConstraintSet())
    kernel = RescueKernel()
    next_id = apply_op(state, (), ("deploy", 0, range(N_MACHINES), 0.3, 0), 0)
    width = kernel.ledger.table(state).width
    assert width == 2
    for cpu in (0.1, 0.7, 0.1, 0.3):
        next_id = apply_op(state, (), ("deploy", 1, [0], cpu, 1), next_id)
    assert kernel.ledger.table(state).width == 6
    check_walk_screens(kernel, state)


def record_writes(ledger):
    """Rebind ``ledger._write`` so each batch it writes is recorded."""
    batches = []
    write = ledger._write

    def recorded(state, machines):
        batches.append(machines.tolist())
        write(state, machines)

    ledger._write = recorded
    return batches


def test_a_compacted_dirty_log_rebuilds_every_row():
    """A mutation the ledger never saw because the log was compacted
    past its version: the table and the shape ids are rebuilt — every
    machine rewritten in one batch, never left stale."""
    state = ClusterState(small_topology(cpu=2.0), ConstraintSet())
    kernel = RescueKernel()
    next_id = 0
    for cpu in (0.3, 0.7, 0.1):
        next_id = apply_op(
            state, (), ("deploy", 0, range(N_MACHINES), cpu, 0), next_id
        )
    kernel.ledger.table(state)
    batches = record_writes(kernel.ledger)
    since = state.cursor()
    state.evict(2)  # a resident of machine 2
    state.touch_block(np.zeros(state._log_limit, dtype=np.int64))
    assert state.advance(since) is None
    check_walk_screens(kernel, state)
    assert batches == [list(range(N_MACHINES))]


def test_the_first_table_is_one_batch_and_builds_no_row():
    """The first walk's table goes through the same writer as every
    later one, with every machine stale: one batch, and the only
    resident view the kernel caches; a later call rewrites exactly the
    machines mutated since."""
    state = ClusterState(small_topology(cpu=2.0), ConstraintSet())
    next_id = 0
    for cpu in (0.3, 0.7):
        next_id = apply_op(
            state, (), ("deploy", 0, range(N_MACHINES), cpu, 0), next_id
        )
    kernel = RescueKernel()
    batches = record_writes(kernel.ledger)
    kernel.ledger.table(state)
    assert batches == [list(range(N_MACHINES))]
    state.evict(0)  # machine 0
    state.migrate(5, 3)  # machine 1 -> machine 3
    kernel.ledger.table(state)
    assert batches[1:] == [[0, 1, 3]]
    kernel.ledger.table(state)
    assert len(batches) == 2
    check_walk_screens(kernel, state)


def test_a_machine_emptied_to_all_pads():
    """A machine whose last resident leaves keeps a row of pads only:
    dead shape ids, pad priorities, zero CPU and cumulative demand."""
    state = ClusterState(small_topology(cpu=2.0), ConstraintSet())
    next_id = apply_op(state, (), ("deploy", 0, [1, 1, 2], 0.3, 0), 0)
    kernel = RescueKernel()
    table = kernel.ledger.table(state)
    assert table.width == 3 and (table.shape_ids[1, :2] >= 0).all()
    for cid in (0, 1):
        state.evict(cid)
    table = kernel.ledger.table(state)
    assert table.width == 3
    assert (table.shape_ids[1] == -1).all()
    assert (table.priorities[1] == _PAD_PRIORITY).all()
    assert not table.cpus[1].any() and not table.sorted_cum[1].any()
    check_walk_screens(kernel, state)


def test_one_batch_widens_the_table_and_interns_a_new_shape():
    """Two machines mutated between two table reads, one of them past
    the table's width and with a shape nobody had: one batch widens the
    table, interns the shape, and both rows are the machines' own."""
    state = ClusterState(small_topology(cpu=2.0), ConstraintSet())
    next_id = apply_op(state, (), ("deploy", 0, range(N_MACHINES), 0.3, 0), 0)
    kernel = RescueKernel()
    assert kernel.ledger.table(state).width == 2
    shapes = len(kernel.ledger._shapes)
    batches = record_writes(kernel.ledger)
    for cpu in (0.1, 0.7, 0.1):
        next_id = apply_op(state, (), ("deploy", 1, [2], cpu, 1), next_id)
    next_id = apply_op(state, (), ("deploy", 2, [0], 0.3, 2), next_id)
    table = kernel.ledger.table(state)
    assert batches == [[0, 2]]
    assert table.width == 5
    assert len(kernel.ledger._shapes) == shapes + 2  # 0.1 and 0.7 CPU
    assert table.priorities[2, :4].tolist() == [0, 1, 1, 1]
    assert table.cpus[2, :4].tolist() == [0.3, 0.1, 0.1, 0.7]
    check_walk_screens(kernel, state)


def test_a_restored_kernel_resumes_the_tight_churn():
    """An engine restored mid-churn from a checkpoint image — whose
    rescue-kernel part keeps the form it had before the table had a
    batch writer, since the ledger is never persisted — builds its first
    table through the writer, one batch with every machine stale, and
    makes the uninterrupted run's placements, failures and rescue
    counters to the end."""
    expected, _ = run_rounds(restore_every_round=False)
    stream, state, engine = tight_pool(60, 6)
    trail = []
    batches: list[list[int]] = []
    for i, block in enumerate(rounds(stream, [state])):
        if i == len(expected) // 2:
            image = engine.checkpoint()
            assert set(image["rescue_kernel"]) == {"failures", "invocations"}
            engine = AladdinScheduler.from_checkpoint(image, state)
            batches = record_writes(engine.rescue_kernel.ledger)
        result = engine.schedule(block, state)
        trail.append(
            (result.placements, result.undeployed, rescue_counters(result))
        )
    assert trail == [
        (placements, undeployed, counters)
        for placements, undeployed, _, counters in expected
    ]
    assert batches and batches[0] == list(range(state.n_machines))


# ----------------------------------------------------------------------
# (e) Equation 9 in the loop's own arithmetic
# ----------------------------------------------------------------------
def exact_pool(victim_cpus, free_cpu):
    """One 8-CPU machine hosting priority-0 residents of ``victim_cpus``
    and a priority-2 filler that leaves exactly ``free_cpu`` CPU (and
    2 GB) free."""
    state = ClusterState(
        build_cluster(1, machine=MachineSpec(cpu=8.0, mem_gb=16.0)),
        ConstraintSet(),
    )
    for cid, cpu in enumerate(victim_cpus):
        state.deploy(
            Container(
                container_id=cid, app_id=1, instance=0, cpu=cpu,
                mem_gb=2.0 * cpu,
            ),
            0,
        )
    cpu, mem = state.available[0].tolist()
    state.deploy(
        Container(
            container_id=len(victim_cpus), app_id=2, instance=0,
            cpu=cpu - free_cpu, mem_gb=mem - 2.0, priority=2,
        ),
        0,
    )
    assert state.available[0].tolist() == [free_cpu, 2.0]
    return state


@pytest.mark.parametrize(
    "victim_cpus, free_cpu, cpu, weights",
    [
        # sequential 0.6000000000000001 trips the guard, compensated 0.6
        # does not
        ((0.1, 0.2, 0.3), 0.0, 0.6000000000000001, {0: 1.0, 1: 1.0}),
        # ten victims: sequential 0.9999999999999999 passes, compensated
        # (and numpy's pairwise reduction) 1.0 trips it
        ((0.1,) * 10, 1.0, 2.0, {0: 1.0, 1: 0.5}),
    ],
)
def test_equation9_is_the_loops_sum_on_every_interpreter(
    victim_cpus, free_cpu, cpu, weights
):
    """Victim flows whose Equation 9 verdict depends on how ``sum()``
    adds floats: left to right (CPython ≤ 3.11) and compensated (3.12
    on) disagree here.  The demand needs every victim.  Whichever
    ``sum()`` this interpreter has, the screen keeps the machine exactly
    when the loop plans on it, and the rescue decides what the loop
    oracle decides."""
    flows = [weights[0] * c for c in victim_cpus]
    flow = weights[1] * cpu
    assert (reduce(add, flows) >= flow) != (math.fsum(flows) >= flow)
    plans = not sum(flows) >= flow

    def build():
        return exact_pool(victim_cpus, free_cpu)

    state = build()
    blocked = Container(
        container_id=99, app_id=0, instance=0, cpu=cpu, mem_gb=2.0,
        priority=1,
    )
    demand = blocked.demand_vector(state.topology.resources)
    _, victims = loop_preemption_victims(state, 0, 0, demand, priority=1)
    assert [v.cpu for v in victims] == list(victim_cpus)
    kernel = RescueKernel()
    planner = RescuePlanner(
        state, AladdinConfig(), weights=weights, kernel=kernel
    )
    assert loop_preempts(planner, victims, blocked) == plans
    passing = kernel._preemption_screen(
        planner, np.array([0]), blocked, demand
    )
    assert passing.tolist() == ([0] if plans else [])
    _, outcome, _ = run_pair(build, blocked, weights=weights)
    assert outcome.ok == plans
    assert len(outcome.preempted) == (len(victim_cpus) if plans else 0)
