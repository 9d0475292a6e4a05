"""Quality-parity harness: the LP solver engine vs the reference engine.

The solver engine is deliberately *not* bit-identical to the batch
engine (the LP optimises a window jointly where the walk commits
greedily), so the differential harness cannot gate it.  This harness
holds it to the Fig. 9 contract instead: on identical randomized churn
streams the two engines must land within the documented
:data:`repro.core.validate.QUALITY_TOLERANCE` of each other on used
machines, fragmentation and blocked containers — and both must be
Equation 7–9 valid at every round (``validate_placements=True`` makes
any violation raise immediately).

The stream is decision-independent: arrivals, departure times and fault
victims are all drawn from one seeded generator without looking at
either engine's placements, so the two runs see the same world even
while their clusters diverge.
"""

import numpy as np
import pytest

pytest.importorskip("scipy", reason="solver extra (scipy) not installed")

from repro.cluster.constraints import ConstraintSet
from repro.cluster.state import ClusterState
from repro.cluster.container import containers_of
from repro.cluster.topology import build_cluster
from repro.core import AladdinConfig, AladdinScheduler, measure_quality, quality_gaps
from repro.core.validate import validate_state
from repro.core.vecsolve import SolverScheduler
from repro.sim.faults import fail_machines, repair_machines

from tests.test_differential import random_apps, track_telemetry

N_PARITY_SEEDS = 20


def parity_replay(seed, engines, ticks=10, n_machines=24):
    """Replay one decision-independent churn stream through ``engines``.

    Returns ``(states, qualities, arrived)``: each engine's final
    cluster state and its Fig. 9 quality sample, with ``blocked``
    counting the containers that never got deployed by that engine.
    """
    rng = np.random.default_rng(seed)
    n_apps = int(rng.integers(12, 22))
    apps = random_apps(rng, n_apps)
    constraints = ConstraintSet.from_applications(apps)
    containers = containers_of(apps)
    by_app = {}
    for c in containers:
        by_app.setdefault(c.app_id, []).append(c)

    states = [
        ClusterState(build_cluster(n_machines, machines_per_rack=4), constraints)
        for _ in engines
    ]
    arrival_tick = np.sort(rng.integers(0, ticks, n_apps))
    lifetimes = rng.integers(4, 12, n_apps)

    # Departure times are fixed at arrival time — independent of
    # whether (or where) an engine placed the container.
    departures: dict[int, list[int]] = {}
    ever_placed = [set() for _ in engines]
    requeues = [[] for _ in engines]
    down: list[tuple[int, int]] = []
    down_now: set[int] = set()
    idx = 0
    for tick in range(ticks):
        for cid in departures.pop(tick, ()):
            for state in states:
                if cid in state.assignment:
                    state.evict(cid)
        while down and down[0][0] <= tick:
            _, machine = down.pop(0)
            down_now.discard(machine)
            for state in states:
                repair_machines(state, [machine])
        if rng.random() < 0.30:
            victim = int(rng.integers(0, n_machines))
            if victim not in down_now:
                down_now.add(victim)
                down.append((tick + int(rng.integers(2, 5)), victim))
                down.sort()
                for i, state in enumerate(states):
                    report = fail_machines(state, [victim])
                    requeues[i].extend(
                        sorted(
                            report.displaced,
                            key=lambda c: (-c.priority, c.container_id),
                        )
                    )
        arrivals = []
        while idx < n_apps and arrival_tick[idx] <= tick:
            app = apps[idx]
            arrivals.extend(by_app[app.app_id])
            end = tick + int(lifetimes[idx])
            departures.setdefault(end, []).extend(
                c.container_id for c in by_app[app.app_id]
            )
            idx += 1
        for i, (engine, state) in enumerate(zip(engines, states)):
            batch = requeues[i] + arrivals
            requeues[i] = []
            if not batch:
                continue
            result = engine.schedule(batch, state)
            ever_placed[i].update(result.placements)

    arrived = len(containers)
    qualities = [
        measure_quality(
            state, blocked=arrived - len(placed)
        )
        for state, placed in zip(states, ever_placed)
    ]
    return states, qualities, arrived


def _engines():
    ref = track_telemetry(
        AladdinScheduler(AladdinConfig(validate_placements=True))
    )
    cand = track_telemetry(
        SolverScheduler(
            AladdinConfig(engine="solver", validate_placements=True)
        )
    )
    return ref, cand


@pytest.mark.parametrize("seed", range(N_PARITY_SEEDS))
def test_solver_quality_matches_reference(seed):
    """20 decision-independent churn replays: the solver engine stays
    within QUALITY_TOLERANCE of the batch engine on every Fig. 9 axis,
    with zero Equation 7–9 violations on both sides."""
    ref, cand = _engines()
    states, (q_ref, q_cand), arrived = parity_replay(seed, [ref, cand])
    assert q_ref.violations == 0 and q_cand.violations == 0
    for state in states:
        assert validate_state(state).ok
    gaps = quality_gaps(q_ref, q_cand, arrived=arrived)
    assert gaps == [], (
        f"seed {seed}: solver quality out of tolerance: {gaps} "
        f"(ref {q_ref.as_dict()}, solver {q_cand.as_dict()})"
    )
    # Non-vacuous: the LP actually drove the candidate's placements.
    assert cand.total_telemetry.solver_calls > 0
    assert cand.solver_placed > 0
    assert ref.total_telemetry.solver_calls == 0


@pytest.mark.parametrize("seed", [1, 6, 13])
def test_maxmin_solver_stays_valid_under_churn(seed):
    """The max-min objective reshapes placement (fairness over packing)
    so it is not parity-gated — but it must stay Equation 7–9 valid and
    issue its two LP phases per window."""
    cand = track_telemetry(
        SolverScheduler(
            AladdinConfig(
                engine="solver",
                solver_objective="maxmin",
                validate_placements=True,
            )
        )
    )
    (state,), (quality,), _ = parity_replay(seed, [cand])
    assert quality.violations == 0
    assert validate_state(state).ok
    assert cand.total_telemetry.solver_calls >= 2


def test_parity_replays_are_not_trivial():
    """Across the parity seeds the stream must exercise real pressure:
    faults fire, some containers block, and the two engines place a
    meaningful workload — otherwise the tolerance gate is vacuous."""
    total_blocked = 0
    total_placed = 0
    for seed in range(6):
        ref, cand = _engines()
        # Deliberately tight cluster: overflow pressure must exist.
        states, (q_ref, q_cand), arrived = parity_replay(
            seed, [ref, cand], n_machines=10
        )
        total_blocked += q_ref.blocked
        total_placed += arrived - q_ref.blocked
        # Even under pressure both engines stay Equation 7–9 valid.
        assert q_ref.violations == 0 and q_cand.violations == 0
    assert total_placed > 0
    assert total_blocked > 0, "workload never blocked anything"
