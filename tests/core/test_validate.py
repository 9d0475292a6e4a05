"""Property tests for the shared Equation 7–9 validator (core.validate)
and the window-plan oracle (tests/core/window_oracle.py).

Two directions, both load-bearing for the engines' legality contract:

* **Soundness on legal plans** — every placement a legacy engine
  commits passes :func:`validate_window` (against the pre-round frozen
  context) and :func:`validate_state` (against the live state), across
  hypothesis-randomized workloads with mixed anti-affinity rules.
* **Completeness on violations** — hand-built Equation 7/8/9 breaches
  are flagged with the right kind tag, so the validator cannot be
  silently vacuous.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Application, containers_of
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core import AladdinScheduler, FlowPathSearch
from repro.core.validate import (
    KIND_BOOKKEEPING,
    KIND_CAPACITY,
    KIND_CROSS,
    KIND_RANGE,
    KIND_UNKNOWN,
    KIND_WITHIN,
    QualityMetrics,
    PlacementInvalidError,
    measure_quality,
    quality_gaps,
    validate_state,
)

from tests.cluster.test_violation_tally import recount_violations
from tests.conftest import make_apps, state_for
from tests.core.window_oracle import WindowContext, validate_window


def _random_workload(seed):
    """A randomized window: mixed demands, scopes and conflicts."""
    rng = np.random.default_rng(seed)
    n_apps = int(rng.integers(3, 12))
    apps = []
    for i in range(n_apps):
        apps.append(
            Application(
                app_id=i,
                n_containers=int(rng.integers(1, 5)),
                cpu=float(rng.choice([1.0, 2.0, 4.0, 8.0])),
                mem_gb=float(rng.choice([2.0, 4.0, 8.0])),
                priority=int(rng.integers(0, 3)),
                anti_affinity_within=bool(rng.random() < 0.4),
                anti_affinity_scope=(
                    "rack" if rng.random() < 0.3 else "machine"
                ),
                conflicts=frozenset(
                    j for j in range(i) if rng.random() < 0.1
                ),
            )
        )
    return apps


# ----------------------------------------------------------------------
# soundness: legal engine output always validates
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_validator_accepts_every_batch_engine_placement(seed):
    apps = _random_workload(seed)
    constraints = ConstraintSet.from_applications(apps)
    state = ClusterState(
        build_cluster(16, machines_per_rack=4), constraints
    )
    containers = containers_of(apps)
    ctx = WindowContext.capture(state)
    result = AladdinScheduler().schedule(containers, state)
    # The window audit sees exactly what the engine committed, judged
    # against the pre-round frozen context.
    report = validate_window(ctx, containers, result.placements)
    assert report.ok, [str(v) for v in report.violations]
    live = validate_state(state)
    assert live.ok, [str(v) for v in live.violations]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_validator_accepts_flow_engine_and_faulted_rounds(seed):
    apps = _random_workload(seed)
    constraints = ConstraintSet.from_applications(apps)
    state = ClusterState(
        build_cluster(16, machines_per_rack=4), constraints
    )
    containers = containers_of(apps)
    engine = FlowPathSearch()
    engine.schedule(containers, state)
    validate_state(state).raise_if_invalid(engine.name)
    # A second round against the churned state (partial departures).
    rng = np.random.default_rng(seed)
    for cid in list(state.assignment):
        if rng.random() < 0.4:
            state.evict(cid)
    survivors = {c.container_id for c in containers} - set(
        state.assignment
    )
    batch = [c for c in containers if c.container_id in survivors]
    engine.schedule(batch, state)
    assert validate_state(state).ok


# ----------------------------------------------------------------------
# completeness: hand-built violations are flagged, with the right kind
# ----------------------------------------------------------------------
def _within_apps(scope):
    return make_apps((2, 4.0, 0, True, ()))if scope == "machine" else [
        Application(
            app_id=0, n_containers=2, cpu=4.0, mem_gb=8.0,
            anti_affinity_within=True, anti_affinity_scope="rack",
        )
    ]


def test_rejects_eq7_within_machine_violation():
    apps = make_apps((2, 4.0, 0, True, ()))
    state = state_for(apps, n_machines=4, machines_per_rack=2)
    c1, c2 = containers_of(apps)
    ctx = WindowContext.capture(state)
    report = validate_window(ctx, [c1, c2], {
        c1.container_id: 0, c2.container_id: 0,
    })
    assert [v.kind for v in report.violations] == [KIND_WITHIN]
    assert report.violations[0].container_id == c2.container_id
    with pytest.raises(PlacementInvalidError):
        report.raise_if_invalid("test")


def test_rejects_eq7_within_rack_violation_across_machines():
    apps = _within_apps("rack")
    state = state_for(apps, n_machines=4, machines_per_rack=2)
    c1, c2 = containers_of(apps)
    ctx = WindowContext.capture(state)
    # Machines 0 and 1 share rack 0: legal on machine scope, illegal on
    # rack scope.
    report = validate_window(ctx, [c1, c2], {
        c1.container_id: 0, c2.container_id: 1,
    })
    assert [v.kind for v in report.violations] == [KIND_WITHIN]
    # Different racks are fine.
    ok = validate_window(ctx, [c1, c2], {
        c1.container_id: 0, c2.container_id: 2,
    })
    assert ok.ok


def test_rejects_eq7_against_pre_resident_sibling():
    apps = make_apps((2, 4.0, 0, True, ()))
    state = state_for(apps, n_machines=4, machines_per_rack=2)
    c1, c2 = containers_of(apps)
    state.deploy(c1, 0)
    ctx = WindowContext.capture(state)
    report = validate_window(ctx, [c2], {c2.container_id: 0})
    assert [v.kind for v in report.violations] == [KIND_WITHIN]


def test_rejects_eq8_cross_conflicts_window_and_resident():
    apps = make_apps(
        (1, 2.0, 0, False, ()),
        (1, 2.0, 0, False, (0,)),
    )
    state = state_for(apps, n_machines=4, machines_per_rack=2)
    c_a, c_b = containers_of(apps)
    ctx = WindowContext.capture(state)
    # Window-internal conflict.
    report = validate_window(ctx, [c_a, c_b], {
        c_a.container_id: 1, c_b.container_id: 1,
    })
    assert [v.kind for v in report.violations] == [KIND_CROSS]
    # Conflict against a pre-window resident.
    state.deploy(c_a, 2)
    ctx2 = WindowContext.capture(state)
    report2 = validate_window(ctx2, [c_b], {c_b.container_id: 2})
    assert [v.kind for v in report2.violations] == [KIND_CROSS]


def test_rejects_eq9_capacity_overflow_accumulated():
    apps = make_apps((3, 20.0, 0, False, ()))
    state = state_for(apps, n_machines=2, machines_per_rack=2)
    cs = containers_of(apps)
    ctx = WindowContext.capture(state)
    # One fits (32 CPU machines), two of 20 CPU do not.
    report = validate_window(ctx, cs, {
        cs[0].container_id: 0, cs[1].container_id: 0,
    })
    assert [v.kind for v in report.violations] == [KIND_CAPACITY]
    assert report.violations[0].container_id == cs[1].container_id


def test_rejects_unknown_container_and_machine_range():
    apps = make_apps((1, 2.0, 0, False, ()))
    state = state_for(apps, n_machines=2, machines_per_rack=2)
    (c,) = containers_of(apps)
    ctx = WindowContext.capture(state)
    report = validate_window(ctx, [c], {
        c.container_id: 99, 12345: 0,
    })
    kinds = {v.kind for v in report.violations}
    assert kinds == {KIND_RANGE, KIND_UNKNOWN}


def test_validate_state_flags_forced_violations_and_drift():
    apps = make_apps(
        (2, 4.0, 0, True, ()),
        (1, 4.0, 0, False, (0,)),
    )
    state = state_for(apps, n_machines=4, machines_per_rack=2)
    c1, c2, c3 = containers_of(apps)
    state.deploy(c1, 0)
    state.deploy(c2, 0, force=True)   # Eq. 7 breach
    state.deploy(c3, 0, force=True)   # Eq. 8 breach
    report = validate_state(state)
    kinds = report.by_kind()
    assert kinds.get(KIND_WITHIN, 0) >= 2   # both co-located siblings
    assert kinds.get(KIND_CROSS, 0) >= 2    # both sides of the conflict
    # Bookkeeping drift: capacity mutated behind deploy/evict's back.
    state.available[1, 0] -= 1.0
    drifted = validate_state(state)
    assert KIND_BOOKKEEPING in drifted.by_kind()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_validate_state_mirrors_violation_counter(seed):
    """validate_state finds violations iff anti_affinity_violations > 0."""
    rng = np.random.default_rng(seed)
    apps = _random_workload(seed)
    constraints = ConstraintSet.from_applications(apps)
    state = ClusterState(
        build_cluster(8, machines_per_rack=4), constraints
    )
    for c in containers_of(apps):
        machine = int(rng.integers(0, 8))
        if state.fits(c.demand_vector(state.topology.resources), machine):
            state.deploy(c, machine, force=True)
    report = validate_state(state)
    aa_violations = [
        v for v in report.violations
        if v.kind in (KIND_WITHIN, KIND_CROSS)
    ]
    assert bool(aa_violations) == (state.anti_affinity_violations() > 0)
    assert measure_quality(state).violations == recount_violations(state)


# ----------------------------------------------------------------------
# quality metrics and parity tolerances
# ----------------------------------------------------------------------
def test_measure_quality_and_gaps():
    apps = make_apps((4, 8.0, 0, False, ()))
    state = state_for(apps, n_machines=4, machines_per_rack=2)
    for i, c in enumerate(containers_of(apps)):
        state.deploy(c, i % 2)
    q = measure_quality(state, blocked=1)
    assert q.used_machines == 2
    assert q.blocked == 1
    assert q.violations == 0
    assert 0.0 <= q.fragmentation <= 1.0
    assert quality_gaps(q, q) == []
    # Within tolerance: small drift passes.
    near = QualityMetrics(
        used_machines=q.used_machines + 1,
        fragmentation=q.fragmentation + 0.05,
        blocked=q.blocked + 1,
        violations=0,
    )
    assert quality_gaps(q, near) == []
    # Better than the reference on every cost axis: never a gap (the
    # parity gate is one-sided).
    better = QualityMetrics(
        used_machines=q.used_machines - 1,
        fragmentation=0.0,
        blocked=0,
        violations=0,
    )
    assert quality_gaps(q, better) == []
    # Out of tolerance on each axis, flagged with readable text.
    far = QualityMetrics(
        used_machines=q.used_machines + 50,
        fragmentation=q.fragmentation + 0.5,
        blocked=q.blocked + 40,
        violations=3,
    )
    gaps = quality_gaps(q, far)
    assert len(gaps) == 4
    assert any("violations" in g for g in gaps)
    # The relative blocked slack scales with arrivals.
    assert len(quality_gaps(q, far, arrived=1000)) == 3
