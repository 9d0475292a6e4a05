"""Blacklist function (Equations 7–8) tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Container
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core.blacklist import BlacklistFunction


def container(cid, app, cpu=1.0):
    return Container(container_id=cid, app_id=app, instance=0, cpu=cpu, mem_gb=2.0)


def make_state(rules, n_machines=4):
    return ClusterState(build_cluster(n_machines), ConstraintSet(rules))


class TestEquation7:
    def test_empty_machine_has_empty_blacklist(self):
        state = make_state([AntiAffinityRule(0, 1)])
        assert BlacklistFunction(state).blacklist(0) == set()

    def test_cross_conflict_enters_blacklist(self):
        state = make_state([AntiAffinityRule(0, 1)])
        state.deploy(container(0, app=0), 2)
        assert BlacklistFunction(state).blacklist(2) == {1}

    def test_within_app_blacklists_itself(self):
        state = make_state([AntiAffinityRule(3, 3)])
        state.deploy(container(0, app=3), 1)
        assert BlacklistFunction(state).blacklist(1) == {3}

    def test_blacklist_shrinks_after_evict(self):
        state = make_state([AntiAffinityRule(0, 1)])
        state.deploy(container(0, app=0), 2)
        state.evict(0)
        assert BlacklistFunction(state).blacklist(2) == set()


class TestEquation8:
    def test_admits_unrelated_app(self):
        state = make_state([AntiAffinityRule(0, 1)])
        state.deploy(container(0, app=0), 2)
        bf = BlacklistFunction(state)
        assert bf.admits(5, 2)
        assert not bf.admits(1, 2)

    def test_paper_example(self):
        """Fig. 4: p = {T1, T2, 0}; after T1 -> N1, T2 is blacklisted on N1."""
        state = make_state([AntiAffinityRule(1, 2)])
        state.deploy(container(0, app=1), 0)  # T1 -> N1
        bf = BlacklistFunction(state)
        assert not bf.admits(2, 0)  # T2 cannot join N1
        assert bf.admits(2, 1)  # but any other machine is fine


#: anti-affinity rules as ``(app_a, app_b)`` pairs over five
#: applications (``a == b`` is a within-rule); shared with
#: ``tests/core/test_rescue_admissible.py``
RULE_PAIRS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6
)
#: deployments as ``(app, machine)`` pairs on a four-machine cluster
DEPLOYMENTS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=10
)
PROBE_APP = st.integers(0, 4)


def scoped_constraints(rules, rack_scoped=frozenset()):
    """``rules`` as a :class:`ConstraintSet`; the within-rule of an
    application in ``rack_scoped`` spreads over racks, not machines."""
    constraints = ConstraintSet()
    for a, b in rules:
        scope = "rack" if a == b and a in rack_scoped else "machine"
        constraints.add_rule(AntiAffinityRule(a, b), scope=scope)
    return constraints


@settings(max_examples=30, deadline=None)
@given(RULE_PAIRS, DEPLOYMENTS, PROBE_APP)
def test_admission_vector_matches_forbidden_mask(rules, deployments, probe_app):
    """The per-machine Equation 7/8 form and the vectorised
    ``forbidden_mask`` fast path must agree on every machine."""
    state = make_state([AntiAffinityRule(a, b) for a, b in rules])
    for cid, (app, machine) in enumerate(deployments):
        if state.fits(np.array([1.0, 2.0]), machine):
            state.deploy(container(cid, app=app), machine, force=True)
    bf = BlacklistFunction(state)
    assert (
        bf.admission_vector(probe_app) == ~state.forbidden_mask(probe_app)
    ).all()


def forbidden_mask_per_partner(state, app_id):
    """``ClusterState.forbidden_mask`` as it was before the one-scatter
    rewrite — one fancy-index store per resident partner, over the
    ``frozenset`` copy of the conflict set — kept as the oracle."""
    mask = np.zeros(state.n_machines, dtype=bool)
    cs = state.constraints
    if cs.has_within(app_id):
        hosting = state.app_machines.get(app_id)
        if hosting:
            if cs.within_scope(app_id) == "rack":
                racks = np.unique(state.topology.rack_of[list(hosting)])
                mask[np.isin(state.topology.rack_of, racks)] = True
            else:
                mask[list(hosting)] = True
    for other in cs.conflicts_of(app_id):
        hosting = state.app_machines.get(other)
        if hosting:
            mask[list(hosting)] = True
    return mask


@settings(max_examples=60, deadline=None)
@given(
    RULE_PAIRS,
    st.sets(st.integers(0, 4)),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 7)), max_size=16
    ),
    st.lists(st.integers(0, 15), max_size=6),
)
def test_one_scatter_forbidden_mask_matches_per_partner_loop(
    rules, rack_scoped, deployments, evictions
):
    """Machine- and rack-scoped within-rules plus cross conflicts, on
    an eight-machine, two-rack cluster, after deployments *and*
    evictions (hosting dicts that emptied must drop out): the single
    scatter blacklists exactly the machines the per-partner loop did,
    for every application."""
    state = ClusterState(
        build_cluster(8, machines_per_rack=4),
        scoped_constraints(rules, rack_scoped),
    )
    for cid, (app, machine) in enumerate(deployments):
        state.deploy(container(cid, app=app), machine, force=True)
    for cid in evictions:
        if cid in state.assignment:
            state.evict(cid)
    for app in range(6):  # app 5 is named by no rule
        assert np.array_equal(
            state.forbidden_mask(app), forbidden_mask_per_partner(state, app)
        )
