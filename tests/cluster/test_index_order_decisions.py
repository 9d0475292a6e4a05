"""Placement decisions do not read the constraint index's iteration order.

Every reader of a conflict set is order-independent: ``forbidden_mask``
scatters it into a mask, the rescue kernel's blockers and
``would_violate`` test membership, ``block_plan``, ``_machine_offenders``
and the preemption screen use ``isdisjoint``, and the flow engine's
blacklist only tests membership on the set it builds.  So the index is
pinned by content (``content_image``), and this test holds the
decisions to that: one scenario's index built three ways — adopted by
``from_applications``, one ``add_rule`` per entry, and one ``add_rule``
per entry in reverse — must drive both engines to the same
:func:`decision_projection`.
"""

import pytest

from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.core import AladdinConfig, engine_for
from repro.sim.online import OnlineConfig, OnlineSimulator
from repro.trace.scenarios import build_scenario

from tests.cluster.test_constraints import content_image, per_rule_build
from tests.sim.test_canonical_pins import decision_projection

TICKS = 6


def reversed_build(apps) -> ConstraintSet:
    """One ``add_rule`` per entry, applications and peers in reverse."""
    cs = ConstraintSet()
    for app in reversed(apps):
        if app.anti_affinity_within:
            cs.add_rule(
                AntiAffinityRule(app.app_id, app.app_id),
                scope=app.anti_affinity_scope,
            )
        for other in sorted(app.conflicts, reverse=True):
            cs.add_rule(AntiAffinityRule(app.app_id, other))
    return cs


BUILDS = {
    "adopted": ConstraintSet.from_applications,
    "per-rule": per_rule_build,
    "reversed": reversed_build,
}


def order_image(cs: ConstraintSet):
    return [(a, list(peers)) for a, peers in cs._conflicts.items()]


@pytest.fixture(scope="module")
def indexes():
    apps = build_scenario("mixed-lla", scale=0.05, ticks=TICKS).applications
    return {name: build(apps) for name, build in BUILDS.items()}


def test_the_builds_differ_in_order_only(indexes):
    images = [content_image(cs) for cs in indexes.values()]
    assert images[0][2] and all(image == images[0] for image in images)
    orders = [order_image(cs) for cs in indexes.values()]
    assert len({repr(order) for order in orders}) == len(orders)


@pytest.mark.parametrize("engine", ["batch", "flow"])
def test_decisions_do_not_depend_on_the_index_order(indexes, engine):
    projections = {}
    for name, cs in indexes.items():
        trace = build_scenario("mixed-lla", scale=0.05, ticks=TICKS)
        trace.constraints = cs
        result = OnlineSimulator(
            trace, OnlineConfig(scenario="mixed-lla", ticks=TICKS, seed=0)
        ).run(engine_for(AladdinConfig(engine=engine)))
        assert result.samples and sum(s.arrived_containers for s in result.samples)
        projections[name] = decision_projection(result.canonical_json())
    assert len(set(projections.values())) == 1
