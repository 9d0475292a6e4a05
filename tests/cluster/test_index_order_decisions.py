"""Placement decisions do not depend on how the constraint index was built.

The index stores its graph in one canonical form: applications ranked by
id, every row sorted.  One scenario's index built three ways — in bulk by
``from_applications``, one ``add_rule`` per entry, and one ``add_rule``
per entry in reverse — must come out as the same rows and drive both
engines to the same :func:`decision_projection`.
"""

import numpy as np
import pytest

from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.core import AladdinScheduler, FlowPathSearch
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
    "bulk": ConstraintSet.from_applications,
    "per-rule": per_rule_build,
    "reversed": reversed_build,
}


@pytest.fixture(scope="module")
def indexes():
    apps = build_scenario("mixed-lla", scale=0.05, ticks=TICKS).applications
    return {name: build(apps) for name, build in BUILDS.items()}


def test_the_builds_are_the_same_rows(indexes):
    images = [content_image(cs) for cs in indexes.values()]
    assert images[0][2] and all(image == images[0] for image in images)
    first, *rest = indexes.values()
    for cs in rest:
        assert list(cs.pos.items()) == list(first.pos.items())
        assert np.array_equal(cs._keys, first._keys)
        assert np.array_equal(cs._offsets, first._offsets)


#: the ``--engine`` names of the CLI -> the engine they build
ENGINES = {"batch": AladdinScheduler, "flow": FlowPathSearch}


@pytest.mark.parametrize("engine", list(ENGINES))
def test_decisions_do_not_depend_on_the_index_order(indexes, engine):
    projections = {}
    for name, cs in indexes.items():
        trace = build_scenario("mixed-lla", scale=0.05, ticks=TICKS)
        trace.constraints = cs
        result = OnlineSimulator(
            trace, OnlineConfig(scenario="mixed-lla", ticks=TICKS, seed=0)
        ).run(ENGINES[engine]())
        assert result.samples and sum(s.arrived_containers for s in result.samples)
        projections[name] = decision_projection(result.canonical_json())
    assert len(set(projections.values())) == 1
