"""Unit tests for the anti-affinity constraint index."""

from types import SimpleNamespace

import pytest

from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Application

from tests.conftest import with_rack_scopes


class TestAntiAffinityRule:
    def test_within_detection(self):
        assert AntiAffinityRule(3, 3).within
        assert not AntiAffinityRule(3, 4).within

    def test_normalized_orders_pair(self):
        rule = AntiAffinityRule(7, 2).normalized()
        assert (rule.app_a, rule.app_b) == (2, 7)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            AntiAffinityRule(-1, 2)

    def test_rejects_bad_hardness(self):
        with pytest.raises(ValueError):
            AntiAffinityRule(1, 2, hardness=7)


class TestConstraintSet:
    def test_cross_rules_are_symmetric(self):
        cs = ConstraintSet([AntiAffinityRule(1, 2)])
        assert cs.violates(1, 2)
        assert cs.violates(2, 1)
        assert 2 in cs.conflicts_of(1)
        assert 1 in cs.conflicts_of(2)

    def test_within_rule(self):
        cs = ConstraintSet([AntiAffinityRule(4, 4)])
        assert cs.has_within(4)
        assert cs.violates(4, 4)
        assert not cs.violates(4, 5)

    def test_same_app_without_within_rule_ok(self):
        cs = ConstraintSet()
        assert not cs.violates(9, 9)

    def test_conflicting_pairs_canonical(self):
        cs = ConstraintSet([AntiAffinityRule(5, 1), AntiAffinityRule(1, 5)])
        assert cs.conflicting_pairs() == {(1, 5)}

    def test_len_counts_within_and_pairs(self):
        cs = ConstraintSet(
            [AntiAffinityRule(0, 0), AntiAffinityRule(1, 2), AntiAffinityRule(2, 3)]
        )
        assert len(cs) == 3

    def test_apps_with_anti_affinity(self):
        cs = ConstraintSet([AntiAffinityRule(0, 0), AntiAffinityRule(1, 2)])
        assert cs.apps_with_anti_affinity() == {0, 1, 2}

    def test_from_applications(self):
        apps = [
            Application(0, 2, 1.0, 2.0, anti_affinity_within=True),
            Application(1, 1, 1.0, 2.0, conflicts=frozenset({0})),
            Application(2, 1, 1.0, 2.0),
        ]
        cs = ConstraintSet.from_applications(apps)
        assert cs.has_within(0)
        assert cs.violates(0, 1)
        assert not cs.violates(2, 0)

    def test_conflicts_of_unknown_app_is_empty(self):
        assert ConstraintSet().conflicts_of(42) == frozenset()

    def test_conflict_view_is_the_live_set_not_a_copy(self):
        cs = ConstraintSet([AntiAffinityRule(1, 2)])
        assert cs.conflict_view(1) == {2}
        assert cs.conflict_view(1) is cs.conflict_view(1)
        assert cs.conflict_view(42) == frozenset()
        cs.add_rule(AntiAffinityRule(1, 3))
        assert cs.conflict_view(1) == {2, 3}

    def test_revision_moves_with_every_rule(self):
        cs = ConstraintSet()
        assert cs.revision == 0
        cs.add_rule(AntiAffinityRule(1, 2))
        cs.add_rule(AntiAffinityRule(3, 3), scope="rack")
        assert cs.revision == 2
        cs.add_affinity(5, 6)  # soft preferences are not rules
        assert cs.revision == 2
        built = ConstraintSet.from_applications(
            [Application(0, 1, 1.0, 2.0, conflicts=frozenset({1}))]
        )
        assert built.revision > 0


def per_rule_build(apps) -> ConstraintSet:
    """``from_applications`` as it was: one ``add_rule`` per entry."""
    cs = ConstraintSet()
    for app in apps:
        if app.anti_affinity_within:
            cs.add_rule(
                AntiAffinityRule(app.app_id, app.app_id),
                scope=getattr(app, "anti_affinity_scope", "machine"),
            )
        for other in app.conflicts:
            cs.add_rule(AntiAffinityRule(app.app_id, other))
        for other in getattr(app, "affinities", ()):
            cs.add_affinity(app.app_id, other)
    return cs


def ordered_image(cs: ConstraintSet):
    """Every container of the index with its iteration order exposed:
    placement decisions walk these sets, so equal-as-sets is not enough."""
    return (
        list(cs._within),
        list(cs._within_scope.items()),
        [(a, list(peers)) for a, peers in cs._conflicts.items()],
        [(a, list(peers)) for a, peers in cs._affinities.items()],
    )


class TestBulkBuild:
    @pytest.mark.parametrize("family", ["mixed-lla", "diurnal", "churn-storm"])
    def test_scenario_families_build_identically(self, family):
        from repro.trace.scenarios import build_scenario

        apps = build_scenario(family, scale=0.05, ticks=24).applications
        assert any(app.conflicts for app in apps)
        bulk = ConstraintSet.from_applications(apps)
        assert ordered_image(bulk) == ordered_image(per_rule_build(apps))

    def test_synthetic_trace_with_rack_scopes_builds_identically(self):
        from repro.trace import generate_trace

        apps = with_rack_scopes(
            generate_trace(scale=0.05, seed=3).applications
        )
        bulk = ConstraintSet.from_applications(apps)
        assert ordered_image(bulk) == ordered_image(per_rule_build(apps))
        assert "rack" in bulk._within_scope.values()

    def test_pairs_the_rule_class_reinterprets_or_rejects(self):
        # Application itself refuses these, so duck-typed records stand
        # in for a caller that builds its own.
        def app(app_id, conflicts, within=False, scope="machine"):
            return SimpleNamespace(
                app_id=app_id, conflicts=conflicts,
                anti_affinity_within=within, anti_affinity_scope=scope,
            )

        # naming itself is a within-rule at machine scope (and, as in
        # the per-rule path, overrides the declared rack scope)
        selfish = [app(0, (3, 0, 1), within=True, scope="rack"), app(3, (0,))]
        bulk = ConstraintSet.from_applications(selfish)
        assert ordered_image(bulk) == ordered_image(per_rule_build(selfish))
        assert bulk.within_scope(0) == "machine" and 0 not in bulk.conflict_view(0)
        for bad in ([app(2, (-1,))], [app(-2, (1,))], [app(-2, (-5,))]):
            with pytest.raises(ValueError, match="non-negative"):
                ConstraintSet.from_applications(bad)
        with pytest.raises(ValueError, match="scope"):
            ConstraintSet.from_applications([app(1, (), True, "zone")])
