"""Unit tests for the anti-affinity constraint index."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Application

from benchmarks.e2e.workloads import rescue_stream
from tests.cluster.reference_index import ReferenceIndex
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
        assert list(cs.conflicting_pairs()) == [(1, 5)]

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

    def test_later_rules_merge_on_the_next_query(self):
        cs = ConstraintSet([AntiAffinityRule(1, 2)])
        assert cs.partners(1) == [2] and cs.partners(42) == []
        cs.add_rule(AntiAffinityRule(3, 1))
        assert cs.partners(1) == [2, 3] and cs.partners(3) == [1]
        assert list(cs.pos) == [1, 2, 3]

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
    """``from_applications`` spelled out: one ``add_rule`` per entry,
    then the affinities once the conflict graph is complete."""
    cs = ConstraintSet()
    for app in apps:
        if app.anti_affinity_within:
            cs.add_rule(
                AntiAffinityRule(app.app_id, app.app_id),
                scope=getattr(app, "anti_affinity_scope", "machine"),
            )
        for other in app.conflicts:
            cs.add_rule(AntiAffinityRule(app.app_id, other))
    for app in apps:
        for other in getattr(app, "affinities", ()):
            cs.add_affinity(app.app_id, other)
    return cs


def content_image(cs: ConstraintSet):
    """Every container of the index as sorted content (the form the
    pins digest).  No reader depends on more than content: masks,
    membership tests and row look-ups."""
    return (
        sorted(cs._within_scope),
        sorted(cs._within_scope.items()),
        sorted((a, cs.partners(a)) for a in cs.pos),
        sorted((a, sorted(peers)) for a, peers in cs._affinities.items()),
    )


class TestBulkBuild:
    @pytest.mark.parametrize("family", ["mixed-lla", "diurnal", "churn-storm"])
    def test_scenario_families_build_identically(self, family):
        from repro.trace.scenarios import build_scenario

        apps = build_scenario(family, scale=0.05, ticks=24).applications
        assert any(app.conflicts for app in apps)
        bulk = ConstraintSet.from_applications(apps)
        assert content_image(bulk) == content_image(per_rule_build(apps))

    def test_synthetic_trace_with_rack_scopes_builds_identically(self):
        from repro.trace import generate_trace

        apps = with_rack_scopes(
            generate_trace(scale=0.05, seed=3).applications
        )
        bulk = ConstraintSet.from_applications(apps)
        assert content_image(bulk) == content_image(per_rule_build(apps))
        assert "rack" in bulk._within_scope.values()

    def test_pairs_the_rule_class_reinterprets_or_rejects(self):
        # Application itself refuses these, so duck-typed records stand
        # in for a caller that builds its own.
        def app(app_id, conflicts, within=False, scope="machine"):
            return SimpleNamespace(
                app_id=app_id, conflicts=conflicts,
                anti_affinity_within=within, anti_affinity_scope=scope,
            )

        # a record naming itself is refused, as Application refuses it
        with pytest.raises(ValueError, match="self-conflicts"):
            ConstraintSet.from_applications([app(0, (3, 0, 1), within=True)])
        for bad in ([app(2, (-1,))], [app(-2, (1,))], [app(-2, (-5,))]):
            with pytest.raises(ValueError, match="non-negative"):
                ConstraintSet.from_applications(bad)
        with pytest.raises(ValueError, match="scope"):
            ConstraintSet.from_applications([app(1, (), True, "zone")])


def app(app_id, conflicts=(), **fields) -> Application:
    return Application(app_id, 1, 1.0, 2.0, conflicts=conflicts, **fields)


def mirrored(apps) -> bool:
    """Whether every pair ``apps`` name is named from both sides."""
    pairs = {(a.app_id, b) for a in apps for b in a.conflicts}
    return all((b, a) in pairs for a, b in pairs)


def assert_symmetric(cs: ConstraintSet) -> None:
    for a in cs.apps_with_anti_affinity():
        for b in cs.partners(a):
            assert a in cs.partners(b), (a, b)


class TestAdoptedConflictSets:
    """``from_applications`` takes each application's ``conflicts`` as
    given and completes what the input lacks."""

    @pytest.mark.parametrize("affinity_first", [True, False])
    def test_an_anti_affine_pair_cannot_prefer_co_location(self, affinity_first):
        # the affinities are checked against the complete conflict
        # graph, so the order of the two applications does not matter
        fond, averse = app(0, affinities=frozenset({1})), app(1, {0})
        apps = [fond, averse] if affinity_first else [averse, fond]
        with pytest.raises(ValueError, match="anti-affine"):
            ConstraintSet.from_applications(apps)

    def test_one_sided_conflicts_are_completed(self):
        one_sided = app(1, {0})
        cs = ConstraintSet.from_applications([one_sided])
        assert cs.violates(0, 1) and cs.violates(1, 0)
        assert cs.has_conflicts(0) and cs.partners(0) == [1]
        assert cs.partners(1) == list(one_sided.conflicts) == [0]

    def test_completing_an_adopted_set_leaves_the_application_alone(self):
        first, second = app(0, {2}), app(1, {0})
        cs = ConstraintSet.from_applications([first, second])
        assert cs.partners(0) == [1, 2]
        assert first.conflicts == (2,)
        assert cs.violates(2, 0) and cs.violates(0, 1)

    def test_a_shared_id_unites_its_conflict_sets(self):
        first, second = app(0, {1}), app(0, {2})
        cs = ConstraintSet.from_applications([first, second])
        assert cs.partners(0) == [1, 2]
        assert cs.violates(1, 0) and cs.violates(2, 0)
        assert first.conflicts == (1,)
        assert second.conflicts == (2,)
        # and when every pair is mirrored, the united set is the index's
        both = [first, second, app(1, {0}), app(2, {0})]
        cs = ConstraintSet.from_applications(both)
        assert cs.partners(0) == [1, 2]
        assert_symmetric(cs)

    def test_ids_beyond_the_sort_keys_still_build(self):
        big = 1 << 40
        for apps in ([app(big, {1}), app(1, {big})], [app(big, {1})]):
            cs = ConstraintSet.from_applications(apps)
            assert cs.violates(1, big) and cs.violates(big, 1)
            assert_symmetric(cs)

    def test_a_negative_id_is_refused(self):
        for apps in ([app(2, {-1})], [app(0, {1}), app(1, {0, -3})]):
            with pytest.raises(ValueError, match="non-negative"):
                ConstraintSet.from_applications(apps)

    def test_a_record_naming_itself_is_refused(self):
        selfish = SimpleNamespace(
            app_id=0, conflicts=frozenset({0, 3}), anti_affinity_within=False
        )
        with pytest.raises(ValueError, match="self-conflicts"):
            ConstraintSet.from_applications([selfish])
        with pytest.raises(ValueError, match="self-conflicts"):
            app(0, {0, 3})

    def test_add_rule_merges_on_the_next_query(self):
        first, second = app(0, {1}), app(1, {0})
        cs = ConstraintSet.from_applications([first, second])
        revision = cs.revision
        cs.add_rule(AntiAffinityRule(0, 5))
        assert cs.revision == revision + 1
        assert cs._pending  # buffered until a query
        assert cs.partners(0) == [1, 5] and cs.partners(5) == [0]
        assert not cs._pending
        assert first.conflicts == (1,) and second.conflicts == (0,)
        assert_symmetric(cs)

    def test_a_generated_trace_is_symmetric(self):
        from repro.trace import generate_trace

        apps = generate_trace(scale=0.05, seed=3).applications
        assert mirrored(apps)
        cs = ConstraintSet.from_applications(apps)
        assert_symmetric(cs)
        assert content_image(cs) == content_image(per_rule_build(apps))

    def test_the_tight_rescue_stream_is_completed(self):
        apps = rescue_stream(0, 0, 120, 8).applications
        # the stream names only earlier applications: every pair is
        # one-sided in the input
        assert all(
            a.app_id not in apps[b].conflicts for a in apps for b in a.conflicts
        )
        assert not mirrored(apps)
        cs = ConstraintSet.from_applications(apps)
        assert_symmetric(cs)
        assert content_image(cs) == content_image(per_rule_build(apps))


@given(
    st.lists(
        st.tuples(
            st.integers(0, 7),
            st.frozensets(st.integers(0, 7), max_size=5),
            st.booleans(),
        ),
        max_size=8,
    )
)
def test_the_bulk_build_is_the_per_rule_build(records):
    # small ids on purpose: duplicates, one-sided and mirrored pairs
    apps = [
        app(a, peers - {a}, anti_affinity_within=within)
        for a, peers, within in records
    ]
    cs = ConstraintSet.from_applications(apps)
    assert content_image(cs) == content_image(per_rule_build(apps))
    assert_symmetric(cs)


#: small ids collide (duplicates, one-sided and mirrored pairs); the
#: large ones exceed 32 bits and are ranked, not stored, by the rows
IDS = st.sampled_from([0, 1, 2, 3, 5, 8, 13, 2**31 - 1, 2**31, 2**40])


def assert_same(cs: ConstraintSet, ref: ReferenceIndex, asked) -> None:
    """Every query of the index against the oracle."""
    assert content_image(cs) == ref.image()
    assert list(cs.conflicting_pairs()) == ref.pairs()
    assert len(cs) == len(ref.scope) + len(ref.pairs())
    assert cs.apps_with_anti_affinity() == ref.scope.keys() | ref.conflicts.keys()
    pos = cs.pos
    assert list(pos) == sorted(ref.conflicts)
    for a in asked:
        peers = ref.conflicts.get(a, set())
        assert cs.has_conflicts(a) == bool(peers)
        assert cs.partners(a) == sorted(peers)
        assert cs.conflicts_of(a) == peers
        for b in asked:
            assert cs.violates(a, b) == ref.violates(a, b)
    # the one mask switched between applications, back and forth
    for a in [*asked, *sorted(asked, reverse=True), 0]:
        mask = cs.blacklist(a)
        assert len(mask) == len(pos) + 1
        peers = ref.conflicts.get(a, set())
        assert bytes(mask) == bytes(b in peers for b in [*pos, None])
    for a in asked:
        for b in asked:
            assert cs.clashes(a, {b: 1}) == (a != b and ref.violates(a, b))
    # every constrained application of a group asked against the others,
    # in groups few and many enough for both ways of forming the pairs
    ids = list(pos)
    for copies in (1, 33):  # a handful of entries, then more than 16
        groups = [(g, pos[a]) for g in range(copies) for a in ids[g % 2 :]]
        hits = cs.clashing([g for g, _ in groups], [r for _, r in groups])
        assert hits == [
            any(ref.violates(ids[r], ids[q]) for h, q in groups if h == g and q != r)
            for g, r in groups
        ]


@given(
    st.lists(st.tuples(IDS, st.frozensets(IDS, max_size=4), st.booleans()), max_size=6),
    st.lists(
        st.one_of(
            st.tuples(st.just("rule"), IDS, IDS),
            st.tuples(st.just("affinity"), IDS, IDS),
            st.tuples(st.just("query"), IDS, IDS),
            st.tuples(st.just("blacklist"), IDS, IDS),
        ),
        max_size=8,
    ),
)
def test_the_rows_answer_what_the_hash_sets_answer(records, steps):
    apps = [
        app(a, peers - {a}, anti_affinity_within=within)
        for a, peers, within in records
    ]
    cs = ConstraintSet.from_applications(apps)
    ref = ReferenceIndex.from_applications(apps)
    asked = {a for a, _, _ in records} | {0, 2**31}
    assert_same(cs, ref, asked)
    for kind, a, b in steps:
        asked |= {a, b}
        if kind == "rule":
            cs.add_rule(AntiAffinityRule(a, b))
            ref.add_rule(min(a, b), max(a, b))
        elif kind == "affinity" and a != b:
            refused = ref.violates(a, b)
            if refused:
                with pytest.raises(ValueError, match="anti-affine"):
                    cs.add_affinity(a, b)
            else:
                cs.add_affinity(a, b)
                ref.add_affinity(a, b)
        elif kind == "blacklist":  # a mask left switched to ``a``
            cs.blacklist(a)
        assert_same(cs, ref, asked)
