"""Priority weight (Equations 3–5) tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.container import Application, Container
from repro.core.config import AladdinConfig
from repro.core.scheduler import _derive_weights_for
from repro.core.weights import (
    classify_by_priority,
    derive_priority_weights,
    verify_no_inversion,
    weighted_flow_value,
)


def app(i, cpu, prio):
    return Application(app_id=i, n_containers=1, cpu=cpu, mem_gb=cpu * 2, priority=prio)


class TestClassification:
    def test_partitions_by_priority(self):
        apps = [app(0, 1, 0), app(1, 2, 0), app(2, 4, 1)]
        classes = classify_by_priority(apps)
        assert sorted(classes) == [0, 1]
        assert len(classes[0]) == 2


class TestDerivation:
    def test_lowest_class_weight_is_one(self):
        weights = derive_priority_weights([app(0, 4, 0), app(1, 8, 2)])
        assert weights[0] == 1.0

    def test_base_floor_matches_paper_setting(self):
        """Paper: max demand 16 CPUs -> weights 16 with base 16."""
        apps = [app(0, 16, 0), app(1, 1, 1)]
        weights = derive_priority_weights(apps, base=16)
        assert weights[1] >= 16.0

    def test_ratio_exceeds_demand_ratio(self):
        # prev class max demand 16, next class min demand 1:
        # ratio must exceed 16 to prevent inversion.
        apps = [app(0, 16, 0), app(1, 1, 1)]
        weights = derive_priority_weights(apps, base=1)
        assert weights[1] * 1 > weights[0] * 16

    def test_chained_classes_monotone(self):
        apps = [app(i, 2**i, i) for i in range(4)]
        weights = derive_priority_weights(apps)
        values = [weights[i] for i in range(4)]
        assert values == sorted(values)
        assert verify_no_inversion(weights, apps)

    def test_empty_workload(self):
        assert derive_priority_weights([]) == {}

    def test_rejects_base_below_one(self):
        with pytest.raises(ValueError):
            derive_priority_weights([app(0, 1, 0)], base=0.5)

    def test_sparse_priority_levels(self):
        apps = [app(0, 4, 0), app(1, 4, 7)]
        weights = derive_priority_weights(apps)
        assert set(weights) == {0, 7}
        assert verify_no_inversion(weights, apps)


class TestWeightedFlow:
    def test_scales_flow(self):
        assert weighted_flow_value({0: 1.0, 1: 16.0}, 1, 4.0) == 64.0

    def test_unknown_class_rejected(self):
        with pytest.raises(KeyError, match="priority class 9"):
            weighted_flow_value({0: 1.0}, 9, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([1, 2, 4, 8, 16]), st.integers(0, 3)),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from([1.0, 16.0, 32.0, 64.0, 128.0]),
)
def test_no_inversion_for_any_workload_and_base(specs, base):
    """Equation 5's guarantee holds for every demand mix and any base,
    including the paper's 16/32/64/128 sweep."""
    apps = [app(i, cpu, prio) for i, (cpu, prio) in enumerate(specs)]
    weights = derive_priority_weights(apps, base=base)
    assert verify_no_inversion(weights, apps)


def head_applications(blocks):
    """One :class:`Application` per distinct (priority, cpu) block head,
    as the scheduler built them per round before deriving weights."""
    seen = {}
    for block in blocks:
        c = block[0]
        seen.setdefault((c.priority, c.cpu), Application(
            app_id=len(seen), n_containers=1, cpu=c.cpu, mem_gb=c.mem_gb,
            priority=c.priority,
        ))
    return list(seen.values())


def oracle_weights(apps, base):
    """Equations 3-5 as they were derived: classify, then the max and
    min of each adjacent pair of classes."""
    classes = classify_by_priority(apps)
    levels = sorted(classes)
    weights = {levels[0]: 1.0} if levels else {0: 1.0}
    for prev, cur in zip(levels, levels[1:]):
        prev_max = max(a.cpu for a in classes[prev])
        cur_min = min(a.cpu for a in classes[cur])
        ratio = max(base, math.ceil(prev_max / cur_min) + 1)
        weights[cur] = weights[prev] * ratio
    return weights


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0]),
            st.integers(0, 4),
            st.integers(1, 3),
        ),
        max_size=16,
    ),
    st.sampled_from([1.0, 16.0, 32.0, 64.0, 128.0]),
)
def test_round_weights_match_the_application_oracle(specs, base):
    """The scheduler's weights, read from block heads in one pass, are
    what the per-round Application objects gave, value for value, type
    for type and in key order."""
    blocks = [
        [Container(10 * a + i, a, i, cpu, 2 * cpu, prio) for i in range(n)]
        for a, (cpu, prio, n) in enumerate(specs)
    ]
    got = _derive_weights_for(blocks, AladdinConfig(), base=base)
    apps = head_applications(blocks)
    want = oracle_weights(apps, base)
    assert got == want == (derive_priority_weights(apps, base=base) or {0: 1.0})
    assert [type(w) for w in got.values()] == [type(w) for w in want.values()]
    assert list(got) == list(want)
