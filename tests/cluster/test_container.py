"""Unit tests for Application and Container."""

import pickle
import sys

import pytest

from repro.cluster.container import Application, Container, containers_of


def app(i=0, n=3, cpu=4.0, **kw):
    return Application(app_id=i, n_containers=n, cpu=cpu, mem_gb=cpu * 2, **kw)


FIELDS = ("container_id", "app_id", "instance", "cpu", "mem_gb", "priority")


def fields(c):
    """A container's field values, read by name."""
    return tuple(getattr(c, f) for f in FIELDS)


def sample(**kw):
    base = dict(container_id=7, app_id=3, instance=1, cpu=2.0, mem_gb=4.0, priority=2)
    base.update(kw)
    return Container(**base)


class TestApplication:
    def test_demand_vector_default_order(self):
        assert app(cpu=4.0).demand_vector().tolist() == [4.0, 8.0]

    def test_demand_vector_custom_order(self):
        assert app(cpu=4.0).demand_vector(("mem_gb", "cpu")).tolist() == [8.0, 4.0]

    def test_has_anti_affinity_from_within(self):
        assert app(anti_affinity_within=True).has_anti_affinity

    def test_has_anti_affinity_from_conflicts(self):
        assert app(conflicts=frozenset({5})).has_anti_affinity

    def test_no_anti_affinity_by_default(self):
        assert not app().has_anti_affinity

    def test_rejects_self_in_conflicts(self):
        with pytest.raises(ValueError, match="anti_affinity_within"):
            app(i=3, conflicts=frozenset({3}))
        with pytest.raises(ValueError, match="anti_affinity_within"):
            app(i=3, conflicts=(1, 3, 9))

    @pytest.mark.parametrize(
        "given",
        [frozenset({9, 1, 4}), [4, 9, 1, 4], (9, 4, 1), (1, 4, 4, 9), iter((4, 1, 9))],
    )
    def test_conflicts_are_normalised_to_a_sorted_tuple(self, given):
        assert app(conflicts=given).conflicts == (1, 4, 9)

    def test_a_sorted_tuple_passes_through(self):
        ids = (1, 4, 9)
        assert app(conflicts=ids).conflicts is ids
        assert app().conflicts == ()

    def test_rejects_an_id_in_both_affinities_and_conflicts(self):
        with pytest.raises(ValueError, match=r"\[4\] appear in both"):
            app(conflicts=(1, 4), affinities=frozenset({4, 7}))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(app_id=-1),
            dict(n_containers=0),
            dict(cpu=0.0),
            dict(mem_gb=-1.0),
            dict(priority=-2),
        ],
    )
    def test_rejects_invalid_fields(self, kw):
        base = dict(app_id=0, n_containers=1, cpu=1.0, mem_gb=2.0, priority=0)
        base.update(kw)
        with pytest.raises(ValueError):
            Application(**base)


class TestContainersOf:
    def test_expands_all_instances(self):
        apps = [app(0, n=3), app(1, n=2)]
        cs = containers_of(apps)
        assert len(cs) == 5
        assert [c.app_id for c in cs] == [0, 0, 0, 1, 1]
        assert [c.instance for c in cs] == [0, 1, 2, 0, 1]

    def test_container_ids_are_dense_and_positional(self):
        cs = containers_of([app(0, n=2), app(1, n=2)], start_id=10)
        assert [c.container_id for c in cs] == [10, 11, 12, 13]

    def test_containers_inherit_app_demand_and_priority(self):
        cs = containers_of([app(0, n=2, cpu=8.0, priority=3)])
        for c in cs:
            assert (c.cpu, c.mem_gb, c.priority) == (8.0, 16.0, 3)

    def test_container_demand_vector(self):
        c = Container(container_id=0, app_id=0, instance=0, cpu=2.0, mem_gb=4.0)
        assert c.demand_vector(("cpu",)).tolist() == [2.0]

    def test_fields_equal_the_applications(self):
        apps = [app(0, n=3, cpu=2.0, priority=1), app(4, n=2, cpu=0.5)]
        cs = containers_of(apps, start_id=7)
        assert all(type(c) is Container for c in cs)
        runs = [(a, i) for a in apps for i in range(a.n_containers)]
        expected = [
            (7 + k, a.app_id, i, a.cpu, a.mem_gb, a.priority)
            for k, (a, i) in enumerate(runs)
        ]
        assert [fields(c) for c in cs] == expected


class TestContainerValue:
    """The value contract sets, dicts, snapshots and the wire rely on."""

    def test_hash_is_the_hash_of_the_field_tuple(self):
        c = sample()
        assert hash(c) == hash(fields(c)) == hash((7, 3, 1, 2.0, 4.0, 2))

    def test_equality_is_field_equality(self):
        assert sample() == sample()
        for name, value in zip(FIELDS, (8, 4, 2, 3.0, 5.0, 0)):
            assert sample() != sample(**{name: value})

    def test_keyword_and_positional_construction_agree(self):
        c = Container(container_id=0, app_id=1, instance=2, cpu=1.0, mem_gb=2.0)
        assert c.priority == 0
        assert c == Container(0, 1, 2, 1.0, 2.0) == Container(0, 1, 2, 1.0, 2.0, 0)
        assert fields(c) == (0, 1, 2, 1.0, 2.0, 0)

    def test_repr_names_every_field(self):
        assert repr(sample()) == (
            "Container(container_id=7, app_id=3, instance=1, cpu=2.0, "
            "mem_gb=4.0, priority=2)"
        )

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_cannot_be_assigned(self, name):
        c = sample()
        with pytest.raises(AttributeError):
            setattr(c, name, 1)
        assert c == sample()

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        c = sample()
        back = pickle.loads(pickle.dumps(c, protocol=protocol))
        assert type(back) is Container and back == c
        assert hash(back) == hash(c)

    def test_a_container_costs_only_its_tuple(self):
        """Memory count gate: no per-container ``__dict__``, and no byte
        beyond the six-field tuple."""
        (c,) = containers_of([app(0, n=1)])
        assert not hasattr(c, "__dict__")
        assert sys.getsizeof(c) == sys.getsizeof(tuple(c))
