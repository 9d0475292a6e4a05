"""The trace build: content pinned, the cyclic collector paused once.

A trace build allocates hundreds of thousands of acyclic objects; the
collections the heap's growth would trigger re-walk all of them.  The
build runs with the collector off and settles with one full collection
on the outermost exit.  The content pins were recorded before the pause
and the LLA base's switch to :func:`generate_applications`, so neither
may change a trace.

The conflict graph, the largest structure of a trace, is held once and
compactly: each application's ``conflicts`` is a sorted tuple naming
every id through one shared int, and the constraint index keeps one
32-bit key an entry.  Both are gated by count and retained bytes
(:class:`TestStoredOnce`), not by timing.

A trace is a table of applications: a build derives only the constraint
index, and containers are built where they are read, per application.
Building a scenario and its serving state constructs no container
(:class:`TestContainersOnDemand`, a count gate), and every on-demand
view equals the flat list the build used to hold.
"""

import gc
import hashlib
import sys

import pytest

from repro.cluster.container import Application, containers_of
from repro.cluster.state import ClusterState
from repro.sim.online import OnlineConfig, pool_topology
from repro.trace import SCENARIOS, TraceConfig, build_scenario, generate_trace
from repro.trace import schema
from repro.trace.generator import generate_applications
from repro.trace.schema import Trace, collector_paused
from tests.cluster.test_constraints import content_image

#: (applications, containers, constraint index) digests per family at
#: scale 0.05, recorded before the collector pause landed.  The third
#: digest is of the index's sorted content (``content_image``), taken
#: at the commit before the index began adopting the applications'
#: conflict sets (e591788); it replaced a digest of the iteration order,
#: which no placement decision reads.
PINS = {
    "autoscale": ("667b70c16aaeb380", "266f9078a7a2d485", "053634d7875d4ece"),
    "burst": ("fd838b692c62b0dc", "cc139ac63f97e6c0", "c785aa4008351dfd"),
    "churn-storm": ("a0df8dc1b5e417de", "2e7fe34f40b5b2bc", "8adea5e2b875520e"),
    "diurnal": ("b50afe721839e14e", "5a243b371bc9164d", "c785aa4008351dfd"),
    "mixed-lla": ("df912f2869319f75", "bd3f0c728dc7d459", "e612ad53a7740835"),
}


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def content(trace: Trace) -> tuple[str, str, str]:
    apps = [
        (a.app_id, a.n_containers, a.cpu, a.mem_gb, a.priority,
         a.anti_affinity_within, a.anti_affinity_scope, sorted(a.conflicts),
         sorted(a.affinities), a.name)
        for a in trace.applications
    ]
    containers = [(c.container_id, c.app_id, c.instance) for c in trace.containers]
    return digest(apps), digest(containers), digest(content_image(trace.constraints))


class TestContentPins:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_applications_are_the_traces(self, seed):
        config = TraceConfig(scale=0.03, seed=seed)
        assert generate_applications(config) == generate_trace(config).applications

    def test_pins_cover_every_family(self):
        assert sorted(PINS) == sorted(SCENARIOS)

    @pytest.mark.parametrize("family", sorted(PINS))
    def test_scenario_content_is_pinned(self, family):
        assert content(build_scenario(family, scale=0.05)) == PINS[family]


def retained_bytes(objects) -> int:
    """``sys.getsizeof`` summed over ``objects`` and every object their
    dicts, lists, tuples and sets hold, each object counted once (a
    NumPy array that owns its data counts its buffer)."""
    seen, total, stack = set(), 0, list(objects)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += obj
    return total


class TestStoredOnce:
    """The conflict graph is held once, in compact rows: by count and
    by bytes, with no timing."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(scale=0.1, seed=0)

    def test_conflicts_hold_at_most_16_bytes_an_entry(self):
        # a sorted tuple of shared ints costs 8 B an entry and a row of
        # the index 4 B, before headers; a frozenset per application
        # costs 63 B an entry on this trace
        trace = build_scenario("mixed-lla", scale=0.1)
        entries = sum(len(a.conflicts) for a in trace.applications)
        assert entries > 20_000
        assert entries == 2 * sum(1 for _ in trace.constraints.conflicting_pairs())
        held = retained_bytes(
            [a.conflicts for a in trace.applications] + [vars(trace.constraints)]
        )
        assert held <= 16 * entries

    def test_the_conflict_sets_share_one_int_per_id(self, trace):
        entries = [b for a in trace.applications for b in a.conflicts]
        assert len(entries) > 50 * trace.n_apps
        # one object per id: drawn ids used to be a new int per entry
        assert len({id(b) for b in entries}) <= trace.n_apps
        assert all(
            a.conflicts == tuple(sorted(set(a.conflicts))) for a in trace.applications
        )


@pytest.fixture
def collections():
    """Every collection run while the test body runs, as (generation,
    objects collected), counted from a settled heap."""
    gc.collect()
    seen: list[tuple[int, int]] = []

    def record(phase, info):
        if phase == "stop":
            seen.append((info["generation"], info["collected"]))

    gc.callbacks.append(record)
    try:
        yield seen
    finally:
        gc.callbacks.remove(record)


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


class TestCollectorPause:
    def test_scenario_build_settles_with_one_full_collection(
        self, collector_on, collections
    ):
        # 316 / 28 / 2 collections by generation without the pause
        build_scenario("mixed-lla", scale=0.1, ticks=96, n_functions=400)
        # the build is acyclic: pausing the collector frees nothing late
        assert collections == [(2, 0)]
        assert gc.get_count()[0] < gc.get_threshold()[0]
        assert gc.isenabled()

    def test_nested_pause_settles_once(self, collector_on, collections):
        with collector_paused():
            trace = generate_trace(scale=0.02, seed=1)
            Trace(config=trace.config, applications=trace.applications)
            assert not gc.isenabled()
            assert collections == []
        assert gc.isenabled()
        assert [generation for generation, _ in collections] == [2]

    def test_a_failed_build_restores_the_collector(
        self, collector_on, collections, monkeypatch
    ):
        def boom(apps):
            raise RuntimeError("mid-build failure")

        # the constraint index is the bulk step a build still runs
        monkeypatch.setattr(
            schema.ConstraintSet, "from_applications", staticmethod(boom)
        )
        with pytest.raises(RuntimeError, match="mid-build"):
            generate_trace(scale=0.02, seed=0)
        assert gc.isenabled()
        assert [generation for generation, _ in collections] == [2]

    def test_a_failed_materialisation_restores_the_collector(
        self, collector_on, collections, monkeypatch
    ):
        trace = generate_trace(scale=0.02, seed=0)

        def boom(apps):
            raise RuntimeError("mid-materialisation failure")

        monkeypatch.setattr(schema, "containers_of", boom)
        with pytest.raises(RuntimeError, match="mid-materialisation"):
            trace.containers
        assert gc.isenabled()
        assert "containers" not in vars(trace)
        # the build settled once, the failed materialisation once
        assert [generation for generation, _ in collections] == [2, 2]
        monkeypatch.undo()
        assert trace.containers == containers_of(trace.applications)
        assert "containers" in vars(trace)

    def test_a_disabled_collector_stays_off(self, collections):
        was = gc.isenabled()
        gc.disable()
        try:
            generate_trace(scale=0.02, seed=0)
            assert not gc.isenabled()
            assert collections == []
        finally:
            if was:
                gc.enable()


def regrouped(trace: Trace) -> dict:
    """The grouping a trace gave while it held its flat container list:
    each container appended under its app id, in list order."""
    by_app: dict = {}
    for c in trace.containers:
        by_app.setdefault(c.app_id, []).append(c)
    return by_app


def scenario_or_generated(family: str) -> Trace:
    if family == "generated":
        return generate_trace(scale=0.05, seed=0)
    return build_scenario(family, scale=0.05)


class TestContainersOnDemand:
    """Containers are built where they are read: by count, with no timing."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Containers constructed through the trace, counted."""
        counts = [0]

        def counting(apps, start_id=0):
            out = containers_of(apps, start_id)
            counts[0] += len(out)
            return out

        monkeypatch.setattr(schema, "containers_of", counting)
        return counts

    @pytest.mark.parametrize("family", sorted(SCENARIOS) + ["generated"])
    def test_a_build_and_its_serving_state_construct_no_container(
        self, family, built
    ):
        trace = scenario_or_generated(family)
        state = ClusterState(pool_topology(trace, OnlineConfig()), trace.constraints)
        assert state.n_machines > 0
        assert trace.n_apps == len(trace.applications)
        n = trace.n_containers
        assert built == [0]
        assert "containers" not in vars(trace)
        # the counter is live: the arrival plans' grouping builds through it
        assert sum(map(len, trace.containers_by_app().values())) == n
        assert built == [n]

    @pytest.mark.parametrize("family", sorted(SCENARIOS) + ["generated"])
    def test_the_grouping_is_the_flat_list(self, family):
        trace = scenario_or_generated(family)
        by_app = trace.containers_by_app()
        assert [
            c for a in trace.applications for c in by_app[a.app_id]
        ] == trace.containers
        assert all(len(by_app[a.app_id]) == a.n_containers for a in trace.applications)
        assert trace.n_containers == len(trace.containers)
        assert list(by_app.items()) == list(regrouped(trace).items())

    def test_app_ids_out_of_list_order(self):
        apps = [
            Application(app_id=2, n_containers=3, cpu=2.0, mem_gb=4.0),
            Application(app_id=0, n_containers=1, cpu=1.0, mem_gb=2.0, priority=1),
            Application(app_id=1, n_containers=2, cpu=4.0, mem_gb=8.0),
        ]
        trace = Trace(config=TraceConfig(scale=0.01), applications=apps)
        by_app = trace.containers_by_app()
        assert list(by_app) == [2, 0, 1]
        assert [c.container_id for c in by_app[2]] == [0, 1, 2]
        assert [c.container_id for c in by_app[0]] == [3]
        assert [c.container_id for c in by_app[1]] == [4, 5]
        assert [c for a in apps for c in by_app[a.app_id]] == trace.containers
        assert trace.containers == containers_of(apps)
        assert list(by_app.items()) == list(regrouped(trace).items())
        assert trace.n_containers == 6

    def test_a_duplicate_app_id_merges_its_runs_in_list_order(self):
        apps = [
            Application(app_id=0, n_containers=2, cpu=1.0, mem_gb=2.0),
            Application(app_id=1, n_containers=1, cpu=2.0, mem_gb=4.0),
            Application(app_id=0, n_containers=2, cpu=4.0, mem_gb=8.0),
        ]
        trace = Trace(config=TraceConfig(scale=0.01), applications=apps)
        by_app = trace.containers_by_app()
        assert list(by_app.items()) == list(regrouped(trace).items())
        assert [c.container_id for c in by_app[0]] == [0, 1, 3, 4]
        assert [c.instance for c in by_app[0]] == [0, 1, 0, 1]
        assert trace.n_containers == len(trace.containers) == 5
