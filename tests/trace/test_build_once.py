"""The trace build: content pinned, the cyclic collector paused once.

A trace build allocates hundreds of thousands of acyclic objects; the
collections the heap's growth would trigger re-walk all of them.  The
build runs with the collector off and settles with one full collection
on the outermost exit.  The content pins were recorded before the pause
and the LLA base's switch to :func:`generate_applications`, so neither
may change a trace.

The conflict graph, the largest structure of a trace, is held once:
the constraint index adopts each application's ``conflicts`` frozenset,
and the generator names every id through one shared int.  Both are
gated by count (:class:`TestStoredOnce`), not by timing.
"""

import gc
import hashlib

import pytest

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


class TestStoredOnce:
    """The conflict graph is held once: by count, with no timing."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(scale=0.1, seed=0)

    def test_the_index_adopts_every_conflict_set(self, trace):
        constrained = [a for a in trace.applications if a.conflicts]
        assert len(constrained) > trace.n_apps // 2
        for a in constrained:
            assert trace.constraints.conflict_view(a.app_id) is a.conflicts

    def test_the_conflict_sets_share_one_int_per_id(self, trace):
        entries = [
            b
            for a in trace.applications
            for b in trace.constraints.conflict_view(a.app_id)
        ]
        assert len(entries) > 50 * trace.n_apps
        # one object per id: drawn ids used to be a new int per entry
        assert len({id(b) for b in entries}) <= trace.n_apps


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

        monkeypatch.setattr(schema, "containers_of", boom)
        with pytest.raises(RuntimeError, match="mid-build"):
            generate_trace(scale=0.02, seed=0)
        assert gc.isenabled()
        assert [generation for generation, _ in collections] == [2]

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
