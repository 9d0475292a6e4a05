"""Online (churn) simulation tests."""

import pytest

from repro import (
    AladdinScheduler,
    GoKubeScheduler,
    generate_trace,
)
from repro.sim.online import OnlineConfig, OnlineSimulator
from repro.trace.arrival import ArrivalOrder
from tests.core.walk_oracle import walk_blocks


@pytest.fixture(scope="module")
def trace():
    return generate_trace(scale=0.02, seed=0)


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(ticks=0),
            dict(lifetime_ticks=(0, 10)),
            dict(lifetime_ticks=(20, 10)),
            dict(machine_pool_factor=0.5),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            OnlineConfig(**kw)


class TestLifecycle:
    def test_everything_arrives_and_departs(self, trace):
        sim = OnlineSimulator(trace, OnlineConfig(ticks=20))
        result = sim.run(AladdinScheduler())
        assert result.total_arrived == trace.n_containers
        assert result.total_departed == result.total_arrived - result.total_failed
        assert result.samples[-1].running_containers == 0

    def test_running_count_conserved_per_tick(self, trace):
        sim = OnlineSimulator(trace, OnlineConfig(ticks=15))
        result = sim.run(AladdinScheduler())
        running = 0
        for s in result.samples:
            running += s.arrived_containers - s.pending_failures
            running -= s.departed_containers
            assert s.running_containers == running

    def test_no_violations_throughout(self, trace):
        sim = OnlineSimulator(trace, OnlineConfig(ticks=25))
        result = sim.run(AladdinScheduler())
        assert all(s.violations == 0 for s in result.samples)

    def test_utilization_bounded(self, trace):
        sim = OnlineSimulator(trace, OnlineConfig(ticks=25))
        result = sim.run(AladdinScheduler())
        assert all(0.0 <= s.mean_utilization <= 1.0 for s in result.samples)

    def test_deterministic(self, trace):
        cfg = OnlineConfig(ticks=10, seed=3)
        a = OnlineSimulator(trace, cfg).run(AladdinScheduler())
        b = OnlineSimulator(trace, cfg).run(AladdinScheduler())
        assert [s.running_containers for s in a.samples] == [
            s.running_containers for s in b.samples
        ]

    def test_byte_identical_metrics_across_runs(self, trace):
        """Two runs with the same trace, scheduler and seed serialise to
        byte-identical metrics — including the telemetry counters (SPFA
        relaxations, IL/DL prunes, index resyncs, rescue accounting),
        which must therefore be free of wall-clock or iteration-order
        nondeterminism.  Wall times are excluded by design.  Every block
        takes the per-container walk over a cluster-wide admit mask."""
        cfg = OnlineConfig(ticks=12, seed=7)
        a = OnlineSimulator(trace, cfg).run(walk_blocks(AladdinScheduler()))
        b = OnlineSimulator(trace, cfg).run(walk_blocks(AladdinScheduler()))
        assert a.canonical_json() == b.canonical_json()
        assert a.canonical_json().encode() == b.canonical_json().encode()
        # The serialisation must actually cover the telemetry.
        assert '"telemetry"' in a.canonical_json()
        assert a.telemetry.counters() == b.telemetry.counters()

    def test_canonical_json_excludes_wall_times(self, trace):
        cfg = OnlineConfig(ticks=8, seed=1)
        result = OnlineSimulator(trace, cfg).run(AladdinScheduler())
        assert result.total_elapsed_s > 0.0
        assert "elapsed" not in result.canonical_json()
        assert "phase" not in result.canonical_json()

    def test_seed_changes_schedule(self, trace):
        a = OnlineSimulator(trace, OnlineConfig(ticks=10, seed=1)).run(
            AladdinScheduler()
        )
        b = OnlineSimulator(trace, OnlineConfig(ticks=10, seed=2)).run(
            AladdinScheduler()
        )
        assert [s.arrived_containers for s in a.samples] != [
            s.arrived_containers for s in b.samples
        ]


class TestChurnDynamics:
    def test_peak_below_pool(self, trace):
        sim = OnlineSimulator(trace, OnlineConfig(ticks=20))
        result = sim.run(AladdinScheduler())
        assert result.peak_used_machines <= sim._topology.n_machines

    def test_short_lifetimes_lower_peak(self, trace):
        """Faster churn -> fewer containers concurrently running."""
        long_cfg = OnlineConfig(ticks=20, lifetime_ticks=(100, 200))
        short_cfg = OnlineConfig(ticks=20, lifetime_ticks=(2, 4))
        long_run = OnlineSimulator(trace, long_cfg).run(AladdinScheduler())
        short_run = OnlineSimulator(trace, short_cfg).run(AladdinScheduler())
        peak_long = max(s.running_containers for s in long_run.samples)
        peak_short = max(s.running_containers for s in short_run.samples)
        assert peak_short < peak_long

    def test_arrival_order_is_respected(self, trace):
        sim = OnlineSimulator(
            trace, OnlineConfig(ticks=10, arrival_order=ArrivalOrder.CHP)
        )
        result = sim.run(AladdinScheduler())
        assert result.total_arrived == trace.n_containers

    def test_series_accessor(self, trace):
        sim = OnlineSimulator(trace, OnlineConfig(ticks=10))
        result = sim.run(AladdinScheduler())
        series = result.series("used_machines")
        assert len(series) == len(result.samples)
        assert all(isinstance(t, int) for t, _ in series)

    def test_go_kube_runs_online_too(self, trace):
        sim = OnlineSimulator(trace, OnlineConfig(ticks=15))
        result = sim.run(GoKubeScheduler())
        assert result.total_arrived == trace.n_containers
        assert result.failure_rate <= 0.2
