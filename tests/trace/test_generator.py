"""Trace generator calibration tests (the Fig. 8 statistics)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.trace import TraceConfig, generate_trace, workload_stats
from repro.trace.arrival import anti_affinity_degree


@pytest.fixture(scope="module")
def trace():
    return generate_trace(scale=0.05, seed=0)


@pytest.fixture(scope="module")
def stats(trace):
    return workload_stats(trace)


class TestHeadlineCounts:
    def test_app_count_scales(self, trace):
        assert trace.n_apps == round(13056 * 0.05)

    def test_container_total_pinned(self, trace):
        assert trace.n_containers == round(100_000 * 0.05)

    def test_anti_affinity_count(self, stats, trace):
        expected = round(9400 / 13056 * trace.n_apps)
        assert abs(stats.n_anti_affinity_apps - expected) <= 2

    def test_priority_count(self, stats, trace):
        expected = round(2088 / 13056 * trace.n_apps)
        assert abs(stats.n_priority_apps - expected) <= 2

    def test_single_instance_fraction(self, stats):
        assert 0.55 <= stats.frac_single_instance <= 0.70

    def test_most_apps_below_50_containers(self, stats):
        assert stats.frac_lt_50_containers >= 0.85

    def test_max_demand_caps(self, stats):
        assert stats.max_cpu_demand <= 16.0
        assert stats.max_mem_demand_gb <= 32.0

    def test_heavy_conflictors_present(self, trace, stats):
        """Several LLAs conflict with >= the scaled 5,000 containers."""
        target = trace.config.big_conflict_coverage
        heavy = [
            a
            for a in trace.applications
            if anti_affinity_degree(a, trace) >= target
        ]
        assert len(heavy) >= 3

    def test_giant_app_in_tail(self, stats, trace):
        """A few LLAs at the scaled equivalent of >2,000 containers."""
        assert stats.max_containers_per_app >= round(2000 * trace.config.scale)


class TestDeterminismAndScaling:
    def test_same_seed_same_trace(self):
        a = generate_trace(scale=0.02, seed=3)
        b = generate_trace(scale=0.02, seed=3)
        assert [x.n_containers for x in a.applications] == [
            x.n_containers for x in b.applications
        ]
        assert list(a.constraints.conflicting_pairs()) == list(
            b.constraints.conflicting_pairs()
        )

    def test_equal_traces_compare_equal(self):
        # the derived constraint index takes no part in the comparison
        assert generate_trace(scale=0.01) == generate_trace(scale=0.01)

    def test_traces_differing_in_one_application_compare_unequal(self):
        a, b = generate_trace(scale=0.01), generate_trace(scale=0.01)
        app = b.applications[3]
        b.applications[3] = replace(app, conflicts=(*app.conflicts, 10**6))
        assert a != b
        b.applications[3] = replace(app, priority=app.priority + 1)
        assert a != b
        b.applications[3] = app
        assert a == b

    def test_different_seed_different_trace(self):
        a = generate_trace(scale=0.02, seed=3)
        b = generate_trace(scale=0.02, seed=4)
        assert [x.n_containers for x in a.applications] != [
            x.n_containers for x in b.applications
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_demand_calibration_across_seeds(self, seed):
        """Total demand stays near the target share of the cluster."""
        tr = generate_trace(scale=0.05, seed=seed)
        total_cpu = sum(a.cpu * a.n_containers for a in tr.applications)
        cluster_cpu = tr.config.n_machines * 32
        assert 0.80 <= total_cpu / cluster_cpu <= 1.0

    def test_config_overrides(self):
        tr = generate_trace(scale=0.02, seed=0, frac_priority=0.5)
        stats = workload_stats(tr)
        assert stats.n_priority_apps == round(0.5 * tr.n_apps)

    def test_config_and_overrides_mutually_exclusive(self):
        with pytest.raises(TypeError):
            generate_trace(TraceConfig(), scale=0.5)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(scale=0.0),
            dict(scale=1.5),
            dict(frac_single=1.2),
            dict(cpu_probs=(1.0,)),
            dict(priority_classes=((1, 0.5),)),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            TraceConfig(**kw)

    def test_derived_quantities(self):
        cfg = TraceConfig(scale=0.1)
        assert cfg.n_apps == 1306
        assert cfg.target_containers == 10_000
        assert cfg.n_machines == 1000
        assert cfg.big_conflict_coverage == 500


class TestInterferenceStructure:
    def test_noisy_pool_mass(self, trace):
        noisy = [
            a
            for a in trace.applications
            if a.cpu == 1.0 and a.has_anti_affinity and not a.anti_affinity_within
            and a.n_containers >= 2
        ]
        mass = sum(a.n_containers for a in noisy) / trace.n_containers
        assert mass >= 0.25

    def test_victims_have_large_demands(self, trace):
        """Apps conflicting with much of the pool demand >= 8 CPUs."""
        victims = [
            a
            for a in trace.applications
            if len(a.conflicts) >= 20 and a.cpu >= 8.0
        ]
        assert victims, "expected large-demand victim apps"

    def test_conflicts_are_symmetric(self, trace):
        for a in trace.applications:
            for b in a.conflicts:
                assert a.app_id in trace.app(b).conflicts
