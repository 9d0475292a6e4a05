"""The generator's conflict graph against its hash-set oracle.

:mod:`tests.trace.reference_generator` draws the graph with one ``set``
per application; the generator keeps sorted key arrays instead.  Both
must hand back the same flags, conflicts, frozen mask and CPU pins, and
leave the RNG in the same state, so every later draw of a trace build
is unmoved.  The build's memory is gated by its traced peak.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.trace import TraceConfig
from repro.trace import generator
from repro.trace.generator import generate_applications
from tests.trace import reference_generator


def drawn(assign, config: TraceConfig):
    """The anti-affinity layers of ``config``'s build, drawn by
    ``assign`` from the RNG the build hands them: (within flags,
    conflicts, frozen mask, CPUs, the RNG's state afterwards)."""
    rng = np.random.default_rng(config.seed)
    sizes = generator._sample_sizes(rng, config)
    cpus = rng.choice(config.cpu_values, size=config.n_apps, p=config.cpu_probs).astype(
        np.float64
    )
    priorities = generator._assign_priorities(rng, config, sizes, cpus)
    within, conflicts, frozen = assign(rng, config, sizes, priorities, cpus)
    return within, conflicts, frozen, cpus, rng.bit_generator.state


def assert_same(draw, ref) -> list[tuple[int, ...]]:
    """``draw`` by the generator equals ``ref`` by the oracle."""
    within, conflicts, frozen, cpus, state = draw
    np.testing.assert_array_equal(within, ref[0])
    assert conflicts == [tuple(sorted(s)) for s in ref[1]]
    np.testing.assert_array_equal(frozen, ref[2])
    np.testing.assert_array_equal(cpus, ref[3])
    assert state == ref[4]
    return conflicts


def assert_same_draw(config: TraceConfig) -> list[tuple[int, ...]]:
    return assert_same(
        drawn(generator._assign_anti_affinity, config),
        drawn(reference_generator._assign_anti_affinity, config),
    )


SWEEP = [
    (scale, seed)
    for scale in (0.002, 0.01, 0.05, 0.1)
    for seed in (0, 1, 2, 3)
] + [(0.5, 0), (0.5, 1)]


@pytest.mark.parametrize("scale,seed", SWEEP)
def test_the_keys_draw_what_the_hash_sets_draw(scale, seed):
    conflicts = assert_same_draw(TraceConfig(scale=scale, seed=seed))
    assert sum(map(len, conflicts)) > 0


@pytest.mark.parametrize(
    "overrides",
    [
        {"noisy_container_frac": 0.0},  # no noisy pool: no victims either
        {"victim_container_frac": 0.0},
        {"frac_priority": 0.0},  # no elevated apps: heavy by size
        {"frac_within_aa": 1.0},  # no packable partners for the heavy
        {"frac_anti_affinity": 0.01},  # a single constrained app
        {"frac_anti_affinity": 0.0},
        {"frac_heavy_conflictors": 0.0, "heavy_coverage_multiplier": 0.0},
    ],
    ids=lambda o: ",".join(o),
)
@pytest.mark.parametrize("scale", [0.002, 0.02])
def test_degenerate_configs_draw_what_the_hash_sets_draw(scale, overrides):
    assert_same_draw(TraceConfig(scale=scale, seed=1, **overrides))


def test_fewer_than_two_constrained_apps_draw_no_texture():
    config = TraceConfig(scale=0.01, seed=0, frac_anti_affinity=0.01)
    assert round(config.frac_anti_affinity * config.n_apps) == 1
    conflicts = assert_same_draw(config)
    # only the heavy conflictors' partners: the lone constrained app
    assert sum(map(len, conflicts)) <= 2 * max(3, round(0.01 * config.n_apps))


def test_past_46340_apps_the_keys_are_64_bit():
    # the Alibaba synthesiser draws over its data's application count,
    # where a key a * n + b can pass 2**31
    n = 50_000
    sizes = np.ones(n, dtype=np.int64)
    sizes[:500] = 2  # the noisy pool
    config = TraceConfig(scale=1.0, seed=0, victim_container_frac=0.002)
    draws = []
    for assign in (
        generator._assign_anti_affinity, reference_generator._assign_anti_affinity
    ):
        rng = np.random.default_rng(0)
        cpus = np.ones(n)
        within, conflicts, frozen = assign(
            rng, config, sizes, np.zeros(n, dtype=np.int64), cpus
        )
        draws.append((within, conflicts, frozen, cpus, rng.bit_generator.state))
    conflicts = assert_same(*draws)
    assert any(a * n + b >= 2**31 for a, row in enumerate(conflicts) for b in row)


def test_the_build_peaks_at_most_24_bytes_an_entry():
    # the retained tuples cost 8 B an entry; the sorted 32-bit keys
    # and their merge copy 8 B more at most.  One set per application
    # peaked at 57 B an entry on this trace.
    config = TraceConfig(scale=0.1, seed=0)
    generate_applications(config)  # settle first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        apps = generate_applications(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(len(a.conflicts) for a in apps)
    assert entries > 90_000
    assert peak <= 24 * entries
