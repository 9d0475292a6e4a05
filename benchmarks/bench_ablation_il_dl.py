"""Ablations for the design choices DESIGN.md §5 calls out.

* IL / DL on-off grid: search work and latency, identical placements
  (Fig. 5's two prunings);
* migration / preemption on-off: placement quality effect (Section
  III.B's two mechanisms);
* priority weighting: Equation-5 weights vs flat weights — the flat
  variant admits priority inversions;
* network aggregation: edge count of the layered T→A→G→R→N form vs the
  direct O(|T|·|N|) bipartite form (Section III.A).
"""

from bisect import bisect_left
from itertools import accumulate

import pytest

from repro import AladdinConfig, AladdinScheduler, Simulator
from repro.cluster.container import containers_of
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core.network_builder import (
    build_direct_network,
    build_layered_network,
)
from repro.report import format_table

from benchmarks.conftest import once

GRID = {
    "plain": AladdinConfig(enable_il=False, enable_dl=False),
    "+IL": AladdinConfig(enable_dl=False),
    "+DL": AladdinConfig(enable_il=False),
    "+IL+DL": AladdinConfig(),
}


@pytest.mark.parametrize("variant", list(GRID))
def test_ablation_il_dl_grid(benchmark, variant, pressured_sim, capsys):
    cfg = GRID[variant]

    result = once(
        benchmark, lambda: pressured_sim.run(AladdinScheduler(cfg))
    )
    benchmark.extra_info["explored"] = result.schedule.explored
    with capsys.disabled():
        print(
            f"\nablation[{variant:7s}] explored={result.schedule.explored:>12,} "
            f"violations={result.metrics.violation_pct:.2f}%"
        )
    # The prunings are pure optimisations: quality must be unchanged.
    assert result.metrics.violation_pct <= 0.5


def test_ablation_prunings_preserve_placements(pressured_sim, benchmark):
    """All four grid corners produce identical placements."""

    def run_grid():
        return {
            name: pressured_sim.run(AladdinScheduler(cfg)).schedule.placements
            for name, cfg in GRID.items()
        }

    placements = once(benchmark, run_grid)
    baseline = placements["+IL+DL"]
    for name, p in placements.items():
        assert p == baseline, name


def test_ablation_rescue_mechanisms(pressured_sim, benchmark, capsys):
    """Disabling migration+preemption degrades placement quality."""

    def run_pair():
        full = pressured_sim.run(AladdinScheduler()).metrics
        bare_cfg = AladdinConfig(
            enable_migration=False, enable_preemption=False, final_repair=False
        )
        bare = pressured_sim.run(AladdinScheduler(bare_cfg)).metrics
        return full, bare

    full, bare = once(benchmark, run_pair)
    with capsys.disabled():
        print(
            f"\nablation[rescue]: violations with mechanisms "
            f"{full.violation_pct:.2f}% vs without {bare.violation_pct:.2f}%"
        )
    assert full.violation_pct <= bare.violation_pct


def test_ablation_priority_weights(pressured_sim, benchmark, capsys):
    """Flat weights (base=1 on a uniform-demand view) lose the
    Equation-5 guarantee only when demands differ across classes; the
    derived weights never produce inversions."""
    from repro.core.weights import derive_priority_weights, verify_no_inversion

    trace = pressured_sim.trace

    def check():
        derived = derive_priority_weights(trace.applications, base=16)
        flat = {p: 1.0 for p in derived}
        return (
            verify_no_inversion(derived, trace.applications),
            verify_no_inversion(flat, trace.applications),
        )

    derived_ok, flat_ok = once(benchmark, check)
    with capsys.disabled():
        print(
            f"\nablation[weights]: Equation-5 weights inversion-free: "
            f"{derived_ok}; flat weights inversion-free: {flat_ok}"
        )
    assert derived_ok
    assert not flat_ok


def test_ablation_network_aggregation(benchmark, trace, capsys):
    """Section III.A: layered aggregation cuts the edge count by orders
    of magnitude versus the direct bipartite network."""
    topo = build_cluster(trace.config.n_machines)
    state = ClusterState(topo, trace.constraints)
    # the trace's first 2,000 containers, built from the leading
    # applications only
    ends = list(accumulate(a.n_containers for a in trace.applications))
    window = containers_of(trace.applications[: bisect_left(ends, 2000) + 1])[:2000]

    def build_both():
        layered = build_layered_network(window, state)
        direct = build_direct_network(window, state)
        return layered.n_edges(), direct.n_edges()

    layered_edges, direct_edges = once(benchmark, build_both)
    with capsys.disabled():
        print("\n" + format_table(
            ["network form", "edges"],
            [
                ["layered s->T->A->G->R->N->t", f"{layered_edges:,}"],
                ["direct O(|T|*|N|)", f"{direct_edges:,}"],
                ["reduction", f"{direct_edges / layered_edges:.0f}x"],
            ],
            title="ablation[aggregation] (Section III.A)",
        ))
    assert layered_edges * 10 < direct_edges
