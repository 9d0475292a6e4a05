"""Fig. 12 — average placement latency vs cluster size.

Equation 11: total scheduling time divided by container count, swept
over growing machine counts for Go-Kube, Firmament-QUINCY, Medea,
Aladdin, Aladdin+IL and Aladdin+IL+DL.

Paper shape: Go-Kube and Medea grow with cluster scale (Go-Kube past
one second); Firmament-QUINCY stays low and flat; the three Aladdin
variants sit between, and IL+DL cuts plain Aladdin's latency by ~50 %.
Our absolute milliseconds are Python, not C++/Go — the *relative*
ordering and the IL/DL saving are the reproduced quantities; we report
the machines-examined counter next to wall time because it is the
hardware-independent form of the same measurement.
"""

import pytest

from repro import (
    AladdinConfig,
    AladdinScheduler,
    ArrivalOrder,
    FirmamentPolicy,
    FirmamentScheduler,
    GoKubeScheduler,
    MedeaScheduler,
    MedeaWeights,
    Simulator,
)
from repro.report import format_series

from benchmarks.conftest import once
from tests.core.walk_oracle import walk_blocks

POLICIES = {
    "Go-Kube": lambda: GoKubeScheduler(),
    "Firmament-QUINCY": lambda: FirmamentScheduler(FirmamentPolicy.QUINCY, reschd=8),
    "Medea": lambda: MedeaScheduler(MedeaWeights(1, 1, 0)),
    "Aladdin": lambda: AladdinScheduler(
        AladdinConfig(enable_il=False, enable_dl=False)
    ),
    "Aladdin+IL": lambda: AladdinScheduler(AladdinConfig(enable_dl=False)),
    # IL+DL on is the production engine, batch kernel included (the
    # kernel is the two prunings vectorised); the ablation below
    # measures the kernel against the per-container walk on its own.
    "Aladdin+IL+DL": lambda: AladdinScheduler(),
}


def cluster_sizes(trace):
    n = trace.config.n_machines
    return [n, 2 * n, 4 * n]


_latency: dict[str, list[tuple[int, float]]] = {}
_explored: dict[str, list[tuple[int, int]]] = {}


@pytest.mark.parametrize("policy", list(POLICIES))
def test_fig12_latency_curve(benchmark, policy, trace, capsys):
    factory = POLICIES[policy]

    def sweep():
        lat, exp = [], []
        for n in cluster_sizes(trace):
            result = Simulator(trace, n_machines=n).run(
                factory(), ArrivalOrder.TRACE
            )
            lat.append((n, result.metrics.latency_per_container_ms))
            exp.append((n, result.schedule.explored))
        return lat, exp

    lat, exp = once(benchmark, sweep)
    _latency[policy] = lat
    _explored[policy] = exp
    with capsys.disabled():
        print("\n" + format_series(
            f"Fig. 12 [{policy}]: avg placement latency", lat, unit=" ms/ctr"
        ))
    # Latency must not shrink as the cluster grows.
    assert exp[-1][1] >= exp[0][1]


def test_fig12_il_dl_halve_the_search(trace, benchmark, capsys):
    """The paper's claim: latency drops ~50 % with IL+DL vs plain."""

    def ratio():
        needed = ("Aladdin", "Aladdin+IL+DL", "Aladdin+IL")
        for name in needed:
            if name not in _explored:
                factory = POLICIES[name]
                n = cluster_sizes(trace)[-1]
                result = Simulator(trace, n_machines=n).run(factory())
                _explored[name] = [(n, result.schedule.explored)]
                _latency[name] = [
                    (n, result.metrics.latency_per_container_ms)
                ]
        plain = _explored["Aladdin"][-1][1]
        il = _explored["Aladdin+IL"][-1][1]
        pruned = _explored["Aladdin+IL+DL"][-1][1]
        return plain, il, pruned

    plain, il, pruned = once(benchmark, ratio)
    with capsys.disabled():
        print(
            f"\nFig. 12: machines examined — Aladdin {plain:,} -> +IL {il:,} "
            f"-> +IL+DL {pruned:,} ({pruned / plain:.0%} of plain; paper ~50%)"
        )
    assert pruned <= 0.6 * plain
    assert il <= plain
    assert pruned <= il


def test_fig12_batch_kernel_ablation(trace, benchmark, capsys):
    """Beyond Fig. 12: the batched placement kernel under churn.

    The repeated-round cost the online churn workload exposes, along
    the batched×loop axis: one engine places blocks through the
    vectorized kernel over windows of the incremental machine index,
    the other walks containers one by one over cluster-wide admit
    masks.  Identical placements (enforced by
    tests/test_differential.py); the acceptance bar is batched wall
    time ≤ 0.7x of the loop's at this scale.  The pool factor doubles
    the Fig. 12 sweep's largest size so the scan cost clears the
    bookkeeping noise floor.
    """
    from repro.sim import OnlineConfig, OnlineSimulator

    cfg = OnlineConfig(ticks=60, seed=0, machine_pool_factor=8.0)
    sim = OnlineSimulator(trace, cfg)

    def batched_run():
        return sim.run(AladdinScheduler())

    def loop_run():
        return sim.run(walk_blocks(AladdinScheduler()))

    def measure():
        # One discarded warm-up (page cache, frequency scaling), then
        # interleaved repetitions so slow drift hits both variants
        # equally; best-of-three damps the residual noise.
        loop_run()
        batched_runs, loop_runs = [], []
        for _ in range(3):
            loop_runs.append(loop_run())
            batched_runs.append(batched_run())
        return batched_runs, loop_runs

    batched_runs, loop_runs = once(benchmark, measure)
    batched, loop = batched_runs[0], loop_runs[0]
    batched_s = min(r.total_elapsed_s for r in batched_runs)
    loop_s = min(r.total_elapsed_s for r in loop_runs)
    tele = batched.telemetry
    with capsys.disabled():
        print(
            f"\nFig. 12+: churn scheduling wall time over {cfg.ticks} arrival "
            f"ticks ({sim._topology.n_machines} machines) — loop "
            f"{loop_s * 1000:.0f} ms -> batched {batched_s * 1000:.0f} ms "
            f"({batched_s / loop_s:.2f}x); kernel placed blocks "
            f"{tele.batch_kernel_invocations:,}, index resyncs "
            f"{tele.index_resyncs:,}, machines skipped "
            f"{tele.machines_skipped:,}"
        )
    # Identical outcomes, deterministic counters.
    assert [s.running_containers for s in batched.samples] == [
        s.running_containers for s in loop.samples
    ]
    assert batched.total_migrations == loop.total_migrations
    assert tele.batch_kernel_invocations > 0
    assert loop.telemetry.batch_kernel_invocations == 0
    # The acceptance bar: batched ≤ 0.7x the per-container loop.
    assert batched_s <= 0.7 * loop_s


def test_fig12_aladdin_outpaces_go_kube(trace, benchmark, capsys):
    """At every cluster size, Aladdin+IL+DL examines far fewer machines
    than Go-Kube: IL amortises the feasibility scan per *application*
    (Section III.A's |T| -> |A| reduction) while Go-Kube scores the
    whole cluster per *container*."""

    def series_for(policy):
        if policy not in _explored or len(_explored[policy]) < 2:
            factory = POLICIES[policy]
            _explored[policy] = []
            for n in cluster_sizes(trace):
                result = Simulator(trace, n_machines=n).run(factory())
                _explored[policy].append((n, result.schedule.explored))
        return _explored[policy]

    def compute():
        return series_for("Aladdin+IL+DL"), series_for("Go-Kube")

    aladdin, kube = once(benchmark, compute)
    with capsys.disabled():
        for (n, a), (_, k) in zip(aladdin, kube):
            print(
                f"\nFig. 12: machines examined at {n} machines — "
                f"Aladdin+IL+DL {a:,} vs Go-Kube {k:,} ({k / a:.1f}x)"
            )
    for (n, a), (_, k) in zip(aladdin, kube):
        assert a * 2 < k, f"at {n} machines"
