"""End-to-end integration tests: whole-trace replays and the headline
comparative claims of the paper, at test scale."""

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
    generate_trace,
    relative_efficiency,
    run_experiment,
)
from tests.core.walk_oracle import walk_blocks


@pytest.fixture(scope="module")
def trace():
    # The default benchmark trace at a reduced scale.
    return generate_trace(scale=0.03, seed=0)


@pytest.fixture(scope="module")
def results(trace):
    sim = Simulator(trace)
    out = {}
    for sched in [
        AladdinScheduler(),
        GoKubeScheduler(),
        FirmamentScheduler(FirmamentPolicy.QUINCY, reschd=8),
        MedeaScheduler(MedeaWeights(1, 1, 0)),
    ]:
        out[sched.name] = sim.run(sched)
    return out


class TestHeadlineClaims:
    def test_aladdin_zero_violations(self, results):
        m = results["Aladdin(16)+IL+DL"].metrics
        assert m.violation_pct == 0.0

    def test_aladdin_best_or_tied_on_violations(self, results):
        aladdin = results["Aladdin(16)+IL+DL"].metrics.violation_pct
        for name, r in results.items():
            assert aladdin <= r.metrics.violation_pct + 1e-9, name

    def test_aladdin_uses_fewest_machines(self, results):
        eff = relative_efficiency([r.metrics for r in results.values()])
        assert eff["Aladdin(16)+IL+DL"] == 0.0

    def test_go_kube_worst_efficiency(self, results):
        """Go-Kube's spreading burns the most machines (Fig. 10)."""
        used = {n: r.metrics.used_machines for n, r in results.items()}
        assert used["Go-Kube"] == max(used.values())


class TestArrivalOrders:
    def test_aladdin_robust_across_orders(self, trace):
        """Fig. 10: Aladdin's machine count is stable for all four
        arrival characteristics."""
        sim = Simulator(trace, machine_pool_factor=1.5)
        used = []
        for order in (ArrivalOrder.CHP, ArrivalOrder.CLP, ArrivalOrder.CLA,
                      ArrivalOrder.CSA):
            r = sim.run(AladdinScheduler(), order)
            assert r.metrics.violation_pct <= 1.0
            used.append(r.metrics.used_machines)
        spread = (max(used) - min(used)) / max(used)
        assert spread <= 0.15

    def test_grid_experiment_runs(self, trace):
        results = run_experiment(
            trace,
            [AladdinScheduler(), GoKubeScheduler()],
            orders=[ArrivalOrder.CHP, ArrivalOrder.CSA],
            machine_pool_factor=1.5,
        )
        assert len(results) == 4


class TestLatencyShape:
    def test_il_dl_reduce_latency(self, trace):
        """Fig. 12: the prunings cut Aladdin's search work."""
        sim = Simulator(trace)
        base = sim.run(
            AladdinScheduler(AladdinConfig(enable_il=False, enable_dl=False))
        )
        pruned = sim.run(AladdinScheduler())
        assert pruned.schedule.explored < base.schedule.explored

    def test_overhead_grows_with_cluster(self, trace):
        """Fig. 13: the paper's +IL+DL per-container walk evaluates its
        admit mask over the whole cluster, so its work grows with it.
        The default batch kernel evaluates a window of the order sized
        from the block, so its work does not — up to a 10 % slack for
        windows that the smaller cluster's order cut short (5 % here)."""
        from repro.sim import latency_sweep

        n = trace.config.n_machines
        walk = latency_sweep(
            trace,
            lambda: walk_blocks(AladdinScheduler()),
            [n, 4 * n],
        )
        assert walk[1].schedule.explored > walk[0].schedule.explored
        windows = latency_sweep(trace, AladdinScheduler, [n, 4 * n])
        assert (
            windows[1].schedule.explored <= 1.1 * windows[0].schedule.explored
        )
