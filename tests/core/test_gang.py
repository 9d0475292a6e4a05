"""Gang (all-or-nothing) application placement tests, on both engines."""

from repro.base import FailureReason
from repro.core import AladdinConfig, AladdinScheduler, FlowPathSearch

from tests.conftest import containers_for, make_apps, state_for


class TestGangSemantics:
    """Gang semantics of the vectorised engine; the flow engine runs the
    same cases below."""

    engine = AladdinScheduler

    def run(self, apps, n_machines=4, **cfg_kw):
        cfg = AladdinConfig(gang_scheduling=True, **cfg_kw)
        state = state_for(apps, n_machines=n_machines)
        return self.engine(cfg).schedule(containers_for(apps), state), state

    def test_full_fit_deploys_normally(self):
        apps = make_apps((3, 4.0, 0, True, ()))
        result, state = self.run(apps)
        assert result.n_deployed == 3
        assert result.n_undeployed == 0

    def test_partial_fit_rolls_back_whole_app(self):
        # Five within-AA replicas, four machines: without gangs four
        # deploy; with gangs the whole application must be absent.
        apps = make_apps((5, 1.0, 0, True, ()))
        result, state = self.run(apps, n_machines=4)
        assert result.n_deployed == 0
        assert result.n_undeployed == 5
        assert state.used_machines() == 0

    def test_rollback_reason_propagates(self):
        apps = make_apps((5, 1.0, 0, True, ()))
        result, _ = self.run(apps, n_machines=4)
        assert set(result.undeployed.values()) == {FailureReason.ANTI_AFFINITY}

    def test_other_apps_unaffected_by_rollback(self):
        apps = make_apps(
            (5, 1.0, 0, True, ()),  # cannot fully fit -> rolled back
            (2, 4.0, 0, False, ()),  # must still deploy
        )
        result, state = self.run(apps, n_machines=4)
        placed_apps = {
            state.container(cid).app_id for cid in state.assignment
        }
        assert placed_apps == {1}
        assert result.n_deployed == 2

    def test_rollback_frees_capacity_for_later_apps(self):
        # The gang app would consume the whole cluster before failing;
        # its rollback must leave room for the next application.
        apps = make_apps(
            (5, 32.0, 0, True, ()),  # needs 5 machines, only 4 exist
            (4, 32.0, 0, False, ()),  # exactly fills the cluster
        )
        result, state = self.run(apps, n_machines=4)
        assert result.n_deployed == 4
        assert all(
            state.container(cid).app_id == 1 for cid in state.assignment
        )

    def test_default_config_is_partial(self):
        apps = make_apps((5, 1.0, 0, True, ()))
        state = state_for(apps, n_machines=4)
        result = self.engine().schedule(containers_for(apps), state)
        assert result.n_deployed == 4  # the paper's partial behaviour

    def test_gang_with_final_repair_stays_atomic(self):
        apps = make_apps(
            (2, 32.0, 0, True, ()),
            (5, 1.0, 0, True, ()),
        )
        result, state = self.run(apps, n_machines=4, final_repair=True)
        # Whatever the repair manages, no application may be partial.
        by_app = {}
        for cid in result.placements:
            c = state.container(cid)
            by_app.setdefault(c.app_id, 0)
            by_app[c.app_id] += 1
        for app_id, count in by_app.items():
            assert count == apps[app_id].n_containers


class TestFlowGangSemantics(TestGangSemantics):
    """The flow engine retracts a partial application after its block,
    as the vectorised engine does, rather than leaving it to the final
    repair, which cannot retract a window's placements."""

    engine = FlowPathSearch
