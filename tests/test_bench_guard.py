"""The bench-report output-path guard (ISSUE 3 satellite fix).

``benchmarks/bench_report.py --smoke`` used to clobber the committed
full measurement in ``BENCH_fig12.json`` when run without ``--out``.
The guard routes smoke output to ``BENCH_fig12_smoke.json`` by default
and refuses an explicit ``--out BENCH_fig12.json`` unless forced.

Also guards the shape of the committed ``BENCH_trace.json`` artefact:
every variant row carries its per-phase wall breakdown.
"""

import json
from pathlib import Path

import pytest

from benchmarks.bench_report import host_info, resolve_out


def test_full_run_defaults_to_committed_path():
    assert resolve_out(None, smoke=False, force=False) == "BENCH_fig12.json"


def test_smoke_run_defaults_to_side_path():
    assert (
        resolve_out(None, smoke=True, force=False)
        == "BENCH_fig12_smoke.json"
    )


def test_smoke_refuses_committed_path():
    with pytest.raises(SystemExit, match="refusing to overwrite"):
        resolve_out("BENCH_fig12.json", smoke=True, force=False)
    # Any directory prefix still points at the committed artefact name.
    with pytest.raises(SystemExit, match="refusing to overwrite"):
        resolve_out("./BENCH_fig12.json", smoke=True, force=False)


def test_smoke_allows_explicit_other_path():
    # The CI smoke job writes to /tmp explicitly; that must keep working.
    out = resolve_out("/tmp/BENCH_fig12_smoke.json", smoke=True, force=False)
    assert out == "/tmp/BENCH_fig12_smoke.json"


def test_force_overrides_the_guard():
    out = resolve_out("BENCH_fig12.json", smoke=True, force=True)
    assert out == "BENCH_fig12.json"


def test_full_run_may_target_committed_path():
    out = resolve_out("BENCH_fig12.json", smoke=False, force=False)
    assert out == "BENCH_fig12.json"


def test_trace_mode_defaults():
    assert (
        resolve_out(None, smoke=False, force=False, mode="trace")
        == "BENCH_trace.json"
    )
    assert (
        resolve_out(None, smoke=True, force=False, mode="trace")
        == "BENCH_trace_smoke.json"
    )


def test_smoke_refuses_either_committed_artefact():
    # The guard is mode-independent: a restore smoke run must not
    # clobber the fig12 artefact and vice versa.
    for name in ("BENCH_restore.json", "BENCH_fig12.json"):
        for mode in ("fig12", "restore"):
            with pytest.raises(SystemExit, match="refusing to overwrite"):
                resolve_out(name, smoke=True, force=False, mode=mode)


class TestCommittedTraceArtifact:
    """The committed BENCH_trace.json: every variant row has its phase
    breakdown, and every scenario decided alike across its variants."""

    @pytest.fixture(scope="class")
    def report(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_trace.json"
        with path.open() as fh:
            return json.load(fh)

    def test_phase_breakdowns_present(self, report):
        # Satellite (a): every variant row carries the per-phase wall
        # breakdown, and the window phases are in it (scheduler phases
        # appear whenever any tick scheduled, which every scenario does).
        for name, scenario in report["scenarios"].items():
            for vname, row in scenario["variants"].items():
                phases = row["phase_time_s"]
                assert phases, f"{name}/{vname}: empty phase_time_s"
                for phase in ("window_departures", "window_sample",
                              "window_record", "search"):
                    assert phase in phases, f"{name}/{vname}: {phase}"
                assert all(dt >= 0 for dt in phases.values())

    def test_decisions_identical_everywhere(self, report):
        for name, scenario in report["scenarios"].items():
            assert scenario["decisions_identical"] is True, name


def test_power_mode_defaults():
    assert (
        resolve_out(None, smoke=False, force=False, mode="power")
        == "BENCH_power.json"
    )
    assert (
        resolve_out(None, smoke=True, force=False, mode="power")
        == "BENCH_power_smoke.json"
    )
    with pytest.raises(SystemExit, match="refusing to overwrite"):
        resolve_out("BENCH_power.json", smoke=True, force=False, mode="power")


class TestCommittedPowerArtifact:
    """The committed BENCH_power.json must tell the lifecycle story:
    autoscale powers down most of the cluster at no validity cost, and
    keep-alive pools beat cold-starting every function placement."""

    @pytest.fixture(scope="class")
    def report(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_power.json"
        with path.open() as fh:
            return json.load(fh)

    def test_cold_start_rate_recorded_everywhere(self, report):
        for name, scenario in report["scenarios"].items():
            for policy, row in scenario["policies"].items():
                assert "cold_start_rate" in row, f"{name}/{policy}"
                assert 0.0 <= row["cold_start_rate"] <= 1.0
            # The always-on baseline never cold-starts: the lifecycle
            # (and with it every cold-start charge) is off.
            assert scenario["policies"]["always-on"]["cold_start_rate"] == 0.0

    def test_decisions_identical_across_engine_variants(self, report):
        for name, scenario in report["scenarios"].items():
            assert scenario["decisions_identical"] is True, name

    def test_autoscale_beats_always_on(self, report):
        for name, scenario in report["scenarios"].items():
            rows = scenario["policies"]
            always = rows["always-on"]["machine_ticks"]
            for policy in ("fixed", "ttl", "lru", "none"):
                assert rows[policy]["machine_ticks"] < always, (
                    f"{name}/{policy}"
                )
                assert rows[policy]["failed"] <= rows["always-on"]["failed"]

    def test_keep_alive_beats_no_pool_on_diurnal(self, report):
        rows = report["scenarios"]["diurnal"]["policies"]
        assert rows["fixed"]["machine_ticks"] <= rows["none"]["machine_ticks"]
        assert (
            rows["fixed"]["cold_start_rate"] < rows["none"]["cold_start_rate"]
        )
        assert rows["fixed"]["warm_hits"] > 0
        assert rows["none"]["warm_hits"] == 0


def test_host_info_stamps_provenance():
    # Every committed BENCH_*.json header must say what it was measured
    # on: CPU budget, platform, interpreter and git revision.
    info = host_info()
    assert set(info) == {"cpu_count", "platform", "python", "git_rev"}
    assert isinstance(info["cpu_count"], int) and info["cpu_count"] >= 1
    assert info["platform"]
    # In a checkout the revision resolves; outside one it is None.
    assert info["git_rev"] is None or len(info["git_rev"]) >= 7
