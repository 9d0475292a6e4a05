"""CLI tests (driving ``repro.cli.main`` in-process)."""

import pytest

from repro.cli import main


SCALE = ["--scale", "0.01"]


class TestGenTraceAndStats:
    def test_gen_trace_writes_files(self, tmp_path, capsys):
        out = tmp_path / "trace"
        assert main(["gen-trace", str(out), "--scale", "0.01"]) == 0
        assert (tmp_path / "trace.apps.csv").exists()
        assert "applications" in capsys.readouterr().out

    def test_stats_prints_table(self, capsys):
        assert main(["stats", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "total applications" in out
        assert "anti-affinity" in out

    def test_stats_from_saved_trace(self, tmp_path, capsys):
        out = tmp_path / "t"
        main(["gen-trace", str(out), "--scale", "0.01"])
        assert main(["stats", "--load", str(out)]) == 0
        assert "total containers" in capsys.readouterr().out


class TestReplay:
    def test_replay_selected_schedulers(self, capsys):
        rc = main(["replay", *SCALE, "--schedulers", "Aladdin",
                   "--pool-factor", "1.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Aladdin(16)+IL+DL" in out

    def test_replay_unknown_scheduler(self, capsys):
        rc = main(["replay", *SCALE, "--schedulers", "NotAScheduler"])
        assert rc == 2
        assert "unknown schedulers" in capsys.readouterr().err

    def test_replay_order_choice_validated(self):
        with pytest.raises(SystemExit):
            main(["replay", *SCALE, "--order", "bogus"])


class TestMinCluster:
    def test_min_cluster_runs(self, capsys):
        rc = main(["min-cluster", *SCALE, "--schedulers", "Aladdin"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "machines used" in out


class TestOnline:
    def test_online_runs(self, capsys):
        rc = main(["online", *SCALE, "--ticks", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "running containers over time" in out
        assert "peak machines" in out

    def test_online_unknown_scheduler(self, capsys):
        rc = main(["online", *SCALE, "--scheduler", "nope"])
        assert rc == 2

    def test_online_flow_engine(self, tmp_path):
        """``--engine flow`` runs the flow-network engine; the snapshot
        fingerprint names the scheduler that ran."""
        from repro.cluster.snapshot import read_snapshot

        path = str(tmp_path / "flow.ckpt")
        rc = main(["online", *SCALE, "--ticks", "5", "--engine", "flow",
                   "--checkpoint", path, "--checkpoint-every", "2"])
        assert rc == 0
        fingerprint = read_snapshot(path, kind="online-sim")["fingerprint"]
        assert fingerprint["scheduler"].endswith("[flow]")

    def test_online_rejects_no_batch(self, capsys):
        with pytest.raises(SystemExit):
            main(["online", *SCALE, "--no-batch"])
        assert "--no-batch" in capsys.readouterr().err


class TestFaults:
    def test_faults_runs(self, capsys):
        rc = main(["faults", *SCALE, "--failures", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "displaced" in out
        assert "violations after recovery: 0" in out


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])
