"""Serving-loop behaviour: windows, control plane, checkpoint/restore.

These tests run the real asyncio server on a background thread
(:class:`~repro.serve.ServerThread`) and talk to it over a real unix
socket — the same stack the CLI's ``repro serve`` runs, minus the
subprocess boundary (the fault tests cover that).
"""

from __future__ import annotations

import gzip
import hashlib
import os
import pathlib
import socket
import threading
import tracemalloc

import pytest

from repro.cluster.snapshot import SnapshotError
from repro.core import AladdinScheduler
from repro.serve import (
    PlacementServer,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    send_frame,
)
from repro.serve.protocol import container_to_wire, encode_frame, recv_frame
from tests.serve.conftest import HookedScheduler

DATA = pathlib.Path(__file__).parent / "data"

#: tick -> sha256 of the ``decisions`` reply frame commit 4ec3275 sent
#: for the windows of ``data/serve-4ec3275.ckpt.gz`` (see the test)
PARENT_DECISION_FRAMES = {
    0: "15630568b040e029be4ca62f69ae11d8c5fb8cbf1682de2c6c15774b68e68229",
    1: "1de9228e4605311d5b988ca59adb5bec79cc61bc9b882bb1a65bea588c2c3c38",
    2: "0171fab5e23bd4fb1190898cf90a042c2c4c5c5fdba33970f2527bd849438c7a",
    3: "d440ef419595093fb470775bc4fb039e198148906c215cf4d7d31c9ea6a2878d",
}


class TestEventLoopWindows:
    def test_windows_run_on_the_loop_thread(self, make_server, sock_path,
                                            serve_trace):
        """Every round runs on the server's event-loop thread, and
        serving windows starts no helper thread (no executor)."""
        idents: list[int] = []
        server = make_server(scheduler=HookedScheduler(
            lambda: idents.append(threading.get_ident())
        ))
        before = {t.ident for t in threading.enumerate()}
        harness = ServerThread(server, sock_path)
        with harness:
            with ServeClient(sock_path) as client:
                for i in range(3):
                    client.place(serve_trace.containers[i * 2:(i + 1) * 2])
            started = [
                t.name for t in threading.enumerate()
                if t.ident not in before and t is not harness._thread
            ]
        assert idents == [harness._thread.ident] * 3
        assert started == []

    def test_replies_are_written_before_the_next_window(
        self, make_server, sock_path, serve_trace
    ):
        """Three pipelined ``place`` frames, one per window: window k's
        reply is written before window k+1's round starts."""
        written = [0]
        seen: list[int] = []
        server = make_server(
            ServeConfig(window_max=1),
            scheduler=HookedScheduler(lambda: seen.append(written[0])),
        )
        write = server._write

        async def counted_write(writer, obj):
            ok = await write(writer, obj)
            written[0] += 1
            return ok

        server._write = counted_write
        # one sendall: the handler admits all three frames before the
        # first window runs, so the queue is never empty between them
        frames = b"".join(
            encode_frame({"type": "place",
                          "containers": [container_to_wire(c)]})
            for c in serve_trace.containers[:3]
        )
        with ServerThread(server, sock_path):
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                raw.connect(sock_path)
                raw.sendall(frames)
                replies = [recv_frame(raw) for _ in range(3)]
            finally:
                raw.close()
        assert [r["tick"] for r in replies] == [0, 1, 2]
        assert seen == [0, 1, 2]


class TestWindows:
    def test_place_reports_own_containers_only(self, served, serve_trace):
        _server, client = served
        mine = serve_trace.containers[:6]
        reply = client.place(mine)
        assert reply["status"] == "ok" and reply["tick"] == 0
        decided = set(reply["placements"]) | set(reply["undeployed"])
        assert decided == {str(c.container_id) for c in mine}

    def test_ticks_count_windows(self, served, serve_trace):
        _server, client = served
        t0 = client.place(serve_trace.containers[:2])["tick"]
        t1 = client.place(serve_trace.containers[2:4])["tick"]
        t2 = client.step()["tick"]
        assert (t0, t1, t2) == (0, 1, 2)

    def test_depart_evicts(self, served, serve_trace):
        server, client = served
        batch = serve_trace.containers[:4]
        placed = client.place(batch)["placements"]
        victims = [int(cid) for cid in placed][:2]
        reply = client.depart(victims)
        assert reply["departed"] == len(victims)
        for cid in victims:
            assert cid not in server.state.assignment

    def test_depart_of_absent_id_is_counted_not_fatal(self, served):
        _server, client = served
        reply = client.depart([999_999])
        # the id was never assigned, so after the window it is (still)
        # gone — the reply reports it departed rather than erroring
        assert reply["status"] == "ok" and reply["departed"] == 1

    def test_departure_batching_under_a_served_window(
        self, served, serve_trace
    ):
        """One served window's departures commit as a single batched
        eviction: mixed present/absent/duplicate ids behave exactly
        like the simulator's tick loop, and the recorded sample counts
        only the containers actually evicted."""
        server, client = served
        batch = serve_trace.containers[:6]
        placed = client.place(batch)["placements"]
        victims = [int(cid) for cid in placed][:3]
        ghost = 999_999
        reply = client.depart(victims + [ghost, victims[0]])
        assert reply["status"] == "ok"
        for cid in victims:
            assert cid not in server.state.assignment
        sample = server.result.samples[-1]
        assert sample.departed_containers == len(victims)
        # The profiling layer covers served windows too — the same
        # shared apply_window timed the batched eviction.
        assert "window_departures" in sample.phase_s
        assert "window_record" in sample.phase_s

    def test_fault_displaces_and_replaces(self, served, serve_trace):
        server, client = served
        batch = serve_trace.containers[:8]
        placed = client.place(batch)["placements"]
        victim_machine = int(next(iter(placed.values())))
        expected = [
            int(cid) for cid, m in placed.items() if int(m) == victim_machine
        ]
        reply = client.fault([victim_machine])
        assert sorted(reply["displaced"]) == sorted(expected)
        # every displaced container got a same-window verdict
        decided = set(reply["placements"]) | set(reply["undeployed"])
        assert decided == {str(cid) for cid in expected}
        for cid, m in reply["placements"].items():
            assert int(m) != victim_machine
            assert server.state.assignment[int(cid)] == int(m)

    def test_repair_restores_capacity(self, served, serve_trace):
        import numpy as np

        server, client = served
        placed = client.place(serve_trace.containers[:4])["placements"]
        machine = int(next(iter(placed.values())))
        client.fault([machine])
        assert not server.state.available[machine].any()
        reply = client.repair([machine])
        assert reply["repaired"] == [machine]
        assert np.array_equal(
            server.state.available[machine],
            server.state.topology.capacity[machine],
        )

    def test_fault_displaced_departing_same_window_not_requeued(
        self, make_server, serve_trace
    ):
        """A displaced container the same window departs is dropped from
        the fault's requeue (window order: repairs → faults →
        departures → placements) — a departure racing the failure must
        not resurrect its container.  Applied directly through the
        window path so both requests land in one window
        deterministically."""
        from repro.serve.protocol import validate_request

        server = make_server(ServeConfig(window_max=8))
        batch = serve_trace.containers[:6]
        place = validate_request({
            "type": "place",
            "containers": [],
            "departures": [],
        })
        place["_containers"] = batch
        [(_, first)] = server._apply_window([(place, None)])
        placed = first["placements"]
        machine = int(next(iter(placed.values())))
        leaver = min(
            int(cid) for cid, m in placed.items() if int(m) == machine
        )
        window = [
            ({"type": "fault", "machines": [machine]}, None),
            ({"type": "depart", "containers": [leaver]}, None),
        ]
        replies = dict(
            (req["type"], reply)
            for (req, _), (_, reply) in zip(window, server._apply_window(window))
        )
        assert leaver in replies["fault"]["displaced"]
        # ...but it departed in the same window: no verdict, not running
        assert str(leaver) not in replies["fault"]["placements"]
        assert str(leaver) not in replies["fault"]["undeployed"]
        assert leaver not in server.state.assignment

    def test_fault_out_of_range_is_per_request_error(
        self, served, serve_trace
    ):
        """A fault naming an unknown machine must get its own error
        reply without aborting the window or desyncing the run: the
        server keeps committing windows afterwards."""
        server, client = served
        client.place(serve_trace.containers[:4])
        windows_before = server.windows
        with pytest.raises(ServeError, match="out of range"):
            client.fault([10**6])
        # the bad request still consumed a window boundary — decisions
        # stay exactly-once and the counter advanced
        assert server.windows == windows_before + 1
        # and the server keeps serving consistent windows
        reply = client.place(serve_trace.containers[4:6])
        assert reply["status"] == "ok"
        assert client.result() == server.result.canonical_json()

    def test_repair_of_hosting_machine_is_per_request_error(
        self, served, serve_trace
    ):
        server, client = served
        placed = client.place(serve_trace.containers[:4])["placements"]
        machine = int(next(iter(placed.values())))
        with pytest.raises(ServeError, match="host containers"):
            client.repair([machine])
        # the occupied machine was not touched
        assert server.state.available[machine].any()
        assert client.ping()

    def test_bad_request_does_not_abort_siblings_in_window(
        self, make_server, serve_trace
    ):
        """An invalid fault coalesced with a valid placement must not
        take the placement down with it — the valid request gets a
        decision, the invalid one its own error."""
        from repro.serve.protocol import validate_request

        server = make_server(ServeConfig(window_max=8))
        place = validate_request({
            "type": "place", "containers": [], "departures": [],
        })
        place["_containers"] = serve_trace.containers[:3]
        window = [
            ({"type": "fault", "machines": [10**6]}, None),
            (place, None),
        ]
        (_, bad), (_, good) = server._apply_window(window)
        assert bad["status"] == "error" and "out of range" in bad["error"]
        assert good["status"] == "ok"
        decided = set(good["placements"]) | set(good["undeployed"])
        assert decided == {str(c.container_id) for c in place["_containers"]}
        assert server.windows == 1

    def test_place_the_scheduler_would_refuse_gets_its_own_error(
        self, make_server, sock_path, serve_trace
    ):
        """A ``mem_gb: 0`` place pipelined between a depart and a valid
        place is answered with its own protocol error; the depart and
        the sibling place commit and are recorded.  (When the wire
        check let it through, the scheduler raised on it after the
        window had already evicted the departure, and every coalesced
        request was answered "window failed".)"""
        from repro.serve.protocol import (
            _CONTAINER_FIELDS,
            container_to_wire,
            recv_frame,
        )

        server = make_server(ServeConfig(window_max=8))
        first = serve_trace.containers[:4]
        sibling = serve_trace.containers[5:8]
        poison = container_to_wire(serve_trace.containers[4])
        poison[_CONTAINER_FIELDS.index("mem_gb")] = 0.0
        with ServerThread(server, sock_path):
            with ServeClient(sock_path) as client:
                placed = client.place(first)["placements"]
                victim = int(next(iter(placed)))
                windows_before = client.stats()["windows"]
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(30)
                sock.connect(sock_path)
                try:
                    for obj in (
                        {"type": "depart", "containers": [victim]},
                        {"type": "place", "containers": [poison]},
                        {"type": "place", "containers": [
                            container_to_wire(c) for c in sibling
                        ]},
                    ):
                        send_frame(sock, obj)
                    replies = [recv_frame(sock) for _ in range(3)]
                finally:
                    sock.close()
                stats = client.stats()
        errors = [r for r in replies if r["status"] == "error"]
        assert len(errors) == 1 and "['mem_gb']" in errors[0]["error"]
        oks = [r for r in replies if r["status"] == "ok"]
        assert len(oks) == 2
        [placed_reply] = [r for r in oks if "placements" in r]
        decided = set(placed_reply["placements"]) | set(
            placed_reply["undeployed"]
        )
        assert decided == {str(c.container_id) for c in sibling}
        [depart_reply] = [r for r in oks if "placements" not in r]
        assert depart_reply["departed"] == 1
        assert victim not in server.state.assignment
        assert str(serve_trace.containers[4].container_id) not in decided
        assert stats["totals"]["departed"] == 1
        assert stats["windows"] > windows_before
        assert sum(s.departed_containers for s in server.result.samples) == 1

    def test_fault_then_repair_coalesced_applies_repairs_first(
        self, make_server, serve_trace
    ):
        """Documented window order is repairs → faults as two passes:
        a window holding [fault m, repair m] applies the repair pass
        first, so the repair — naming a machine that is *not failed* at
        repair time — gets its own error reply, the fault still
        applies, and m ends failed no matter the arrival interleaving.

        A window holding [repair m, fault m] against an already-failed
        m is the bounce that works: repair first, then fault again.
        """
        from repro.serve.protocol import validate_request

        server = make_server(ServeConfig(window_max=8))
        place = validate_request({
            "type": "place", "containers": [], "departures": [],
        })
        place["_containers"] = serve_trace.containers[:4]
        [(_, first)] = server._apply_window([(place, None)])
        machine = int(next(iter(first["placements"].values())))
        # evict the machine's containers first so the repair is valid
        [(_, cleared)] = server._apply_window(
            [({"type": "fault", "machines": [machine]}, None)]
        )
        assert cleared["status"] == "ok"
        [(_, healed)] = server._apply_window(
            [({"type": "repair", "machines": [machine]}, None)]
        )
        assert healed["status"] == "ok"
        window = [
            ({"type": "fault", "machines": [machine]}, None),
            ({"type": "repair", "machines": [machine]}, None),
        ]
        (_, faulted), (_, rejected) = server._apply_window(window)
        assert faulted["status"] == "ok"
        assert rejected["status"] == "error"
        assert "not failed" in rejected["error"]
        # fault applied, the healthy-at-repair-time repair did not
        assert not server.state.available[machine].any()
        # the bounce: repair the failed machine and fault it again in
        # one window — repairs apply first, so both succeed
        bounce = [
            ({"type": "repair", "machines": [machine]}, None),
            ({"type": "fault", "machines": [machine]}, None),
        ]
        for _writer, reply in server._apply_window(bounce):
            assert reply["status"] == "ok"
        assert not server.state.available[machine].any()

    def test_step_reports_running(self, served, serve_trace):
        _server, client = served
        client.place(serve_trace.containers[:5])
        reply = client.step()
        assert reply["running"] == 5


class TestControlPlane:
    def test_ping(self, served):
        _server, client = served
        assert client.ping() is True

    def test_stats_counters(self, served, serve_trace):
        server, client = served
        client.place(serve_trace.containers[:3])
        client.step()
        stats = client.stats()
        assert stats["windows"] == 2
        assert stats["service"]["requests_admitted"] == 2
        assert stats["service"]["requests_rejected"] == 0
        assert stats["service"]["windows_committed"] == 2
        assert stats["totals"]["arrived"] == 3
        assert stats["scheduler"] == server.result.telemetry.counters()

    def test_result_matches_server_side(self, served, serve_trace):
        server, client = served
        client.place(serve_trace.containers[:3])
        assert client.result() == server.result.canonical_json()

    def test_decisions_log_and_eviction(self, make_server, sock_path,
                                        serve_trace):
        server = make_server(ServeConfig(decision_log=2))
        with ServerThread(server, sock_path):
            with ServeClient(sock_path) as client:
                for i in range(3):
                    client.place(serve_trace.containers[i * 2:(i + 1) * 2])
                # log keeps the newest 2 windows; window 0 is evicted
                assert client.decisions(2)["tick"] == 2
                assert client.decisions(1)["tick"] == 1
                with pytest.raises(ServeError, match="not in the decision log"):
                    client.decisions(0)

    def test_decisions_match_place_reply(self, served, serve_trace):
        server, client = served
        replies = [client.place(serve_trace.containers[:5])]
        # three machines left for 300 containers: most go undeployed
        client.fault(list(range(server.state.n_machines - 3)))
        replies.append(client.place(serve_trace.containers[5:305]))
        assert [bool(r["undeployed"]) for r in replies] == [False, True]
        for reply in replies:
            logged = client.decisions(reply["tick"])
            assert logged["placements"] == reply["placements"]
            assert logged["undeployed"] == reply["undeployed"]

    def test_decisions_keep_ids_past_int64(self, served, serve_trace):
        _server, client = served
        huge = serve_trace.containers[0]._replace(container_id=2**64 + 1)
        reply = client.place([huge])
        assert reply["placements"].keys() == {str(2**64 + 1)}
        assert client.decisions(0)["placements"] == reply["placements"]

    def test_decision_log_bytes_per_placement(self, make_server, serve_trace):
        """The log keeps a placement as two integers: <= 24 B each over
        committed windows (a ``{str(id): machine}`` dict holds ~80-113)."""
        server = make_server()
        log, held, logged = server._log_decisions, [0], [0]

        def measured(tick, *args):
            before = tracemalloc.get_traced_memory()[0]
            log(tick, *args)
            held[0] += tracemalloc.get_traced_memory()[0] - before
            logged[0] += len(server._decisions_reply(tick)["placements"])

        server._log_decisions = measured
        containers = serve_trace.containers
        tracemalloc.start()
        try:
            for i in range(0, len(containers), 250):
                batch = containers[i:i + 250]
                server._apply_window(
                    [({"type": "place", "_containers": batch}, None)]
                )
        finally:
            tracemalloc.stop()
        assert server.windows == len(server.decisions) >= 8
        assert logged[0] >= 0.9 * len(containers)
        assert held[0] <= 24 * logged[0]

    def test_invalid_request_raises_serve_error(self, served):
        _server, client = served
        with pytest.raises(ServeError, match="unknown request type"):
            client._checked({"type": "teleport"})
        assert client.ping()

    def test_broken_framing_hangs_up_but_server_survives(
        self, served, sock_path
    ):
        _server, client = served
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(sock_path)
        raw.sendall(b"\xff\xff\xff\xff")  # declares a 4 GiB frame
        # server answers one error frame, then closes this connection
        from repro.serve.protocol import recv_frame

        reply = recv_frame(raw)
        assert reply["status"] == "error"
        assert recv_frame(raw) is None
        raw.close()
        # ...without taking the serving loop down
        assert client.ping()

    def test_shutdown_stops_server(self, make_server, sock_path):
        server = make_server()
        thread = ServerThread(server, sock_path).start()
        with ServeClient(sock_path) as client:
            assert client.shutdown()["stopping"] is True
        thread._thread.join(timeout=30)
        assert not thread._thread.is_alive()


class TestCheckpointRestore:
    def test_roundtrip_preserves_run(self, make_server, sock_dir, sock_path,
                                     serve_trace, serve_topology):
        ckpt = os.path.join(sock_dir, "serve.ckpt")
        server = make_server(
            ServeConfig(checkpoint_every=1, checkpoint_path=ckpt)
        )
        with ServerThread(server, sock_path):
            with ServeClient(sock_path) as client:
                client.place(serve_trace.containers[:5])
                client.place(serve_trace.containers[5:8])
                live = client.result()
        restored = PlacementServer.restore(
            ckpt, AladdinScheduler(), serve_topology, serve_trace.constraints
        )
        assert restored.windows == 2
        assert restored.result.canonical_json() == live
        assert restored.state.assignment == server.state.assignment
        assert sorted(restored.decisions) == [0, 1]

    def test_restores_a_string_keyed_decision_log(
        self, tmp_path, serve_trace, serve_topology
    ):
        """``data/serve-4ec3275.ckpt.gz`` is a serve snapshot commit
        4ec3275 wrote, whose log held each window's placements and
        undeployed containers as ``{str(container_id): ...}`` dicts.  Its
        four windows: 6 containers placed; a fault of all but three
        machines that requeues them; 300 containers placed onto the three
        (75 placed, 225 undeployed); a departure of 3 plus 4 placed.
        Restored here, and again after re-writing it in the compact
        form, every window's ``decisions`` frame is byte for byte the one
        that commit sent."""
        path = tmp_path / "serve.ckpt"
        path.write_bytes(
            gzip.decompress((DATA / "serve-4ec3275.ckpt.gz").read_bytes())
        )
        for _ in range(2):
            restored = PlacementServer.restore(
                str(path), AladdinScheduler(), serve_topology,
                serve_trace.constraints,
            )
            frames = {
                tick: hashlib.sha256(
                    encode_frame(restored._decisions_reply(tick))
                ).hexdigest()
                for tick in restored.decisions
            }
            assert frames == PARENT_DECISION_FRAMES
            restored.write_checkpoint(str(path))

    def test_restored_server_keeps_serving(self, make_server, sock_dir,
                                           serve_trace, serve_topology):
        ckpt = os.path.join(sock_dir, "serve.ckpt")
        server = make_server(
            ServeConfig(checkpoint_every=1, checkpoint_path=ckpt)
        )
        with ServerThread(server, os.path.join(sock_dir, "a.sock")):
            with ServeClient(os.path.join(sock_dir, "a.sock")) as client:
                client.place(serve_trace.containers[:5])
        restored = PlacementServer.restore(
            ckpt, AladdinScheduler(), serve_topology, serve_trace.constraints
        )
        with ServerThread(restored, os.path.join(sock_dir, "b.sock")):
            with ServeClient(os.path.join(sock_dir, "b.sock")) as client:
                reply = client.place(serve_trace.containers[5:8])
                assert reply["tick"] == 1  # continues the window count
                assert reply["placements"]

    def test_fingerprint_mismatch_rejected(self, make_server, sock_dir,
                                           sock_path, serve_trace,
                                           serve_topology):
        from repro.core import FlowPathSearch

        ckpt = os.path.join(sock_dir, "serve.ckpt")
        server = make_server(
            ServeConfig(checkpoint_every=1, checkpoint_path=ckpt)
        )
        with ServerThread(server, sock_path):
            with ServeClient(sock_path) as client:
                client.place(serve_trace.containers[:3])
        with pytest.raises(SnapshotError, match="fingerprint"):
            PlacementServer.restore(
                ckpt, FlowPathSearch(), serve_topology, serve_trace.constraints
            )

    def test_wrong_kind_rejected(self, sock_dir, serve_trace, serve_topology):
        from repro.cluster.snapshot import write_snapshot

        path = os.path.join(sock_dir, "other.ckpt")
        write_snapshot(path, {"anything": 1}, kind="online-sim")
        with pytest.raises(SnapshotError, match="expected 'serve'"):
            PlacementServer.restore(
                path, AladdinScheduler(), serve_topology,
                serve_trace.constraints,
            )


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"max_queue": 0}, {"window_max": 0}, {"decision_log": 0}]
    )
    def test_bounds_validated(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_window_max_caps_coalescing(self, make_server, sock_path,
                                        serve_trace):
        server = make_server(ServeConfig(window_max=1))
        with ServerThread(server, sock_path):
            with ServeClient(sock_path) as client:
                for i in range(3):
                    client.place(serve_trace.containers[i:i + 1])
        assert server.telemetry.peak_window_size == 1
        assert server.telemetry.windows_committed == 3
