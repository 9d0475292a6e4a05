"""Snapshot envelope + ClusterState checkpoint/restore guarantees.

Pins the three properties the crash-resume machinery rests on:
integrity (checksum rejects corruption), atomicity (write-rename never
leaves a partial file), and the stale-watermark contract (a consumer
whose persisted version predates log compaction falls back to a full
resync, never to stale verdicts).
"""

import gzip
import hashlib
import os
import pathlib
import pickle

import numpy as np
import pytest

from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Container
from repro.cluster.snapshot import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.trace import generate_trace

#: committed format-1 images (see tests/sim/test_parent_checkpoints.py)
DATA = pathlib.Path(__file__).parent.parent / "sim" / "data"


def container(cid, app=0, cpu=4.0, prio=0):
    return Container(
        container_id=cid, app_id=app, instance=0, cpu=cpu, mem_gb=cpu * 2,
        priority=prio,
    )


@pytest.fixture
def topo():
    return build_cluster(6)


@pytest.fixture
def constraints():
    return ConstraintSet([AntiAffinityRule(0, 0), AntiAffinityRule(1, 2)])


def populated_state(topo, constraints, track_events=False):
    state = ClusterState(topo, constraints, track_events=track_events)
    state.deploy(container(0, app=0, cpu=4.0), 1)
    state.deploy(container(1, app=1, cpu=8.0), 2)
    state.deploy(container(2, app=3, cpu=2.0), 2)
    state.deploy(container(3, app=3, cpu=2.0), 4)
    state.migrate(3, 5)
    state.evict(2)
    state.touch(0)
    return state


def write_raw(path, blob, version):
    """A checksummed file of ``blob`` under a ``version`` header."""
    header = _HEADER.pack(
        MAGIC, version, hashlib.sha256(blob).digest(), len(blob)
    )
    with open(path, "wb") as fh:
        fh.write(header + blob)


# ----------------------------------------------------------------------
# envelope: round-trip, integrity, atomicity
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        payload = {"a": np.arange(4), "b": [1, 2, 3]}
        write_snapshot(path, payload, kind="test")
        back = read_snapshot(path, kind="test")
        assert back["b"] == [1, 2, 3]
        assert back["a"].tolist() == [0, 1, 2, 3]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot(str(tmp_path / "absent.bin"), kind="test")

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": 1}, kind="test")
        data = open(path, "rb").read()
        open(path, "wb").write(data[: _HEADER.size - 3])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path, kind="test")

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": list(range(100))}, kind="test")
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-7])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path, kind="test")

    def test_corrupted_payload_rejected(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": list(range(100))}, kind="test")
        data = bytearray(open(path, "rb").read())
        data[_HEADER.size + 10] ^= 0xFF  # flip one payload bit-pattern
        open(path, "wb").write(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(path, kind="test")

    def test_foreign_file_rejected(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        open(path, "wb").write(b"not a snapshot at all" * 10)
        with pytest.raises(SnapshotError, match="not an Aladdin snapshot"):
            read_snapshot(path, kind="test")

    def test_future_format_version_rejected(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_raw(path, pickle.dumps({"kind": "test", "payload": 1}), FORMAT_VERSION + 1)
        with pytest.raises(SnapshotError, match="format version"):
            read_snapshot(path, kind="test")

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": 1}, kind="cluster-state")
        with pytest.raises(SnapshotError, match="expected 'online-sim'"):
            read_snapshot(path, kind="online-sim")

    def test_write_is_atomic_no_partial_or_tmp_residue(self, tmp_path, monkeypatch):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"gen": 1}, kind="test")

        # Crash the rename step of the next write: the previous
        # complete snapshot must survive and no temp file may linger.
        def boom(src, dst):
            raise OSError("simulated crash mid-rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            write_snapshot(path, {"gen": 2}, kind="test")
        monkeypatch.undo()

        assert read_snapshot(path, kind="test") == {"gen": 1}
        assert os.listdir(tmp_path) == ["snap.bin"]


# ----------------------------------------------------------------------
# ClusterState round-trip
# ----------------------------------------------------------------------
class TestStateRoundTrip:
    def test_everything_survives(self, tmp_path, topo, constraints):
        state = populated_state(topo, constraints)
        path = str(tmp_path / "state.bin")
        state.save(path)
        back = ClusterState.restore(path, topo, constraints)

        assert back.assignment == state.assignment
        assert np.array_equal(back.available, state.available)
        assert np.array_equal(back.container_count, state.container_count)
        assert back.version == state.version
        assert (
            back.checkpoint_payload()["dirty_log"]
            == state.checkpoint_payload()["dirty_log"]
        )
        assert back._log_base == state._log_base
        assert back.app_machines == state.app_machines
        # resident enumeration order is part of the determinism contract
        assert {m: list(d) for m, d in back.machine_containers.items()} == {
            m: list(d) for m, d in state.machine_containers.items()
        }
        assert back.anti_affinity_violations() == state.anti_affinity_violations()

    def test_restored_state_keeps_mutating(self, tmp_path, topo, constraints):
        state = populated_state(topo, constraints)
        path = str(tmp_path / "state.bin")
        state.save(path)
        back = ClusterState.restore(path, topo, constraints)
        back.deploy(container(50, app=3), 0)
        state.deploy(container(50, app=3), 0)
        assert back.assignment == state.assignment
        assert back.version == state.version

    def test_fresh_uid_forces_foreign_consumers_to_reset(
        self, tmp_path, topo, constraints
    ):
        state = populated_state(topo, constraints)
        path = str(tmp_path / "state.bin")
        state.save(path)
        back = ClusterState.restore(path, topo, constraints)
        assert back.state_uid != state.state_uid

    def test_events_survive(self, tmp_path, topo, constraints):
        state = populated_state(topo, constraints, track_events=True)
        path = str(tmp_path / "state.bin")
        state.save(path)
        back = ClusterState.restore(path, topo, constraints)
        assert back.events == state.events

    def test_topology_mismatch_rejected(self, tmp_path, topo, constraints):
        state = populated_state(topo, constraints)
        path = str(tmp_path / "state.bin")
        state.save(path)
        with pytest.raises(SnapshotError, match="machines"):
            ClusterState.restore(path, build_cluster(3), constraints)


class Vanished:
    """Pickled, then renamed in the blob to a class no release has."""


def format1_image(tmp_path, name="lla"):
    """A committed format-1 online-sim snapshot, ungzipped."""
    path = tmp_path / f"{name}.ckpt"
    path.write_bytes(gzip.decompress((DATA / f"{name}.ckpt.gz").read_bytes()))
    return path


class TestFormats:
    """Format 2 is written, formats 1 and 2 are read, and a file that
    does not load in this release is a :class:`SnapshotError`."""

    def test_writes_format_2(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": 1}, kind="test")
        with open(path, "rb") as fh:
            assert _HEADER.unpack_from(fh.read())[1] == FORMAT_VERSION == 2

    def test_format_2_cluster_state_round_trips(self, tmp_path, topo, constraints):
        state = populated_state(topo, constraints)
        path = str(tmp_path / "state.bin")
        state.save(path)
        back = ClusterState.restore(path, topo, constraints)
        assert back._containers == state._containers
        assert all(type(c) is Container for c in back._containers.values())
        assert back.deployed_containers(1) == state.deployed_containers(1)

    def test_format_1_residents_are_containers(self, tmp_path):
        payload = read_snapshot(str(format1_image(tmp_path)), kind="online-sim")
        image = payload["state"]
        state = ClusterState.from_payload(image, build_cluster(image["n_machines"]))
        trace = {c.container_id: c for c in generate_trace(scale=0.03, seed=0).containers}
        residents = [state.container(cid) for cid in state.assignment]
        assert len(residents) == len(image["containers"]) > 0
        assert all(type(c) is Container for c in residents)
        assert all(c == trace[c.container_id] for c in residents)

    @pytest.mark.parametrize("version", [1, FORMAT_VERSION])
    def test_unknown_class_is_a_snapshot_error(self, tmp_path, version):
        blob = pickle.dumps({"kind": "test", "payload": Vanished()})
        path = str(tmp_path / "snap.bin")
        write_raw(path, blob.replace(b"Vanished", b"Vanishex"), version)
        with pytest.raises(SnapshotError, match=f"format version {version}") as err:
            read_snapshot(path, kind="test")
        assert path in str(err.value)
        assert isinstance(err.value.__cause__, AttributeError)

    def test_format_1_payload_under_format_2_header_is_a_snapshot_error(self, tmp_path):
        """A format-1 container does not construct as a tuple: the
        ``TypeError`` surfaces as a :class:`SnapshotError`."""
        data = format1_image(tmp_path).read_bytes()
        path = str(tmp_path / "relabelled.ckpt")
        write_raw(path, data[_HEADER.size :], FORMAT_VERSION)
        with pytest.raises(SnapshotError, match="does not load") as err:
            read_snapshot(path, kind="online-sim")
        assert isinstance(err.value.__cause__, TypeError)


class TestEnvelopeFuzz:
    """Seeded mutation fuzz over the snapshot envelope.

    Every corruption of a valid snapshot file — random byte flips,
    truncations, appended garbage — must surface as a loud
    :class:`SnapshotError`, never load silently wrong.  The three
    mutation classes cover the whole envelope surface: a flipped byte
    lands in the magic, version, digest, length or payload (each
    individually validated); a truncation breaks the header or the
    declared length; an append breaks the exact-length check.
    """

    PAYLOAD = {
        "numbers": list(range(128)),
        "array": np.arange(64, dtype=np.float64),
        "nested": {"a": {"b": [1.5, 2.5]}, "ids": {7: 3, 9: 1}},
    }

    @pytest.fixture()
    def snapshot_bytes(self, tmp_path):
        path = str(tmp_path / "valid.bin")
        write_snapshot(path, self.PAYLOAD, kind="fuzz")
        with open(path, "rb") as fh:
            return fh.read()

    @staticmethod
    def _must_reject(tmp_path, data):
        path = str(tmp_path / "mutated.bin")
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(SnapshotError):
            read_snapshot(path, kind="fuzz")
        # and the rejection must not depend on the expected kind
        with pytest.raises(SnapshotError):
            read_snapshot(path, kind="anything-else")

    def test_valid_snapshot_loads(self, snapshot_bytes, tmp_path):
        path = str(tmp_path / "copy.bin")
        with open(path, "wb") as fh:
            fh.write(snapshot_bytes)
        got = read_snapshot(path, kind="fuzz")
        assert got["numbers"] == self.PAYLOAD["numbers"]
        assert np.array_equal(got["array"], self.PAYLOAD["array"])

    def test_byte_flips_always_rejected(self, snapshot_bytes, tmp_path):
        """~100 random single-byte flips (XOR with a nonzero mask, so
        the file is guaranteed different) across the whole file."""
        rng = np.random.default_rng(0xA17ADD1)
        for i in range(100):
            pos = int(rng.integers(0, len(snapshot_bytes)))
            mask = int(rng.integers(1, 256))
            mutated = bytearray(snapshot_bytes)
            mutated[pos] ^= mask
            self._must_reject(tmp_path, bytes(mutated))

    def test_truncations_always_rejected(self, snapshot_bytes, tmp_path):
        """~50 random strict truncations, plus the empty file and the
        bare header."""
        rng = np.random.default_rng(0xA17ADD2)
        cuts = {0, _HEADER.size, len(snapshot_bytes) - 1}
        cuts.update(
            int(rng.integers(0, len(snapshot_bytes))) for _ in range(50)
        )
        for cut in sorted(cuts):
            self._must_reject(tmp_path, snapshot_bytes[:cut])

    def test_appends_always_rejected(self, snapshot_bytes, tmp_path):
        """~50 random non-empty suffixes appended to a valid file."""
        rng = np.random.default_rng(0xA17ADD3)
        for i in range(50):
            n = int(rng.integers(1, 64))
            junk = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
            self._must_reject(tmp_path, snapshot_bytes + junk)

    def test_combined_mutations_rejected(self, snapshot_bytes, tmp_path):
        """Flip + truncate + append stacked (seeded, 20 rounds) — the
        compound corruptions a real torn disk produces."""
        rng = np.random.default_rng(0xA17ADD4)
        for i in range(20):
            data = bytearray(snapshot_bytes)
            pos = int(rng.integers(0, len(data)))
            data[pos] ^= int(rng.integers(1, 256))
            data = data[: int(rng.integers(1, len(data)))]
            data += rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
            self._must_reject(tmp_path, bytes(data))
