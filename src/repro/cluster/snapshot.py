"""Versioned, checksummed, atomically written snapshot files.

Checkpoint/restore turns the simulated ticks of :mod:`repro.sim.online`
into a restartable service: a run killed at tick *k* resumes from its
last snapshot and finishes **bit-identical** to an uninterrupted run.
That guarantee rests on three properties this module provides and the
tests in ``tests/cluster/test_snapshot.py`` pin:

* **Integrity** — every snapshot carries a SHA-256 digest of its
  payload; a truncated, bit-flipped or foreign file raises
  :class:`SnapshotError` instead of deserialising garbage into a
  half-restored run.
* **Versioning** — a 4-byte magic plus a format version reject files
  written by an incompatible release up front.  This release writes
  format 2 and reads formats 1 and 2.  They differ only in how a
  :class:`~repro.cluster.container.Container` pickles: a frozen
  dataclass in format 1, a tuple in format 2.  A format-1 file is
  loaded with its containers mapped to a plain placeholder that keeps
  their fields in ``__dict__``;
  :meth:`~repro.cluster.state.ClusterState.from_payload`, the one
  reader of pickled containers, rebuilds each as a tuple.  A release
  that reads only format 1 refuses a format-2 file by its version.
* **Atomicity** — the payload is written to a temporary file in the
  target directory, fsynced, and renamed over the destination with
  :func:`os.replace`.  A crash mid-write leaves either the previous
  complete snapshot or none; never a partial file.

The payload itself is a pickle of plain dicts/arrays assembled by the
checkpointing callers (:meth:`~repro.cluster.state.ClusterState.save`,
``OnlineSimulator._write_checkpoint``); each caller tags its payload
with a ``kind`` string so a cluster-state snapshot cannot be fed to the
online-simulation restore path by mistake.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
import tempfile
from typing import Any

#: file magic — "ALaDdiN snapshot"
MAGIC = b"ALDN"
#: bump when the payload layout changes incompatibly
FORMAT_VERSION = 2
#: magic + format version + sha256 digest + payload length
_HEADER = struct.Struct("<4sI32sQ")


class SnapshotError(RuntimeError):
    """A snapshot file is missing, corrupted, or incompatible."""


class _Format1Container:
    """A container pickled by format 1, with its fields in ``__dict__``."""


class _Format1Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if (module, name) == ("repro.cluster.container", "Container"):
            return _Format1Container
        return super().find_class(module, name)


def write_snapshot(path: str, payload: Any, kind: str) -> None:
    """Atomically write ``payload`` (tagged ``kind``) to ``path``.

    The temporary file lives in the destination directory so the final
    :func:`os.replace` is a same-filesystem rename — atomic on POSIX.
    On any failure the temporary file is removed; the destination is
    never left partially written.
    """
    blob = pickle.dumps(
        {"kind": kind, "payload": payload}, protocol=pickle.HIGHEST_PROTOCOL
    )
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, hashlib.sha256(blob).digest(), len(blob)
    )
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".snapshot-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def read_snapshot(path: str, kind: str) -> Any:
    """Read, verify and return the payload of the snapshot at ``path``.

    Raises :class:`SnapshotError` when the file is unreadable,
    truncated, fails the checksum, was written by an incompatible
    format version, does not unpickle in this release (the original
    error is its ``__cause__``), or carries a different ``kind`` tag.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise SnapshotError(f"snapshot {path!r} is truncated (no header)")
    magic, version, digest, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SnapshotError(f"{path!r} is not an Aladdin snapshot")
    if version not in (1, FORMAT_VERSION):
        raise SnapshotError(
            f"snapshot {path!r} has format version {version}, "
            f"this release reads 1 and {FORMAT_VERSION}"
        )
    blob = data[_HEADER.size :]
    if len(blob) != length:
        raise SnapshotError(
            f"snapshot {path!r} is truncated "
            f"({len(blob)} of {length} payload bytes)"
        )
    if hashlib.sha256(blob).digest() != digest:
        raise SnapshotError(f"snapshot {path!r} failed its checksum")
    try:
        unpickler = _Format1Unpickler if version == 1 else pickle.Unpickler
        envelope = unpickler(io.BytesIO(blob)).load()
    except Exception as exc:
        raise SnapshotError(
            f"snapshot {path!r} (format version {version}) does not "
            f"load in this release: {exc!r}"
        ) from exc
    if envelope.get("kind") != kind:
        raise SnapshotError(
            f"snapshot {path!r} holds a {envelope.get('kind')!r} payload, "
            f"expected {kind!r}"
        )
    return envelope["payload"]
