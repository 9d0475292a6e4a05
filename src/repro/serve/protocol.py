"""Length-prefixed JSON wire protocol of the placement service.

Every message — request or reply — is one *frame*: a 4-byte big-endian
unsigned payload length followed by that many bytes of UTF-8 JSON
encoding a single object.  Framing is deliberately dumb: it survives
partial reads (both ends read exactly the declared length), rejects
frames above :data:`MAX_FRAME` before allocating them, and turns every
malformed byte sequence into a :class:`ProtocolError` instead of a
half-parsed request.

Request objects carry a ``type`` key.  *Window* types
(:data:`WINDOW_TYPES`) are admitted into the server's bounded queue and
coalesced into scheduling windows; *control* types are answered inline
and never consume queue capacity:

========== ===============================================================
type       payload
========== ===============================================================
place      ``containers``: container objects; optional ``departures``
depart     ``containers``: container ids to evict
fault      ``machines``: machine ids to fail (displaced are requeued)
repair     ``machines``: machine ids to bring back
step       force an (otherwise empty) window boundary
ping       liveness probe (control)
stats      service + scheduler counters, queue depth (control)
result     the run's canonical JSON so far (control)
decisions  ``tick``: re-fetch a committed window's decisions (control)
shutdown   drain the queue, then stop serving (control)
========== ===============================================================

Replies carry ``status``: ``"ok"``, ``"rejected"`` (the 429-style
backpressure answer, with ``retry_after`` seconds) or ``"error"``.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from typing import Any

from repro.cluster.container import Container

#: hard frame-size ceiling (a 10k-machine window reply is ~1 MB)
MAX_FRAME = 32 << 20
_LEN = struct.Struct(">I")

#: request types that enter the bounded queue and form windows
WINDOW_TYPES = frozenset({"place", "depart", "fault", "repair", "step"})
#: request types answered inline, outside the admission queue
CONTROL_TYPES = frozenset(
    {"ping", "stats", "result", "decisions", "shutdown"}
)
REQUEST_TYPES = WINDOW_TYPES | CONTROL_TYPES

#: wire fields of a container object, in canonical order
_CONTAINER_FIELDS = (
    "container_id", "app_id", "instance", "cpu", "mem_gb", "priority",
)


class ProtocolError(ValueError):
    """A frame or request violates the wire protocol."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(obj: Any) -> bytes:
    """One wire frame holding ``obj`` as compact JSON."""
    data = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()
    if len(data) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _LEN.pack(len(data)) + data


def _decode_payload(data: bytes) -> dict:
    try:
        obj = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


async def read_frame(reader) -> dict | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    EOF in the *middle* of a frame — or a declared length above
    :data:`MAX_FRAME` — raises :class:`ProtocolError`.
    """
    import asyncio

    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed inside a frame header") from exc
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"declared frame length {length} exceeds MAX_FRAME")
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed {len(exc.partial)}/{length} bytes into a frame"
        ) from exc
    return _decode_payload(data)


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Blocking counterpart of :func:`read_frame`'s producer side."""
    sock.sendall(encode_frame(obj))


def recv_frame(sock: socket.socket) -> dict | None:
    """Blocking frame read; ``None`` on clean EOF, error mid-frame."""
    header = _recv_exact(sock, _LEN.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"declared frame length {length} exceeds MAX_FRAME")
    data = _recv_exact(sock, length, eof_ok=False)
    return _decode_payload(data)


def _recv_exact(sock: socket.socket, n: int, eof_ok: bool) -> bytes | None:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if eof_ok and got == 0:
                return None
            raise ProtocolError(
                f"connection closed {got}/{n} bytes into a frame"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# container marshalling
# ----------------------------------------------------------------------
def container_to_wire(c: Container) -> dict:
    """JSON-safe form of one container."""
    return {
        "container_id": c.container_id,
        "app_id": c.app_id,
        "instance": c.instance,
        "cpu": c.cpu,
        "mem_gb": c.mem_gb,
        "priority": c.priority,
    }


def container_from_wire(obj: Any) -> Container:
    """Parse one wire container, or raise :class:`ProtocolError`.

    Values are held to the rules :class:`~repro.cluster.container.Application`
    enforces — ids and ``priority`` non-negative, ``cpu`` and ``mem_gb``
    finite and positive — so a request that would fail inside the
    scheduler is refused here, before it can share a window.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"container must be an object, got {obj!r}")
    try:
        container_id = int(obj["container_id"])
        app_id = int(obj["app_id"])
        instance = int(obj["instance"])
        priority = int(obj["priority"])
        cpu = float(obj["cpu"])
        mem_gb = float(obj["mem_gb"])
    except KeyError:
        missing = [f for f in _CONTAINER_FIELDS if f not in obj]
        raise ProtocolError(f"container is missing fields {missing}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"bad container field: {exc}") from exc
    # NaN fails both comparisons, as do zero, negatives and infinity
    if min(container_id, app_id, instance, priority) < 0 or not (
        0.0 < cpu < math.inf and 0.0 < mem_gb < math.inf
    ):
        values = (container_id, app_id, instance, cpu, mem_gb, priority)
        bad = [
            f for f, v in zip(_CONTAINER_FIELDS, values)
            if (v < 0 if isinstance(v, int) else not 0.0 < v < math.inf)
        ]
        raise ProtocolError(
            f"container fields {bad} out of range: ids and priority must "
            "be >= 0, cpu and mem_gb finite and > 0"
        )
    return Container(
        container_id=container_id, app_id=app_id, instance=instance,
        cpu=cpu, mem_gb=mem_gb, priority=priority,
    )


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------
def _int_list(obj: Any, field: str, what: str) -> list[int]:
    value = obj.get(field)
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise ProtocolError(f"{what}: {field!r} must be a list of integers")
    return value


def validate_request(obj: dict) -> dict:
    """Check a decoded request frame against the protocol table.

    Returns ``obj`` (with containers parsed into ``_containers`` for
    ``place``) so the server never touches unvalidated fields; raises
    :class:`ProtocolError` with a client-presentable message otherwise.
    """
    rtype = obj.get("type")
    if rtype not in REQUEST_TYPES:
        raise ProtocolError(
            f"unknown request type {rtype!r} "
            f"(known: {', '.join(sorted(REQUEST_TYPES))})"
        )
    if rtype == "place":
        containers = obj.get("containers", [])
        if not isinstance(containers, list):
            raise ProtocolError("place: 'containers' must be a list")
        obj["_containers"] = [container_from_wire(c) for c in containers]
        if "departures" in obj:
            _int_list(obj, "departures", "place")
    elif rtype == "depart":
        _int_list(obj, "containers", "depart")
    elif rtype in ("fault", "repair"):
        machines = _int_list(obj, "machines", rtype)
        if not machines:
            raise ProtocolError(f"{rtype}: 'machines' must be non-empty")
    elif rtype == "decisions":
        tick = obj.get("tick")
        if not isinstance(tick, int) or isinstance(tick, bool):
            raise ProtocolError("decisions: 'tick' must be an integer")
    return obj
