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
place      ``containers``: 6-element container arrays, fields in
           :data:`_CONTAINER_FIELDS` order; optional ``departures``
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
import socket
import struct
import sys
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

#: a wire container is a JSON array of the tuple's fields, in their order
_CONTAINER_FIELDS = Container._fields
#: JSON types each position admits; never ``bool`` (JSON ``true``)
_INTEGER, _NUMBER = frozenset({int}), frozenset({int, float})
_FIELD_TYPES = (_INTEGER,) * 3 + (_NUMBER,) * 2 + (_INTEGER,)
_FLOAT_MAX = sys.float_info.max  # also refuses ints no float can hold


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
def container_to_wire(c: Container) -> list:
    """JSON-safe form of one container: the tuple as a list, its fields
    in declaration order, which is :data:`_CONTAINER_FIELDS`."""
    return list(c)


def container_from_wire(obj: Any) -> Container:
    """Parse one wire container, or raise :class:`ProtocolError`.

    Only a 6-element array in :data:`_CONTAINER_FIELDS` order is a
    container, and nothing is coerced: ``true`` is no id, and ``1.9`` is
    not truncated onto another container's id.

    Values are held to the rules :class:`~repro.cluster.container.Application`
    enforces — ids and ``priority`` non-negative, ``cpu`` and ``mem_gb``
    finite and positive — so a request that would fail inside the
    scheduler is refused here, before it can share a window.  The
    container is built positionally, since wire order is field order.
    """
    if type(obj) is not list or len(obj) != len(_CONTAINER_FIELDS):
        raise ProtocolError(
            f"container must be a {len(_CONTAINER_FIELDS)}-element array "
            f"[{', '.join(_CONTAINER_FIELDS)}], got {obj!r}"
        )
    container_id, app_id, instance, cpu, mem_gb, priority = obj
    # NaN fails both comparisons, as do zero, negatives and infinity
    if not (
        type(container_id) is type(app_id) is type(instance)
        is type(priority) is int
        and type(cpu) in _NUMBER and type(mem_gb) in _NUMBER
        and min(container_id, app_id, instance, priority) >= 0
        and 0.0 < cpu <= _FLOAT_MAX and 0.0 < mem_gb <= _FLOAT_MAX
    ):
        bad = [
            f for f, v, types in zip(_CONTAINER_FIELDS, obj, _FIELD_TYPES)
            if type(v) not in types
            or not (v >= 0 if types is _INTEGER else 0.0 < v <= _FLOAT_MAX)
        ]
        raise ProtocolError(
            f"bad container fields {bad}: ids and priority must be JSON "
            "integers >= 0, cpu and mem_gb finite JSON numbers > 0"
        )
    return Container(
        container_id, app_id, instance, float(cpu), float(mem_gb), priority
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
