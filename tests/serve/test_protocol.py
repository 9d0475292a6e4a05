"""Wire-protocol unit tests: framing, marshalling, request validation.

The framing layer's contract is binary-simple — every byte sequence is
either one well-formed frame or a :class:`ProtocolError` — and the
serving fault-tolerance story leans on it: a client that dies mid-frame
must surface as a clean protocol error, never as a half-parsed request.
"""

from __future__ import annotations

import asyncio
import re
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.container import Container
from repro.serve.protocol import (
    CONTROL_TYPES,
    MAX_FRAME,
    WINDOW_TYPES,
    _CONTAINER_FIELDS,
    ProtocolError,
    container_from_wire,
    container_to_wire,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
    validate_request,
)


def read_bytes(data: bytes):
    """Feed ``data`` into an asyncio StreamReader and read one frame."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestFraming:
    def test_roundtrip(self):
        obj = {"type": "ping", "nested": {"a": [1, 2, 3]}}
        assert read_bytes(encode_frame(obj)) == obj

    def test_clean_eof_is_none(self):
        assert read_bytes(b"") is None

    def test_eof_inside_header(self):
        with pytest.raises(ProtocolError, match="header"):
            read_bytes(b"\x00\x00")

    def test_eof_inside_payload(self):
        frame = encode_frame({"type": "ping"})
        with pytest.raises(ProtocolError, match="bytes into a frame"):
            read_bytes(frame[:-1])

    def test_declared_length_over_cap(self):
        header = struct.pack(">I", MAX_FRAME + 1)
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            read_bytes(header)

    def test_encode_rejects_oversize_object(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            encode_frame({"blob": "x" * (MAX_FRAME + 16)})

    def test_payload_must_be_json(self):
        bad = b"\x00\x00\x00\x03}{!"
        with pytest.raises(ProtocolError, match="JSON"):
            read_bytes(bad)

    def test_payload_must_be_object(self):
        with pytest.raises(ProtocolError, match="object"):
            read_bytes(encode_frame([1, 2, 3]))

    def test_blocking_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "stats"})
            assert recv_frame(b) == {"type": "stats"}
            a.close()
            assert recv_frame(b) is None  # clean EOF
        finally:
            b.close()

    def test_blocking_eof_mid_frame(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"type": "ping"})
            a.sendall(frame[:-2])
            a.close()
            with pytest.raises(ProtocolError, match="bytes into a frame"):
                recv_frame(b)
        finally:
            b.close()


def _valid_wire() -> list:
    return container_to_wire(
        Container(container_id=1, app_id=1, instance=0,
                  cpu=1.0, mem_gb=1.0, priority=0)
    )


def _names_only(field: str) -> str:
    """``match=`` pattern for a refusal naming ``field`` and no other."""
    return re.escape(f"[{field!r}]")


#: wrongly typed JSON values per field; the strings, bools and
#: fractions are ones ``int()`` / ``float()`` used to coerce
_MISTYPED = {
    "container_id": [1.9, True, "7", None, [1]],
    "app_id": ["7", 7.0, False, None],
    "instance": [True, 0.5, "0", {}],
    "cpu": ["2", True, None, [2.0]],
    "mem_gb": ["8", False, None, {"gb": 8}],
    "priority": [1.0, True, "1", None],
}


class TestContainerWire:
    def test_roundtrip(self):
        c = Container(container_id=7, app_id=3, instance=1,
                      cpu=2.5, mem_gb=8.0, priority=2)
        assert container_to_wire(c) == [7, 3, 1, 2.5, 8.0, 2]
        assert container_from_wire(container_to_wire(c)) == c

    def test_missing_field(self):
        wire = _valid_wire()
        del wire[_CONTAINER_FIELDS.index("cpu")]
        with pytest.raises(ProtocolError, match="6-element array"):
            container_from_wire(wire)

    def test_non_object(self):
        # an object (the old wire form) and a 5- or 7-element list are
        # refused, with the array form and its field order in the error
        wire = _valid_wire()
        for bad in (dict(zip(_CONTAINER_FIELDS, wire)), wire[:5],
                    wire + [0], tuple(wire), "1,1,0,1.0,1.0,0", None):
            with pytest.raises(ProtocolError, match=re.escape(
                "6-element array [container_id, app_id, instance, cpu, "
                "mem_gb, priority]"
            )):
                container_from_wire(bad)

    def test_bad_field_type(self):
        wire = _valid_wire()
        wire[_CONTAINER_FIELDS.index("cpu")] = "lots"
        with pytest.raises(ProtocolError, match="bad container field"):
            container_from_wire(wire)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mem_gb", 0.0), ("cpu", -1.0), ("cpu", 0.0),
            ("cpu", float("nan")), ("mem_gb", float("inf")),
            ("container_id", -1), ("app_id", -3), ("instance", -1),
            ("priority", -1),
            ("cpu", 0), ("mem_gb", -2), ("mem_gb", float("nan")),
            ("mem_gb", float("-inf")),
            pytest.param("cpu", 10**400, id="cpu-int-past-float"),
            pytest.param("mem_gb", 10**400, id="mem_gb-int-past-float"),
        ],
    )
    def test_values_the_scheduler_would_refuse(self, field, value):
        # Application enforces the same rules; a container breaking them
        # used to pass the wire check and fail its whole window
        wire = _valid_wire()
        wire[_CONTAINER_FIELDS.index(field)] = value
        with pytest.raises(ProtocolError, match=_names_only(field)):
            container_from_wire(wire)

    def test_json_nan_from_the_wire_is_refused(self):
        # json emits and accepts the NaN / Infinity literals
        cpu = _CONTAINER_FIELDS.index("cpu")
        wire = _valid_wire()
        wire[cpu] = float("nan")
        frame = encode_frame({"type": "place", "containers": [wire]})
        assert b",NaN," in frame
        req = read_bytes(frame)
        assert req["containers"][0][cpu] != req["containers"][0][cpu]
        with pytest.raises(ProtocolError, match=_names_only("cpu")):
            validate_request(req)

    @pytest.mark.parametrize("field", _CONTAINER_FIELDS)
    def test_nothing_is_coerced(self, field):
        # int() / float() used to read 1.9 as id 1, true as 1, "2" as 2.0
        for value in _MISTYPED[field]:
            wire = _valid_wire()
            wire[_CONTAINER_FIELDS.index(field)] = value
            with pytest.raises(ProtocolError, match=_names_only(field)):
                container_from_wire(wire)

    def test_integral_demands_are_numbers(self):
        c = container_from_wire([4, 2, 1, 2, 8, 0])
        assert c == Container(4, 2, 1, 2.0, 8.0, 0)
        assert type(c.cpu) is float and type(c.mem_gb) is float

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(
            Container,
            container_id=st.integers(0, 2**63),
            app_id=st.integers(0, 2**31),
            instance=st.integers(0, 10**6),
            cpu=st.floats(min_value=0.0, exclude_min=True,
                          allow_infinity=False),
            mem_gb=st.floats(min_value=0.0, exclude_min=True,
                             allow_infinity=False),
            priority=st.integers(0, 10),
        )
    )
    def test_roundtrip_through_a_frame(self, c):
        frame = encode_frame(
            {"type": "place", "containers": [container_to_wire(c)]}
        )
        req = validate_request(read_bytes(frame))
        assert req["_containers"] == [c]

    def test_place_frame_bytes_per_container(self, serve_trace):
        # the six-key object form cost ~92 bytes a container; the
        # array form costs ~31 on the storm trace
        containers = serve_trace.containers[:1000]
        assert len(containers) == 1000
        frame = encode_frame({
            "type": "place",
            "containers": [container_to_wire(c) for c in containers],
            "departures": [],
        })
        assert len(frame) <= 40 * len(containers)


class TestValidateRequest:
    def test_type_tables_are_disjoint_and_complete(self):
        assert not (WINDOW_TYPES & CONTROL_TYPES)
        for rtype in ("place", "depart", "fault", "repair", "step"):
            assert rtype in WINDOW_TYPES
        for rtype in ("ping", "stats", "result", "decisions", "shutdown"):
            assert rtype in CONTROL_TYPES

    def test_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown request type"):
            validate_request({"type": "teleport"})

    def test_missing_type(self):
        with pytest.raises(ProtocolError, match="unknown request type"):
            validate_request({})

    def test_place_parses_containers(self):
        c = Container(container_id=5, app_id=2, instance=0,
                      cpu=1.0, mem_gb=2.0, priority=1)
        req = validate_request(
            {"type": "place", "containers": [container_to_wire(c)]}
        )
        assert req["_containers"] == [c]

    def test_place_rejects_non_list_containers(self):
        with pytest.raises(ProtocolError, match="must be a list"):
            validate_request({"type": "place", "containers": 3})

    def test_place_rejects_bad_departures(self):
        with pytest.raises(ProtocolError, match="departures"):
            validate_request(
                {"type": "place", "containers": [], "departures": ["x"]}
            )

    def test_depart_rejects_bools(self):
        # bool is an int subclass; the wire check must not admit it
        with pytest.raises(ProtocolError, match="list of integers"):
            validate_request({"type": "depart", "containers": [1, True]})

    @pytest.mark.parametrize("rtype", ["fault", "repair"])
    def test_fault_repair_require_machines(self, rtype):
        with pytest.raises(ProtocolError, match="non-empty"):
            validate_request({"type": rtype, "machines": []})
        with pytest.raises(ProtocolError, match="list of integers"):
            validate_request({"type": rtype, "machines": None})

    def test_decisions_requires_int_tick(self):
        with pytest.raises(ProtocolError, match="integer"):
            validate_request({"type": "decisions", "tick": "zero"})
        with pytest.raises(ProtocolError, match="integer"):
            validate_request({"type": "decisions", "tick": True})
        assert validate_request({"type": "decisions", "tick": 4})
