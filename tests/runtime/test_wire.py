"""Codec property: the cached encoder/decoder is byte-for-byte the old one.

``encode_frame`` used to call ``json.dumps(payload, separators=(",", ":"))``
and ``read_frame`` ``json.loads(bytes)``; both now go through one bound
``JSONEncoder.encode`` / ``JSONDecoder.decode``.  For every protocol message
class (enum and tuple fields included) the frame bytes must not change and
must round-trip.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.messages as messages
from repro.exceptions import ProtocolError
from repro.runtime.wire import (
    _MESSAGE_TYPES,
    encode_frame,
    message_to_wire,
    read_frame,
    wire_to_message,
)


def message_strategy(cls):
    """Build instances of ``cls`` with every constructor field drawn from its type."""
    if dataclasses.is_dataclass(cls):
        hints = typing.get_type_hints(cls)
        hints = {field.name: hints[field.name] for field in dataclasses.fields(cls)}
    else:  # the hand-rolled ``__slots__`` hot-path classes
        hints = typing.get_type_hints(cls.__init__, vars(messages))
        hints.pop("return", None)
    return st.builds(cls, **{name: st.from_type(hint) for name, hint in hints.items()})


def decode(blob: bytes):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(scenario())


@pytest.mark.parametrize("name", sorted(_MESSAGE_TYPES))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_frame_bytes_unchanged_and_round_trip(name, data):
    message = data.draw(message_strategy(_MESSAGE_TYPES[name]))
    trace = data.draw(st.none() | st.text(max_size=16))
    payload = {
        "type": "proto", "from": 3, "s": data.draw(st.integers(0, 2**40)), "i": 0x5EEDCAFE,
        "m": message_to_wire(message, trace_id=trace),
    }
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    blob = encode_frame(payload)
    assert blob == struct.pack(">I", len(body)) + body
    decoded = decode(blob)
    assert decoded == json.loads(body)
    clone = wire_to_message(decoded["m"])
    assert type(clone) is type(message)
    assert message_to_wire(clone) == message_to_wire(message)


@pytest.mark.parametrize("body", [b"{not json", b"\xff\xfe{}", b"[1]", b"7"])
def test_malformed_bodies_are_protocol_errors(body):
    with pytest.raises(ProtocolError):
        decode(struct.pack(">I", len(body)) + body)
