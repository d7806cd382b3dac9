"""Wire format of the lock service: JSON frames with a length prefix.

Frames
------
A frame is a JSON object encoded as UTF-8, preceded by a 4-byte big-endian
length.  JSON keeps the protocol language-agnostic and debuggable
(``nc``/``socat`` + a hex dump is enough to watch a link); the length prefix
makes message boundaries explicit over TCP/UDS streams.  Frames are capped
at :data:`MAX_FRAME` — a peer announcing a larger frame is protocol-broken
and the connection is dropped rather than buffering unbounded input.

Protocol messages
-----------------
The sans-I/O :class:`~repro.core.messages.Message` classes cross the wire as
``{"m": <class name>, "f": {<field>: <value>}}``.  The codec introspects the
message module once at import time: dataclass messages enumerate their
fields, the two hand-rolled ``__slots__`` hot-path classes
(:class:`~repro.core.messages.RequestMessage`,
:class:`~repro.core.messages.TokenMessage`) enumerate their slots minus the
precomputed ``kind``.  Tuples become JSON arrays and are restored to tuples
on decode (no protocol message carries a real list); enum members are tagged
``{"__enum__": <type>, "v": <value>}``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import struct
from typing import Any

import repro.core.messages as _messages
from repro.core.messages import Message
from repro.exceptions import ProtocolError

__all__ = [
    "MAX_FRAME",
    "encode_frame",
    "read_frame",
    "message_to_wire",
    "wire_to_message",
    "wire_trace_id",
]

#: Hard cap on one frame's JSON payload (1 MiB — protocol frames are tiny;
#: the cap only exists to bound memory against a broken or hostile peer).
MAX_FRAME = 1 << 20

_LENGTH = struct.Struct(">I")

#: One encoder and one decoder for every frame.  ``json.dumps(...,
#: separators=...)`` builds a ``JSONEncoder`` per call and ``json.loads(bytes)``
#: re-detects the encoding per call; binding both once produces the same bytes
#: and the same objects for about a fifth less time per frame.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode
_decode_json = json.JSONDecoder().decode

#: Message-class registry, built once from the messages module.
_MESSAGE_TYPES: dict[str, type[Message]] = {
    name: obj
    for name, obj in vars(_messages).items()
    if isinstance(obj, type) and issubclass(obj, Message) and obj is not Message
}

#: Enum registry for tagged enum values (EnquiryStatus, AnswerKind, ...).
_ENUM_TYPES: dict[str, type[enum.Enum]] = {
    name: obj
    for name, obj in vars(_messages).items()
    if isinstance(obj, type) and issubclass(obj, enum.Enum)
}

#: Field lists of the hand-rolled ``__slots__`` messages (``kind`` is a
#: precomputed cache, not a constructor argument).
_SLOT_FIELDS: dict[type[Message], tuple[str, ...]] = {
    _messages.RequestMessage: ("requester", "source", "regenerated"),
    _messages.TokenMessage: ("lender", "regenerated", "loan_id"),
}


def _encode_value(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "v": value.value}
    if isinstance(value, tuple):
        return [_encode_value(item) for item in value]
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__enum__" in value:
        enum_type = _ENUM_TYPES.get(value["__enum__"])
        if enum_type is None:
            raise ProtocolError(f"unknown enum type on the wire: {value['__enum__']!r}")
        return enum_type(value["v"])
    if isinstance(value, list):
        return tuple(_decode_value(item) for item in value)
    return value


def message_to_wire(message: Message, trace_id: str | None = None) -> dict[str, Any]:
    """Encode a protocol :class:`Message` as a JSON-ready dict.

    ``trace_id`` (when set) rides along as a ``"tr"`` key — causal trace
    propagation across peer hops.  It is transport metadata, not a message
    field: :func:`wire_to_message` ignores it, so traced and untraced frames
    decode to identical messages.
    """
    cls = type(message)
    if dataclasses.is_dataclass(message):
        fields = {f.name: getattr(message, f.name) for f in dataclasses.fields(message)}
    else:
        names = _SLOT_FIELDS.get(cls)
        if names is None:
            raise ProtocolError(f"cannot serialise message type {cls.__name__}")
        fields = {name: getattr(message, name) for name in names}
    wire = {"m": cls.__name__, "f": {k: _encode_value(v) for k, v in fields.items()}}
    if trace_id is not None:
        wire["tr"] = trace_id
    return wire


def wire_trace_id(data: dict[str, Any]) -> str | None:
    """Extract the propagated trace id from a wire dict (``None`` if absent)."""
    trace_id = data.get("tr")
    return trace_id if isinstance(trace_id, str) else None


def wire_to_message(data: dict[str, Any]) -> Message:
    """Decode a dict produced by :func:`message_to_wire`."""
    cls = _MESSAGE_TYPES.get(data.get("m", ""))
    if cls is None:
        raise ProtocolError(f"unknown message type on the wire: {data.get('m')!r}")
    kwargs = {key: _decode_value(value) for key, value in data.get("f", {}).items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ProtocolError(f"malformed {cls.__name__} on the wire: {exc}") from exc


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Encode one frame: 4-byte big-endian length + compact JSON."""
    body = _encode_json(payload).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return _LENGTH.pack(len(body)) + body


async def read_frame(reader, header: bytes | None = None) -> dict[str, Any] | None:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`ProtocolError` on oversized or malformed frames and lets
    :class:`asyncio.IncompleteReadError` propagate on mid-frame EOF.
    ``header`` is the 4-byte length prefix when the caller already consumed
    it (a listener sniffing the first bytes of a connection).
    """
    if header is None:
        try:
            header = await reader.readexactly(_LENGTH.size)
        except Exception as exc:
            # Clean EOF before any header byte is a normal close.
            if isinstance(exc, EOFError) or (
                getattr(exc, "partial", None) == b""
            ):
                return None
            raise
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"incoming frame of {length} bytes exceeds MAX_FRAME")
    body = await reader.readexactly(length)
    try:
        payload = _decode_json(body.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame payload must be an object, got {type(payload).__name__}")
    return payload
