"""Shared wire framing for every repro daemon (``dist`` and ``serve``).

Both long-lived daemons — the distributed-executor worker
(:mod:`repro.dist.worker`) and the live traffic endpoint
(:mod:`repro.serve.server`) — speak the same byte-level protocol: an 8-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON, one
message object per frame, every message a dict with a ``"type"`` key.  This
module is the single home of that framing so the two daemons cannot drift:
the blocking-socket codec used by ``dist`` and the asyncio codec used by
``serve`` share one encoder, one decoder, one length cap and one error
type.

The message-level conversations differ (lease-driven for ``dist``,
session-driven for ``serve``) and stay in their own packages; only the
bytes-on-the-wire layer lives here.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Dict, Tuple

from repro.exceptions import ExperimentError

__all__ = [
    "MAX_FRAME",
    "ProtocolError",
    "decode_frame_body",
    "encode_frame",
    "parse_listen_address",
    "read_frame",
    "recv_frame",
    "send_frame",
    "write_frame",
]

_LENGTH = struct.Struct(">Q")

#: Upper bound on a single frame (1 GiB) — a corrupted length prefix must
#: fail loudly instead of attempting a multi-exabyte allocation.
MAX_FRAME = 1 << 30


class ProtocolError(ExperimentError):
    """Raised when a peer violates a repro daemon wire protocol."""


# --------------------------------------------------------- shared envelope


def encode_frame(message: Dict[str, object]) -> bytes:
    """Serialise one message into its on-the-wire frame (length + JSON)."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def decode_frame_body(body: bytes) -> Dict[str, object]:
    """Decode a frame body into a message, enforcing the envelope shape.

    Any body a peer can send ends in a message or a :class:`ProtocolError`:
    invalid UTF-8, invalid JSON and JSON nested too deeply to parse are all
    protocol violations, never unhandled exceptions in the daemon.
    """
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise ProtocolError(f"malformed frame body: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"not a protocol message: {message!r}")
    return message


def _check_length(length: int) -> int:
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds the {MAX_FRAME}-byte cap")
    return length


# ------------------------------------------------- blocking-socket codec


def send_frame(sock: socket.socket, message: Dict[str, object]) -> None:
    """Send one length-prefixed JSON frame."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Dict[str, object]:
    """Receive one frame; raises ``ConnectionError``/``socket.timeout``."""
    length = _check_length(_LENGTH.unpack(_recv_exact(sock, _LENGTH.size))[0])
    return decode_frame_body(_recv_exact(sock, length))


# ------------------------------------------------------------ asyncio codec


async def read_frame(reader: asyncio.StreamReader) -> Dict[str, object]:
    """Receive one frame from an asyncio stream.

    Raises ``asyncio.IncompleteReadError`` when the peer closes mid-frame
    (a clean EOF before any length byte surfaces the same way, with an
    empty partial read — callers treat it as disconnect).
    """
    header = await reader.readexactly(_LENGTH.size)
    length = _check_length(_LENGTH.unpack(header)[0])
    return decode_frame_body(await reader.readexactly(length))


async def write_frame(
    writer: asyncio.StreamWriter, message: Dict[str, object]
) -> None:
    """Send one frame on an asyncio stream and drain the transport."""
    writer.write(encode_frame(message))
    await writer.drain()


# --------------------------------------------------------- listen addresses


def parse_listen_address(address: str) -> Tuple[str, int]:
    """Parse a ``tcp://host:port`` listen address (single endpoint)."""
    prefix = "tcp://"
    if not isinstance(address, str) or not address.startswith(prefix):
        raise ExperimentError(
            f"daemon listen address must look like tcp://HOST:PORT, got {address!r}"
        )
    host, _, port = address[len(prefix) :].rpartition(":")
    if not host or not port.isdigit():
        raise ExperimentError(
            f"daemon listen address must look like tcp://HOST:PORT, got {address!r}"
        )
    return host, int(port)
