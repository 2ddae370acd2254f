"""Length-framed JSON wire protocol.

Every message on a shard connection — request, response, heartbeat — is one
*frame*: a 4-byte big-endian unsigned length prefix followed by exactly that
many bytes of UTF-8 JSON (keys in insertion order: nothing reads frame bytes
by key order).  Framing is the only layer that touches raw bytes; everything
above it deals in dicts.  A connection is request/response — one frame in
flight per *connection*; a scatter has several in flight, one per shard's
connection — so :func:`read_frame` treats a second frame as a protocol error.

The streaming :class:`FrameDecoder` makes no assumption about how TCP
chunks the stream: a frame may arrive one byte at a time, many frames may
arrive in one ``recv``, and a frame boundary may fall anywhere, including
inside the length prefix.  A connection that closes mid-frame surfaces as
:class:`~repro.errors.WireError` — the caller cannot know whether the peer
acted on the request, which is exactly why mutations carry idempotency keys.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Iterator

from repro.errors import WireError

#: Length-prefix layout: one unsigned 32-bit big-endian integer.
_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size

#: Upper bound on a single frame body.  Large enough for any realistic
#: bulk-commit batch or query page, small enough that a corrupted length
#: prefix cannot make a peer buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialise *message* to one length-prefixed frame."""
    try:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"message is not JSON-serialisable: {exc}") from exc
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {len(body)} bytes exceeds cap {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental decoder for a stream of length-prefixed frames.

    Feed it whatever byte chunks the transport produces; it yields complete
    messages as they become available and buffers partial frames across
    calls.  ``close()`` asserts the stream ended on a frame boundary.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[dict[str, Any]]:
        """Absorb *chunk* and return every frame it completed, in order."""
        self._buffer.extend(chunk)
        messages: list[dict[str, Any]] = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise WireError(f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
            if len(self._buffer) < HEADER_SIZE + length:
                return messages
            body = bytes(self._buffer[HEADER_SIZE : HEADER_SIZE + length])
            del self._buffer[: HEADER_SIZE + length]
            messages.append(_decode_body(body))

    def close(self) -> None:
        """Declare end-of-stream; a buffered partial frame is a torn frame."""
        if self._buffer:
            raise WireError(f"stream closed mid-frame with {len(self._buffer)} buffered bytes")


def _decode_body(body: bytes) -> dict[str, Any]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise WireError(f"frame body must be a JSON object, got {type(message).__name__}")
    return message


def decode_frames(data: bytes) -> Iterator[dict[str, Any]]:
    """Decode a complete byte string into its frames (testing helper)."""
    decoder = FrameDecoder()
    yield from decoder.feed(data)
    decoder.close()


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Write one frame to *sock*, raising :class:`WireError` on a dead peer."""
    try:
        sock.sendall(encode_frame(message))
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        if isinstance(exc, socket.timeout):
            raise
        raise WireError(f"connection lost while sending frame: {exc}") from exc


def read_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read exactly one frame from *sock*.

    Returns ``None`` on a clean end-of-stream (peer closed between frames).
    A close mid-frame — the torn-frame case — raises :class:`WireError`.
    ``socket.timeout`` propagates so callers can map it to their own typed
    timeout error.
    """
    decoder = FrameDecoder()
    while True:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            raise
        except (ConnectionResetError, OSError) as exc:
            raise WireError(f"connection lost while reading frame: {exc}") from exc
        if not chunk:
            if decoder.pending_bytes:
                decoder.close()  # raises WireError with the byte count
            return None
        messages = decoder.feed(chunk)
        if messages:
            if len(messages) > 1 or decoder.pending_bytes:
                raise WireError("peer pipelined frames on a request/response connection")
            return messages[0]
