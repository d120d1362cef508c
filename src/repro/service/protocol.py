"""Wire protocol of sharded dispatch: JSON lines over a socket.

Every controller-to-shard connection speaks the same framing: one JSON
object per ``\\n``-terminated line, UTF-8, no newlines inside a
message (``json.dumps`` without ``indent`` guarantees that).  The
framing is deliberately primitive: it survives partial reads, needs no
length prefix bookkeeping, and a human can drive a shard with ``nc``
when debugging.

Message vocabulary (the ``type`` field):

controller → shard
    ``run``       — ``{"type": "run", "payload": "<json>"}``: one
                    serialised worker attempt, the exact string
                    :func:`repro.harness.worker.build_payload` produces
                    for the local pool.  A shard holds at most one task
                    in flight.
    ``exit``      — end this controller session; with ``"shutdown":
                    true`` the shard process terminates instead of
                    accepting the next controller.

shard → controller
    ``hello``     — identity announcement on connect (shard id, pid).
    ``start``     — per-task heartbeat; arms the controller deadline.
    ``done``      — task verdict: ``status`` is ``ok`` or ``error``,
                    ``elapsed`` is in-shard wall seconds.

The helpers here never interpret messages; they only frame them.
:class:`LineReader` buffers a non-blocking socket so the sharded
dispatcher can drain every complete message a dying shard managed to
flush — a ``done`` that reached the kernel buffer before the process
died still counts, which is what makes kill-at-any-stage lossless.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional

#: Cap on one framed message (a task payload is well under this;
#: anything bigger is a corrupt or hostile peer).
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """A peer sent bytes that do not frame or parse as a message."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialise one message to its wire form (compact JSON + LF)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line back into a message object."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparsable message line ({exc})") from None
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError(f"message has no type field: {message!r}")
    return message


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Frame and send one message (blocking, whole-message)."""
    sock.sendall(encode_message(message))


def recv_message(
    reader: "LineReader", timeout: Optional[float] = None
) -> Optional[Dict[str, Any]]:
    """Receive the next message, ``None`` on clean EOF.

    Convenience wrapper for blocking callers (shards, the handshake); the
    dispatcher uses :class:`LineReader` directly under ``select``.
    """
    line = reader.readline(timeout=timeout)
    if line is None:
        return None
    return decode_message(line)


class LineReader:
    """Buffered line reader over a socket, safe for partial reads.

    ``fill()`` performs exactly one ``recv`` and reports liveness —
    the event-driven dispatcher calls it when ``select`` says the
    socket is readable; ``lines()`` then drains every complete message
    buffered so far.  ``readline()`` is the blocking convenience for
    sequential peers.  After EOF the buffered complete lines are still
    served: death never discards delivered messages.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = bytearray()
        self.eof = False

    def fill(self) -> bool:
        """One ``recv``; returns False when the peer has gone away."""
        if self.eof:
            return False
        try:
            chunk = self.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            self.eof = True
            return False
        if not chunk:
            self.eof = True
            return False
        self._buffer.extend(chunk)
        if len(self._buffer) > MAX_MESSAGE_BYTES:
            raise ProtocolError(
                f"peer sent {len(self._buffer)} bytes with no line break"
            )
        return True

    def lines(self) -> List[bytes]:
        """Every complete line currently buffered (consumed)."""
        out: List[bytes] = []
        while True:
            index = self._buffer.find(b"\n")
            if index < 0:
                return out
            out.append(bytes(self._buffer[:index]))
            del self._buffer[: index + 1]

    def readline(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Block for the next complete line; ``None`` on EOF."""
        while True:
            pending = self.lines()
            if pending:
                # Push any extra lines back is unnecessary: callers of
                # the blocking form consume strictly one line per call,
                # so re-buffer the remainder.
                first, rest = pending[0], pending[1:]
                if rest:
                    keep = b"\n".join(rest) + b"\n"
                    self._buffer[:0] = keep
                return first
            if self.eof:
                return None
            if timeout is not None:
                self.sock.settimeout(timeout)
            try:
                if not self.fill():
                    continue  # loop once more to drain buffered lines
            except socket.timeout:
                raise ProtocolError(
                    f"peer sent nothing for {timeout:g}s"
                ) from None
            finally:
                if timeout is not None:
                    self.sock.settimeout(None)
