"""Record transport: 4-byte big-endian length prefix, then the payload.

The same framing runs over in-process pipes and TCP sockets, so protocol
code above this layer cannot tell the difference.  In-process scenario runs
use neither: they drive the device through ``device.DirectPair``, with no
device thread.  The threaded pipe here serves the benchmark's worlds and the
tests that run a device thread.  Who owns a received record depends on the
transport:

* TCP receives every record into the connection's one receive buffer, a
  ``bytearray`` of exactly the record, and returns it.  The record is valid
  until the next ``recv_record`` on the same transport; a consumer that
  keeps any of its bytes must copy them.
* The in-process pipe hands over the sender's object unchanged (a sealed
  frame is built in a ``bytearray``), and it then belongs to its receiver.

Either way ``channel.open_frame`` may decrypt the record in place.  Wrappers
add traffic recording and the adversary taps used by attack scenarios; both
keep ``bytes`` copies, so what they hold stays the ciphertext.

Over TCP a receive that no record reaches waits out its timeout.  The
threaded in-process pipe can see that both of its ends are blocked on empty
inboxes, and then no record can ever arrive: by its stall rule the receive
with the earlier finite deadline fails at once, as real time would have it
fail first (see :class:`InProcTransport`).  This holds only while records
enter a pipe through its two ends alone, each end driven by one thread.
"""

from __future__ import annotations

import math
import socket
import struct
import threading
import time
from collections import deque

from .errors import TrcteeError

MAX_RECORD = 16 * 1024 * 1024  # sanity bound on the length prefix
_LENGTH = struct.Struct(">I")


class TransportError(TrcteeError):
    pass


class TransportClosed(TransportError):
    pass


class ReceiveTimeout(TransportError):
    pass


class BindError(TransportError):
    pass


class ConnectError(TransportError):
    pass


class _Pipe:
    """What the two ends of one in-process pipe share: one condition, and the
    pipe's clock, which is real time plus every wait the stall rule skipped."""

    def __init__(self):
        self.changed = threading.Condition()
        self.skipped = 0.0

    def now(self) -> float:
        return time.monotonic() + self.skipped


class InProcTransport:
    """One end of an in-process pipe; build both with :func:`pipe_pair`.

    While its receive is blocked on an empty inbox, an end records its
    deadline.  The stall rule: a receive fails with :class:`ReceiveTimeout`
    at once, not at its deadline, when its peer is blocked on an empty inbox
    too, its own deadline is finite, and that deadline is no later than the
    peer's.
    Nothing can arrive before it then, and the earlier deadline is the one
    that real time would reach first; the pipe's clock moves on to it, so a
    later stall compares deadlines as real time would.  A receive without a
    timeout, or one whose peer is busy or due first, waits as it would.

    Precondition: records enter a pipe only through its two ends, and each
    end is driven by one thread (one thread may drive both; it then never
    stalls on both at once).  A record sent from anywhere else could arrive
    after the rule has already failed a receive.
    """

    def __init__(self, pipe: _Pipe):
        self._pipe = pipe
        self._inbox: deque = deque()
        self._peer = self  # set by pipe_pair
        self._closed = False
        self._deadline: float | None = None  # while blocked on an empty inbox

    def send_record(self, payload: bytes) -> None:
        if self._closed:
            raise TransportClosed("transport is closed")
        self._deliver(payload)

    def _deliver(self, record: bytes | None) -> None:
        with self._pipe.changed:
            self._peer._inbox.append(record)
            self._pipe.changed.notify_all()

    def recv_record(self, timeout: float | None = None) -> bytes:
        with self._pipe.changed:
            if not self._inbox:
                self._stall(timeout)
            record = self._inbox[0]
            if record is None:  # kept: a closed pipe stays closed, as TCP does
                raise TransportClosed("peer closed the transport")
            return self._inbox.popleft()

    def _stall(self, timeout: float | None) -> None:
        """Wait, holding the condition, until the inbox has a record; raise
        :class:`ReceiveTimeout` at the deadline or by the stall rule."""
        pipe = self._pipe
        deadline = math.inf if timeout is None else pipe.now() + timeout
        self._deadline = deadline
        pipe.changed.notify_all()  # the peer may be stalled, waiting for this one
        try:
            while not self._inbox:
                now = pipe.now()
                peer = self._peer
                # A peer that is woken but not yet running still has its deadline set.
                stalled = peer._deadline is not None and not peer._inbox
                if stalled and timeout is not None and deadline <= peer._deadline:
                    pipe.skipped += max(0.0, deadline - now)
                    now = deadline
                if now >= deadline:
                    raise ReceiveTimeout(f"no record within {timeout}s")
                pipe.changed.wait(None if timeout is None else deadline - now)
        finally:
            self._deadline = None

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._deliver(None)


def pipe_pair() -> tuple[InProcTransport, InProcTransport]:
    pipe = _Pipe()
    a, b = InProcTransport(pipe), InProcTransport(pipe)
    a._peer, b._peer = b, a
    return a, b


class TcpTransport:
    """One end of a TCP connection, one length-prefixed record at a time.

    A record goes out in one gather write of prefix and payload, and comes
    in through the connection's one receive buffer (see the module
    docstring).  A record of another length than the last gets a new buffer,
    so records of one size, as in a stream of equal invokes, allocate none.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = bytearray()

    def send_record(self, payload: bytes | bytearray) -> None:
        # One write per record; more only if the kernel takes part of it.
        pending = [memoryview(_LENGTH.pack(len(payload))), memoryview(payload)]
        try:
            while pending:
                sent = self._sock.sendmsg(pending)
                while pending and sent >= len(pending[0]):
                    sent -= len(pending.pop(0))
                if pending:
                    pending[0] = pending[0][sent:]
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc

    def _recv_into(self, buffer: bytearray) -> None:
        with memoryview(buffer) as view:
            got = 0
            while got < len(view):
                try:
                    n = self._sock.recv_into(view[got:])
                except socket.timeout:
                    raise ReceiveTimeout("socket receive timed out") from None
                except OSError as exc:
                    raise TransportClosed(str(exc)) from exc
                if not n:
                    raise TransportClosed("peer closed the connection")
                got += n

    def recv_record(self, timeout: float | None = None) -> bytearray:
        self._sock.settimeout(timeout)
        prefix = bytearray(_LENGTH.size)
        self._recv_into(prefix)
        (length,) = _LENGTH.unpack(prefix)
        if length > MAX_RECORD:
            raise TransportError(f"record of {length} bytes exceeds the {MAX_RECORD} cap")
        if length != len(self._buffer):
            # Rebound, never resized: a caller may still hold a view of the old one.
            self._buffer = bytearray(length)
        self._recv_into(self._buffer)
        return self._buffer

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def listen(host: str, port: int) -> socket.socket:
    if not 0 <= port <= 65535:
        # Checked first: the socket module would raise OverflowError only
        # after it has opened the socket, and leave that socket unclosed.
        raise BindError(f"cannot bind {host}:{port}: port outside 0..65535")
    try:
        server = socket.create_server((host, port))
    except OSError as exc:
        raise BindError(f"cannot bind {host}:{port}: {exc}") from exc
    return server


def accept_one(server: socket.socket, timeout: float | None = None) -> TcpTransport:
    server.settimeout(timeout)
    try:
        conn, _ = server.accept()
    except socket.timeout:
        raise ReceiveTimeout("no connection arrived") from None
    return TcpTransport(conn)


def connect(host: str, port: int, timeout: float = 5.0) -> TcpTransport:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.settimeout(None)
    return TcpTransport(sock)


class RecordingTransport:
    """Passthrough wrapper appending (direction, copy of payload) to a shared list."""

    def __init__(self, inner, log: list[tuple[str, bytes]], sent_label: str = "sent",
                 received_label: str = "received"):
        self._inner = inner
        self.log = log
        self._sent = sent_label
        self._received = received_label

    def send_record(self, payload: bytes) -> None:
        self.log.append((self._sent, bytes(payload)))
        self._inner.send_record(payload)

    def recv_record(self, timeout: float | None = None) -> bytes:
        record = self._inner.recv_record(timeout)
        self.log.append((self._received, bytes(record)))
        return record

    def close(self) -> None:
        self._inner.close()


class AdversaryTap:
    """Wire-level attacker sitting on one endpoint's receive path.

    Attacks arm for the next incoming record only: ``tamper`` flips a bit,
    ``replay`` re-delivers the last accepted record, ``drop`` swallows one
    record.  Modeling the tap on the receive side keeps the resulting typed
    failure observable at the endpoint under test.
    """

    def __init__(self, inner):
        self._inner = inner
        self._armed: str | None = None
        self._last_received: bytes | None = None

    def arm(self, action: str) -> None:
        if action not in ("tamper", "replay", "drop"):
            raise ValueError(f"unknown adversary action {action!r}")
        self._armed = action

    def send_record(self, payload: bytes) -> None:
        self._inner.send_record(payload)

    def recv_record(self, timeout: float | None = None) -> bytes:
        if self._armed == "replay" and self._last_received is not None:
            self._armed = None
            return self._last_received
        record = self._inner.recv_record(timeout)
        if self._armed == "drop":
            self._armed = None
            record = self._inner.recv_record(timeout)
        elif self._armed == "tamper":
            self._armed = None
            record = record[:-1] + bytes([record[-1] ^ 0x01])
        self._last_received = bytes(record)  # the receiver decrypts ``record`` in place
        return record

    def close(self) -> None:
        self._inner.close()
