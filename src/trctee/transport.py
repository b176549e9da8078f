"""Record transport: 4-byte big-endian length prefix, then the payload.

The same framing runs over in-process pipes and TCP sockets, so protocol
code above this layer cannot tell the difference.  In-process scenario runs
use neither: they drive the device through ``device.DirectPair``, with no
device thread.  The plain threaded pipe here is kept for the benchmark's
worlds.  Who owns a received record depends on the transport:

* TCP receives every record into the connection's one receive buffer, a
  ``bytearray`` of exactly the record, and returns it.  The record is valid
  until the next ``recv_record`` on the same transport; a consumer that
  keeps any of its bytes must copy them.
* The in-process pipe hands over the sender's object unchanged (a sealed
  frame is built in a ``bytearray``), and it then belongs to its receiver.

Either way ``channel.open_frame`` may decrypt the record in place.  The
adversary tap, which faults scheduled records and logs every record that
passes it, keeps ``bytes`` copies, so what it holds stays the ciphertext.  A
receive that no record reaches waits out its timeout, on either transport,
and raises :class:`ReceiveTimeout`, which ends the user's session as every
:class:`TransportError` does.  A record sent to a peer that has closed is
lost, on every transport, and the next receive reports the close, after the
peer's abort record if it sent one.  No record over :data:`MAX_RECORD` is
sent on any of them: ``channel.seal`` refuses it.
"""

from __future__ import annotations

import socket
import struct
import threading
from collections import deque

from .errors import TrcteeError

MAX_RECORD = 16 * 1024 * 1024  # the largest record sent, and the largest length prefix read
_LENGTH = struct.Struct(">I")
# Keepalive of an accepted connection: a link cut with no FIN or RST fails in ~90 s.
KEEPALIVE = {"TCP_KEEPIDLE": 60, "TCP_KEEPINTVL": 10, "TCP_KEEPCNT": 3}


class RecordTooLarge(TrcteeError):
    """A record over :data:`MAX_RECORD`, refused before any byte of it is
    sent, so the connection and the session stay as they were."""


class TransportError(TrcteeError):
    pass


class TransportClosed(TransportError):
    pass


class ReceiveTimeout(TransportError):
    token = "timeout"


class BindError(TransportError):
    pass


class ConnectError(TransportError):
    pass


class InProcTransport:
    """One end of an in-process pipe; build both with :func:`pipe_pair`.

    The two ends share one condition, and each has an inbox.  Closing an end
    leaves a ``None`` marker in its peer's inbox, so a closed pipe stays
    closed, as TCP does.
    """

    def __init__(self, changed: threading.Condition):
        self._changed = changed
        self._inbox: deque = deque()
        self._peer = self  # set by pipe_pair
        self._closed = False

    def send_record(self, payload: bytes) -> None:
        if self._closed:
            raise TransportClosed("transport is closed")
        self._deliver(payload)

    def _deliver(self, record: bytes | None) -> None:
        with self._changed:
            self._peer._inbox.append(record)
            self._changed.notify_all()

    def recv_record(self, timeout: float | None = None) -> bytes:
        with self._changed:
            if not self._changed.wait_for(lambda: self._inbox, timeout):
                raise ReceiveTimeout(f"no record within {timeout}s")
            if self._inbox[0] is None:  # kept: a closed pipe stays closed
                raise TransportClosed("peer closed the transport")
            return self._inbox.popleft()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._deliver(None)


def pipe_pair() -> tuple[InProcTransport, InProcTransport]:
    changed = threading.Condition()
    a, b = InProcTransport(changed), InProcTransport(changed)
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
        except (BrokenPipeError, ConnectionResetError):
            pass  # the peer has closed: the record is lost (see the module docstring)
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc

    def _recv_into(self, buffer: bytearray) -> None:
        with memoryview(buffer) as view:
            got = 0
            while got < len(view):
                try:
                    n = self._sock.recv_into(view[got:])
                except OSError as exc:  # a timeout with an errno is keepalive's ETIMEDOUT
                    if isinstance(exc, socket.timeout) and exc.errno is None:
                        timeout = self._sock.gettimeout()
                        raise ReceiveTimeout(f"no record within {timeout}s") from None
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
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for name in KEEPALIVE.keys() & dir(socket):  # the options this platform has
        conn.setsockopt(socket.IPPROTO_TCP, getattr(socket, name), KEEPALIVE[name])
    return TcpTransport(conn)


def connect(host: str, port: int, timeout: float = 5.0) -> TcpTransport:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.settimeout(None)
    return TcpTransport(sock)


class AdversaryTap:
    """Wire-level attacker on one endpoint's connection, run from a schedule.

    A fault names its record by direction, ``send`` or ``recv``, and by the
    record's 1-based index in that direction; ``sent`` and ``received`` count
    the records so far.  Both ways, ``drop-frame`` loses record k,
    ``tamper-frame`` flips its last byte, ``replay-frame`` delivers a copy of
    record k-1 before it, and ``close`` closes the connection in its place:
    that send or receive raises :class:`TransportClosed`.  On ``recv`` only,
    ``delay-frame`` holds record k back: that receive raises
    :class:`ReceiveTimeout`, as a wait would, and the next one hands it over.

    ``log`` keeps the session's traffic as ``(direction, bytes)``: a record
    sent as its user handed it over, before any fault, and a record received
    as it is handed to its user, after any fault, replays included."""

    ACTIONS = ("tamper-frame", "replay-frame", "drop-frame")  # a scenario step's attacks

    def __init__(self, inner):
        self._inner = inner
        self.sent = self.received = 0
        self.log: list[tuple[str, bytes]] = []
        self._faults: dict[tuple[str, int], str] = {}
        self._last = {"send": b"", "recv": b""}  # copies: a record may be opened in place
        self._held: bytes | None = None  # a delayed record, not yet handed over

    def schedule(self, direction: str, k: int, action: str) -> None:
        actions = (*self.ACTIONS, "close", *(("delay-frame",) if direction == "recv" else ()))
        if direction not in self._last or action not in actions:
            raise ValueError(f"unknown fault {action!r} on {direction!r}")
        self._faults[direction, k] = action

    def send_record(self, payload: bytes) -> None:
        self.log.append(("send", bytes(payload)))
        self.sent += 1
        for record in self._through("send", self.sent, payload):
            self._inner.send_record(record)

    def recv_record(self, timeout: float | None = None) -> bytes:
        key = ("recv", self.received + 1)
        if self._held is not None:
            record, self._held = self._held, None  # a delayed record comes first
        elif self._faults.get(key) == "replay-frame" and self._last["recv"]:
            del self._faults[key]
            record = self._last["recv"]  # record k stays unread until the next receive
        else:
            record = self._inner.recv_record(timeout)
            self.received += 1
            if self._faults.get(key) == "delay-frame":
                del self._faults[key]
                self._held = self._last["recv"] = bytes(record)
                raise ReceiveTimeout(f"no record within {timeout}s")
            arrived = self._through("recv", self.received, record)
            if not arrived:
                return self.recv_record(timeout)  # past a dropped record
            record = arrived[-1]
        self.log.append(("recv", self._last["recv"]))  # the copy of ``record``
        return record

    def _through(self, direction: str, k: int, record) -> list:
        """What passes the tap in place of record k in ``direction``."""
        fault = self._faults.pop((direction, k), None)
        if fault == "close":
            self._inner.close()
            raise TransportClosed("peer closed the transport")
        if fault == "drop-frame":
            return []
        if fault == "tamper-frame":
            record = record[:-1] + bytes([record[-1] ^ 0x01])
        previous, self._last[direction] = self._last[direction], bytes(record)
        return [previous, record] if fault == "replay-frame" and previous else [record]

    def close(self) -> None:
        self._inner.close()
