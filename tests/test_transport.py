"""TCP record transport over loopback: large records, partial writes, a
peer that closes or falls silent mid-record, and the length-prefix cap.
The plain in-process pipe: a busy peer never fails a receive, a closed pipe
stays closed, and a receive that no record reaches waits out its timeout.
The adversary tap: each fault acts alike on either direction."""

import contextlib
import errno
import socket
import struct
import threading
import time
import tracemalloc

import pytest

from trctee import channel, transport


@pytest.fixture
def loopback():
    """A listening socket and a factory for connected (raw client, server end) pairs."""
    server = transport.listen("127.0.0.1", 0)
    opened = []

    def pair():
        raw = socket.create_connection(server.getsockname(), timeout=5)
        end = transport.accept_one(server, timeout=5)
        opened.extend([raw, end])
        return raw, end

    yield pair
    for thing in opened:
        thing.close()
    server.close()


def _in_thread(fn, *args):
    results = []
    thread = threading.Thread(target=lambda: results.append(fn(*args)), daemon=True)
    thread.start()
    return thread, results


class TestListen:
    def test_port_above_65535_is_a_bind_error(self):
        # Before the range check: an untyped OverflowError and a leaked socket.
        with pytest.raises(transport.BindError, match="65536"):
            transport.listen("127.0.0.1", 65536)


class TestTcpRecords:
    def test_4_mib_record_each_way(self, loopback):
        raw, server_end = loopback()
        client_end = transport.TcpTransport(raw)
        up = bytes(range(256)) * (16 * 1024)
        down = bytes(reversed(range(256))) * (16 * 1024)
        assert len(up) == len(down) == 4 << 20
        for sender, receiver, record in (
            (client_end, server_end, up),
            (server_end, client_end, down),
        ):
            thread, _ = _in_thread(sender.send_record, record)
            received = receiver.recv_record(timeout=10)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert received == record

    def test_empty_record(self, loopback):
        raw, server_end = loopback()
        transport.TcpTransport(raw).send_record(b"")
        assert server_end.recv_record(timeout=5) == b""

    def test_peer_closing_mid_record(self, loopback):
        raw, server_end = loopback()
        raw.sendall(struct.pack(">I", 1000) + bytes(10))
        raw.close()
        with pytest.raises(transport.TransportClosed):
            server_end.recv_record(timeout=5)

    def test_records_sent_to_a_closed_peer_are_lost_after_its_last_record(self, loopback):
        # The peer's reset fails a send after the first one: that record is
        # lost, as the earlier one is, and the receives still read in order.
        raw, server_end = loopback()
        client_end = transport.TcpTransport(raw)
        server_end.send_record(channel.abort_record(channel.AuthFailure("x")))
        server_end.close()
        for _ in range(10):
            client_end.send_record(b"late request")
        assert client_end.recv_record(5) == channel.abort_record(channel.AuthFailure("x"))
        with pytest.raises(transport.TransportClosed):
            client_end.recv_record(5)

    def test_silence_mid_record(self, loopback):
        raw, server_end = loopback()
        raw.sendall(struct.pack(">I", 1000) + bytes(10))
        with pytest.raises(transport.ReceiveTimeout):
            server_end.recv_record(timeout=0.2)

    def test_an_accepted_connection_probes_a_silent_link(self, loopback):
        _, server_end = loopback()
        sock = server_end._sock
        assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE) == 1
        for name, value in transport.KEEPALIVE.items():
            if hasattr(socket, name):
                assert sock.getsockopt(socket.IPPROTO_TCP, getattr(socket, name)) == value

    def test_oversized_prefix_rejected_before_allocating(self, loopback):
        raw, server_end = loopback()
        raw.sendall(struct.pack(">I", transport.MAX_RECORD + 1))
        tracemalloc.start()
        try:
            with pytest.raises(transport.TransportError, match="exceeds"):
                server_end.recv_record(timeout=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestOneReceiveBuffer:
    """A TCP record is the connection's one receive buffer, valid until the
    next receive on that transport."""

    def test_warm_receive_allocates_no_record_buffer(self, loopback):
        raw, server_end = loopback()
        client_end = transport.TcpTransport(raw)
        record = bytes(range(256)) * 1024  # 256 KiB
        peaks = []
        for _ in range(2):
            thread, _ = _in_thread(client_end.send_record, record)
            tracemalloc.start()
            try:
                received = server_end.recv_record(timeout=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            thread.join(timeout=5)
            assert received == record
        assert peaks[0] > len(record)  # the first record sizes the buffer
        assert peaks[1] < 4096

    def test_live_views_of_earlier_records_never_block_a_receive(self, loopback):
        raw, server_end = loopback()
        client_end = transport.TcpTransport(raw)
        big = bytes(range(256)) * (16 * 1024)  # 4 MiB
        records = [big, big[::-1], b"sixteen bytes..!", big]
        received, views = [], []
        for record in records:
            thread, _ = _in_thread(client_end.send_record, record)
            received.append(server_end.recv_record(timeout=10))  # no BufferError
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert received[-1] == record
            views.append(memoryview(received[-1]))
            views[-1][:1] = b"\xff"  # what an in-place open does
        # Two records of one size share the buffer, so the first view now
        # shows the second record; each change of size got a new buffer.
        assert received[0] is received[1]
        assert len({id(r) for r in received[1:]}) == 3
        assert bytes(views[0]) == b"\xff" + big[::-1][1:]
        assert bytes(views[2]) == b"\xffixteen bytes..!"

    def test_recorded_tampered_and_replayed_bytes_outlive_later_receives(self, loopback):
        raw, far = loopback()
        near = transport.TcpTransport(raw)
        tap = transport.AdversaryTap(far)
        records = [bytes([n]) * 64 for n in range(1, 6)]
        for record in records:
            near.send_record(record)
        first = tap.recv_record(5)
        first[:] = bytes(64)  # what an in-place open does to the record
        tap.schedule("recv", 2, "tamper-frame")
        tampered = tap.recv_record(5)
        tap.schedule("recv", 3, "replay-frame")
        replayed = tap.recv_record(5)
        later = [bytes(tap.recv_record(5)) for _ in range(3)]
        flipped = records[1][:-1] + bytes([records[1][-1] ^ 0x01])
        assert tampered == replayed == flipped
        assert later == records[2:]
        assert tap.log == [("recv", r) for r in [records[0], flipped, flipped, *records[2:]]]
        assert all(type(r) is bytes for _, r in tap.log)


class TrickleSocket:
    """Stub socket whose kernel takes at most ``limit`` bytes per write."""

    def __init__(self, limit):
        self.limit = limit
        self.offered = []  # bytes offered to each sendmsg call
        self.written = bytearray()

    def sendmsg(self, buffers):
        data = b"".join(bytes(b) for b in buffers)
        self.offered.append(len(data))
        self.written += data[: self.limit]
        return min(len(data), self.limit)


class TestPartialWrites:
    @pytest.mark.parametrize("limit", [1, 3, 4, 5, 1000, 1 << 20])
    def test_partial_sendmsg_resumes_where_the_kernel_stopped(self, limit):
        sock = TrickleSocket(limit)
        record = bytes(range(256)) * 16
        transport.TcpTransport(sock).send_record(record)
        total = 4 + len(record)
        assert bytes(sock.written) == struct.pack(">I", len(record)) + record
        # The first write offers the whole record, prefix included; later
        # writes offer exactly what the kernel has not taken yet.
        assert sock.offered == list(range(total, 0, -limit))

    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_a_write_to_a_closed_peer_loses_the_record(self, error):
        class Closed:
            def sendmsg(self, buffers):
                raise error("peer went away")

        transport.TcpTransport(Closed()).send_record(b"x")  # the next receive reports it

    def test_write_error_is_transport_closed(self):
        class Broken:
            def sendmsg(self, buffers):
                raise OSError(errno.EBADF, "Bad file descriptor")

        with pytest.raises(transport.TransportClosed, match="Bad file descriptor"):
            transport.TcpTransport(Broken()).send_record(b"x")

    def test_read_error_is_transport_closed(self):
        class Broken:
            def settimeout(self, timeout):
                pass

            def recv_into(self, view):
                raise ConnectionResetError("peer reset the connection")

        with pytest.raises(transport.TransportClosed, match="peer reset"):
            transport.TcpTransport(Broken()).recv_record(1.0)

    def test_unanswered_keepalive_probes_are_transport_closed(self):
        # The kernel fails the receive with ETIMEDOUT, a TimeoutError as a
        # socket timeout is, but the link is gone: no later receive can work.
        class Cut:
            def settimeout(self, timeout):
                pass

            def recv_into(self, view):
                raise OSError(errno.ETIMEDOUT, "Connection timed out")

        with pytest.raises(transport.TransportClosed, match="timed out"):
            transport.TcpTransport(Cut()).recv_record(None)


class TestCopiesOutliveInPlaceOpen:
    """The receiver decrypts a record where it sits; the adversary tap's log
    and its replay must still hold the sealed bytes."""

    @pytest.mark.parametrize("kind", ["inproc", "tcp"])
    def test_recorded_and_tapped_records_stay_sealed(self, loopback, kind):
        if kind == "inproc":
            near, far = transport.pipe_pair()
        else:
            raw, far = loopback()
            near = transport.TcpTransport(raw)
        sender = transport.AdversaryTap(near)
        receiver = transport.AdversaryTap(far)
        key = bytes(range(32))
        vtpm_end = channel.SessionState(sess_key=key, peer_role=channel.Role.TMM)
        tmm_end = channel.SessionState(sess_key=key, peer_role=channel.Role.VTPM)
        payload = bytes(range(256)) * 64
        frame = channel.seal(vtpm_end, payload)
        sealed = bytes(frame.encode())
        sender.send_record(frame.encode())
        record = receiver.recv_record(5)
        assert channel.open_frame(tmm_end, record) == payload
        assert record != sealed  # opened in place
        assert sender.log + receiver.log == [("send", sealed), ("recv", sealed)]
        receiver.schedule("recv", 2, "replay-frame")
        assert receiver.recv_record(5) == sealed
        with pytest.raises(channel.ReplayDetected):
            channel.open_frame(tmm_end, sealed)


def _echo(end, timeout):
    """Send back every record until the peer closes."""
    while True:
        try:
            record = end.recv_record(timeout)
        except transport.TransportClosed:
            return
        end.send_record(record)


class TestInProcPipe:
    @pytest.mark.parametrize("echo_timeout", [5.0, None])
    def test_busy_peer_never_fails_a_receive(self, echo_timeout):
        near, far = transport.pipe_pair()
        thread, _ = _in_thread(_echo, far, echo_timeout)
        for i in range(20_000):
            record = i.to_bytes(4, "big")
            near.send_record(record)
            assert near.recv_record(5.0) == record
        near.close()
        thread.join(5)
        assert not thread.is_alive()

    def test_receive_without_timeout_never_fails_fast(self):
        near, far = transport.pipe_pair()

        def late_sender():
            try:
                far.recv_record(0.3)
            except transport.ReceiveTimeout:
                far.send_record(b"late")

        thread, _ = _in_thread(late_sender)
        assert near.recv_record(None) == b"late"
        thread.join(5)
        near.close()

    def test_closed_pipe_stays_closed_as_over_tcp(self, loopback):
        raw, far = loopback()
        near, peer = transport.pipe_pair()
        for end, closing in ((transport.TcpTransport(raw), far), (near, peer)):
            closing.close()
            start = time.perf_counter()
            for _ in range(3):
                with pytest.raises(transport.TransportClosed):
                    end.recv_record(2.0)
            assert time.perf_counter() - start < 0.05

    def test_send_on_a_closed_end_is_transport_closed(self):
        near, _ = transport.pipe_pair()
        near.close()
        with pytest.raises(transport.TransportClosed, match="transport is closed"):
            near.send_record(b"late")

    def test_one_thread_on_both_ends_waits_in_full(self):
        near, far = transport.pipe_pair()
        start = time.perf_counter()
        with pytest.raises(transport.ReceiveTimeout, match=r"^no record within 0\.2s$"):
            near.recv_record(0.2)
        assert time.perf_counter() - start >= 0.2
        far.send_record(b"x")
        assert near.recv_record(0.2) == b"x"


class TestAdversaryTap:
    RECORDS = [b"one", b"two", b"six"]

    @pytest.mark.parametrize("direction", ["send", "recv"])
    @pytest.mark.parametrize("action, arrived", [
        ("drop-frame", [b"one", b"six"]),
        ("tamper-frame", [b"one", b"twn", b"six"]),
        ("replay-frame", [b"one", b"one", b"two", b"six"]),
        ("close", [b"one"]),
    ])
    def test_each_fault_acts_alike_either_way(self, direction, action, arrived):
        near, far = transport.pipe_pair()
        tap = transport.AdversaryTap(near if direction == "send" else far)
        tap.schedule(direction, 2, action)
        sender, receiver = (tap, far) if direction == "send" else (near, tap)
        with contextlib.suppress(transport.TransportClosed):  # sent after a close
            for record in self.RECORDS:
                sender.send_record(record)
        got = []
        ends = transport.TransportClosed if action == "close" else transport.ReceiveTimeout
        with pytest.raises(ends):
            while True:
                got.append(bytes(receiver.recv_record(0)))
        assert got == arrived
        counted = 2 if action == "close" else 3  # nothing passes the tap after a close
        assert (tap.sent, tap.received) == ((counted, 0) if direction == "send" else (0, counted))

    def test_a_replay_of_the_first_record_has_nothing_to_copy(self):
        near, far = transport.pipe_pair()
        tap = transport.AdversaryTap(far)
        tap.schedule("recv", 1, "replay-frame")
        near.send_record(b"one")
        assert tap.recv_record(0) == b"one" and tap.received == 1

    def test_a_delayed_record_times_out_its_receive_and_comes_first_in_the_next(self):
        near, far = transport.pipe_pair()
        tap = transport.AdversaryTap(far)
        tap.schedule("recv", 2, "delay-frame")
        for record in self.RECORDS:
            near.send_record(record)
        assert tap.recv_record(0.5) == b"one"
        with pytest.raises(transport.ReceiveTimeout, match=r"^no record within 0\.5s$"):
            tap.recv_record(0.5)
        assert [bytes(tap.recv_record(0.5)) for _ in range(2)] == [b"two", b"six"]
        assert tap.log == [("recv", b"one"), ("recv", b"two"), ("recv", b"six")]
        assert tap.received == 3


@pytest.mark.parametrize("direction, action", [
    ("recv", "flip"), ("send", "tamper-bitstream"), ("sideways", "drop-frame"),
    ("send", "delay-frame"),  # a receive-side fault only
])
def test_adversary_tap_refuses_an_unknown_attack(direction, action):
    with pytest.raises(ValueError, match=f"unknown fault {action!r} on {direction!r}"):
        transport.AdversaryTap(None).schedule(direction, 1, action)
