"""TCP record transport over loopback: large records, partial writes, a
peer that closes or falls silent mid-record, and the length-prefix cap."""

import socket
import struct
import threading
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

    def test_silence_mid_record(self, loopback):
        raw, server_end = loopback()
        raw.sendall(struct.pack(">I", 1000) + bytes(10))
        with pytest.raises(transport.ReceiveTimeout):
            server_end.recv_record(timeout=0.2)

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

    def test_write_error_is_transport_closed(self):
        class Broken:
            def sendmsg(self, buffers):
                raise BrokenPipeError("peer went away")

        with pytest.raises(transport.TransportClosed):
            transport.TcpTransport(Broken()).send_record(b"x")


class TestCopiesOutliveInPlaceOpen:
    """The receiver decrypts a record where it sits; the recorder and the
    adversary tap must still hold the sealed bytes."""

    @pytest.mark.parametrize("kind", ["inproc", "tcp"])
    def test_recorded_and_tapped_records_stay_sealed(self, loopback, kind):
        if kind == "inproc":
            near, far = transport.pipe_pair()
        else:
            raw, far = loopback()
            near = transport.TcpTransport(raw)
        log = []
        sender = transport.RecordingTransport(near, log)
        tap = transport.AdversaryTap(far)
        receiver = transport.RecordingTransport(tap, log)
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
        assert log == [("sent", sealed), ("received", sealed)]
        tap.arm("replay")
        assert receiver.recv_record(5) == sealed
        with pytest.raises(channel.ReplayDetected):
            channel.open_frame(tmm_end, sealed)
