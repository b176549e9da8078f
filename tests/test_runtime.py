import copy
import gc
import hashlib
import os
import socket
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_world, connect_world, tapped
from oracles import pcr_chain
import trctee
from trctee import channel, device, messages, puf, runtime, transport, vtpm, wire
from trctee.crypto import Rng, sha384
from trctee.errors import TrcteeError
from trctee.puf import CrpExhausted


class TestBootReport:
    def test_pcrs_0_to_7_match_oracle_chain(self, connected):
        manifest = connected.user.golden_manifest
        for index in range(8):
            expected = pcr_chain([manifest[index][1]])
            assert connected.user.vtpm.pcr_read(index) == expected

    def test_boot_events_logged_in_order(self, connected):
        boot_events = [
            e for e in connected.user.vtpm.log if e.kind is vtpm.EventKind.BOOT_COMPONENT
        ]
        assert [e.label for e in boot_events] == list(device.BOOT_COMPONENTS)
        assert [e.pcr_index for e in boot_events] == list(range(8))

    def test_tampered_component_shifts_only_its_register(self):
        world = build_world(seed=8)
        world.boot_image.tamper("optee")
        connect_world(world)
        golden = world.user.golden_manifest
        for index in range(8):
            expected = pcr_chain([golden[index][1]])
            actual = world.user.vtpm.pcr_read(index)
            if index == 4:  # optee's register
                assert actual != expected
            else:
                assert actual == expected
        world.user.close()

    @pytest.mark.parametrize(
        "index, name", [(30, "fsbl"), (8, "fsbl"), (0, "fs\nbl"), (0, "fsbl\r")]
    )
    def test_malicious_boot_report_is_a_message_error(self, world, monkeypatch, index, name):
        # Before the check: vtpm.IndexOutOfRange or ValueError out of pcr_extend.
        monkeypatch.setattr(
            device, "measure_boot_image", lambda image: [(index, name, bytes(48))]
        )
        with pytest.raises(messages.MessageError):
            connect_world(world)
        assert world.user.vtpm.log == []


class TestRejectedDevice:
    """The vTPM's side of a failed handshake reaches the device, typed."""

    def _serve(self, world):
        world.device.boot()
        return device.DirectPair(world.device)

    def test_puf_mismatch_is_named_to_the_device(self, world):
        world.device.puf = puf.PufDevice(bytes(32))  # not the PUF the CRPs came from
        user_side = self._serve(world)
        with pytest.raises(channel.PufMismatch):
            world.user.connect(user_side)
        assert isinstance(world.user.trace.first_error(), channel.PufMismatch)
        error = world.device.trace.first_error()
        assert isinstance(error, channel.PeerAborted)
        assert str(error) == "vTPM aborted the handshake: PufMismatch"
        # The device closed without answering the abort with one of its own.
        with pytest.raises(transport.TransportClosed):
            user_side.recv_record(timeout=2.0)
        user_side.close()

    def test_non_utf8_device_id_is_traced_and_named_to_the_device(self, world):
        sent = []

        class BadHello:
            def send_record(self, record):
                sent.append(bytes(record))

            def recv_record(self, timeout=None):
                return b"\x12" + bytes(16) + b"\x00\x02\xff\xfe"

            def close(self):
                sent.append(None)

        with pytest.raises(channel.StaleNonce):
            world.user.connect(BadHello())
        assert isinstance(world.user.trace.first_error(), channel.StaleNonce)
        assert sent[1:] == [b"\x1f\x02", None]  # after HS1, an abort naming StaleNonce; closed

    def test_an_abort_the_device_can_no_longer_take_is_dropped(self, world):
        # HS5, the 2nd record received, fails its MAC; the abort naming that,
        # the 3rd record sent, finds the connection closed.  The connect still
        # fails with its own rejection, and closes.
        world.device.boot()
        tap = tapped(world.device, "recv", 2, "tamper-frame")
        tap.schedule("send", 3, "close")
        with pytest.raises(channel.PufMismatch) as caught:
            world.user.connect(tap)
        assert world.user.trace.first_error() is caught.value
        assert world.user.endpoint is None and tap.sent == 3
        with pytest.raises(transport.TransportClosed, match="transport is closed"):
            tap.send_record(b"x")
        assert isinstance(world.device.trace.first_error(), transport.TransportClosed)

    def test_vtpm_hanging_up_mid_handshake_is_traced(self, world):
        user_side = self._serve(world)
        handshake = channel.VtpmHandshake(
            sk_tpm=world.user.bundle.sk_tpm,
            cert=world.user.bundle.cert,
            device_id="dev1",
            crp_store=world.user.crp_store,
            rng=Rng(1),
        )
        user_side.send_record(handshake.start())
        user_side.recv_record(timeout=2.0)  # the device's hello
        user_side.close()
        assert isinstance(world.device.trace.first_error(), transport.TransportClosed)


class TestDeploy:
    def test_verified_deploy_extends_pcr8(self, connected):
        user = connected.user
        image = device.IpImage(kernel_id="xor", params=bytes(range(16)))
        ticket = user.prepare_deploy(1, image)
        response, verdict = user.user_deploy(ticket)
        assert verdict == "Verified"
        assert response.bin_hash == hashlib.sha3_384(image.encode()).digest()
        record_digest = runtime.deployment_record_digest(1, response.bin_hash)
        assert user.vtpm.pcr_read(8) == pcr_chain([record_digest])
        deploy_events = [e for e in user.vtpm.log if e.kind is vtpm.EventKind.IP_DEPLOY]
        assert len(deploy_events) == 1

    def test_unknown_ip_num_fails_with_code_1(self, connected):
        response_bytes = connected.user.vtpm.dispatch(wire.encode(wire.DeployCmd(ip_num=42)))
        response = wire.decode_response(response_bytes, wire.CC_DEPLOY)
        assert response.response_code == 1
        assert response.bin_hash == bytes(48)
        assert connected.device.tmm.config_memory.snapshot() == {}
        assert connected.user.vtpm.pcr_read(8) == bytes(48)

    def test_tampered_stored_blob_fails_cleanly(self, connected):
        user, dev = connected.user, connected.device
        image = device.IpImage(kernel_id="xor", params=bytes(16))
        ticket = user.prepare_deploy(1, image)
        blob = dev.file_store.get(ticket.blob_name)
        dev.file_store.put(ticket.blob_name, blob[:-1] + bytes([blob[-1] ^ 1]))
        response, verdict = user.user_deploy(ticket)
        assert response.response_code == 1 and verdict == "Mismatch"
        assert isinstance(dev.trace.first_error(), channel.AuthFailure)
        assert dev.tmm.config_memory.snapshot() == {}
        assert user.vtpm.pcr_read(8) == bytes(48)

    def test_non_utf8_kernel_id_is_a_bad_image(self, connected):
        # The image authenticates, but its kernel id is not UTF-8: the deploy
        # is answered rc 1 like any bad image and the session stays up.
        user, dev = connected.user, connected.device
        ticket = user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))
        nonce, plaintext = bytes(12), b"TRIP\x02\xff\xfe" + bytes(16)
        ciphertext = AESGCM(user.deploy_key).encrypt(nonce, plaintext, (1).to_bytes(2, "big"))
        encrypted = device.EncryptedBitstream(ip_num=1, nonce=nonce, ciphertext=ciphertext)
        dev.file_store.put(ticket.blob_name, encrypted.encode())
        response, verdict = user.user_deploy(ticket)
        assert (response.response_code, verdict) == (1, "Mismatch")
        assert isinstance(dev.trace.first_error(), device.BadImage)
        deploy_xor(user, ip_num=2)
        assert user.user_invoke(2, bytes(16))[0] == bytes(range(16))

    def test_redeploy_appends_second_event(self, connected):
        user = connected.user
        for params in (bytes(16), bytes(range(16))):
            ticket = user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=params))
            user.user_deploy(ticket)
        deploy_events = [e for e in user.vtpm.log if e.kind is vtpm.EventKind.IP_DEPLOY]
        assert len(deploy_events) == 2
        assert user.vtpm.pcr_read(8) == pcr_chain([e.digest for e in deploy_events])


def deploy_xor(user, ip_num=1, params=bytes(range(16))):
    ticket = user.prepare_deploy(ip_num, device.IpImage(kernel_id="xor", params=params))
    response, verdict = user.user_deploy(ticket)
    assert verdict == "Verified"
    return ticket


class TestInvoke:
    def test_xor_round_trip_through_device(self, connected):
        user = connected.user
        params = bytes(range(16))
        deploy_xor(user, params=params)
        data = Rng(33).bytes(16)
        output, record = user.user_invoke(1, data)
        assert output == bytes(a ^ b for a, b in zip(data, params))
        assert record.verdict == "Verified"
        output2, _ = user.user_invoke(1, output)
        assert output2 == data

    def test_record_digests_are_the_measured_ones(self, connected):
        user = connected.user
        deploy_xor(user)
        data = Rng(34).bytes(16)
        output, record = user.user_invoke(1, data)
        assert record.input_digest == hashlib.sha384(data).digest()
        assert record.output_digest == hashlib.sha384(output).digest()
        logged = [e.digest for e in user.vtpm.log[-2:]]
        assert logged == [record.input_digest, record.output_digest]

    def test_pcr9_pcr10_chain_in_order(self, connected):
        user = connected.user
        deploy_xor(user)
        inputs, outputs = [], []
        for data in (b"A" * 16, b"B" * 16):
            output, _ = user.user_invoke(1, data)
            inputs.append(hashlib.sha384(data).digest())
            outputs.append(hashlib.sha384(output).digest())
        assert user.vtpm.pcr_read(9) == pcr_chain(inputs)
        assert user.vtpm.pcr_read(10) == pcr_chain(outputs)

    def test_event_order_input_before_output(self, connected):
        user = connected.user
        deploy_xor(user)
        user.user_invoke(1, b"C" * 16)
        user.user_invoke(1, b"D" * 16)
        io_events = [
            e.kind
            for e in user.vtpm.log
            if e.kind in (vtpm.EventKind.IP_INPUT, vtpm.EventKind.IP_OUTPUT)
        ]
        assert io_events == [
            vtpm.EventKind.IP_INPUT,
            vtpm.EventKind.IP_OUTPUT,
            vtpm.EventKind.IP_INPUT,
            vtpm.EventKind.IP_OUTPUT,
        ]

    def test_invoke_undeployed_surfaces_failure(self, connected):
        with pytest.raises(runtime.OrchestrationError):
            connected.user.user_invoke(7, b"x" * 16)
        assert isinstance(connected.device.trace.first_error(), device.NotDeployed)
        # Input was measured, output was not: an honest partial state.
        kinds = [e.kind for e in connected.user.vtpm.log]
        assert vtpm.EventKind.IP_INPUT in kinds
        assert vtpm.EventKind.IP_OUTPUT not in kinds

    def test_matmul8_through_device(self, connected):
        from oracles import brute_matmul8

        user = connected.user
        a = Rng(34).bytes(64)
        ticket = user.prepare_deploy(2, device.IpImage(kernel_id="matmul8", params=a))
        user.user_deploy(ticket)
        b = Rng(35).bytes(64)
        output, record = user.user_invoke(2, b)
        assert output == brute_matmul8(a, b)
        assert record.verdict == "Verified"

    def test_vtpm_hash_agrees_with_deployment_hash(self, connected):
        # Cross-module oracle: the vTPM's SHA3-384 of the plaintext bitstream
        # equals the hash the TMM returns for the same blob.
        user = connected.user
        image = device.IpImage(kernel_id="xor", params=bytes(range(16)))
        ticket = user.prepare_deploy(1, image)
        response, _ = user.user_deploy(ticket)
        assert response.bin_hash == user.vtpm.hash(image.encode(), vtpm.ALG_SHA3_384)


def spoil_next_crp(user):
    """Give the user's next unused CRP a response the device's PUF never gives."""
    record = next(r for r in user.crp_store.records() if not r.used)
    record.response = bytes(len(record.response))


def assert_session_ended(world, error_type):
    """One traced user error, of ``error_type``; no session at either end; and
    a later call refused with ``NoSession`` before anything is measured."""
    user = world.user
    errors = [e.error for e in user.trace.events]
    assert len(errors) == 1 and isinstance(errors[0], error_type), errors
    assert user.endpoint is None and world.device.session is None
    log, history = list(user.vtpm.log), copy.deepcopy(user.history)
    with pytest.raises(runtime.NoSession):
        user.prepare_deploy(2, device.IpImage(kernel_id="xor", params=bytes(16)))
    assert user.vtpm.log == log and user.history == history
    assert user.verify().all_verified


class TestFailedExchangesAreTraced:
    """Each failed exchange with the device is raised as the user's first
    traced error."""

    def test_lost_vtpm_hello_is_a_traced_timeout_that_ends_the_handshake(self, world):
        world.device.boot()
        tap = tapped(world.device, "send", 1, "drop-frame")
        with pytest.raises(transport.ReceiveTimeout, match="no record within 2.0s") as caught:
            world.user.connect(tap)
        assert world.user.trace.first_error() is caught.value
        # No abort record follows a timeout, but the connection is closed: the
        # device sees the peer go mid-handshake and holds nothing of it.
        errors = [e.error for e in world.device.trace.events]
        assert len(errors) == 1 and isinstance(errors[0], transport.TransportClosed)
        assert world.device._handshake is None
        with pytest.raises(transport.TransportClosed, match="peer closed the transport"):
            tap.recv_record()  # the direct pair under the tap relays no session

    def test_tampered_upload_reply_is_a_traced_auth_failure(self, world):
        # The user receives HS2, HS5, HS9, the boot report, then the upload's reply.
        world.device.boot()
        world.user.connect(tapped(world.device, "recv", 5, "tamper-frame"))
        with pytest.raises(channel.AuthFailure) as caught:
            world.user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))
        assert world.user.trace.first_error() is caught.value
        # A reply the user end cannot open ends the session, as a transport error does.
        assert world.user.endpoint is None
        with pytest.raises(runtime.NoSession):
            world.user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))

    def test_upload_answered_with_another_kind_is_a_traced_orchestration_error(
        self, connected, monkeypatch
    ):
        monkeypatch.setattr(
            messages, "encode_store_ok", lambda: bytes([messages.UPDATE_CONFIRM_D])
        )
        with pytest.raises(runtime.OrchestrationError, match="not acknowledged") as caught:
            connected.user.prepare_deploy(
                1, device.IpImage(kernel_id="xor", params=bytes(16))
            )
        assert connected.user.trace.first_error() is caught.value

    def test_failed_automatic_key_update_is_traced(self):
        world = build_world(rekey_threshold=2)
        connect_world(world)
        user = world.user
        spoil_next_crp(user)
        ticket = user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))
        # The 2nd frame: the update due after it fails and ends the session,
        # and the deploy keeps its answer.
        response, verdict = user.user_deploy(ticket)
        assert (response.response_code, verdict) == (0, "Verified")
        error = user.trace.first_error()
        assert isinstance(error, channel.ConfirmFailure)
        assert str(error) == "device confirmation of the updated key failed"
        assert not user.update_due and user.endpoint is None


class TestFailedBootReport:
    """The session is established only once the boot report is absorbed: a
    connect that fails on it closes the transport and leaves no session."""

    def _assert_no_session(self, world, conn, error):
        user = world.user
        assert user.trace.first_error() is error
        assert user.endpoint is None and user.deploy_key is None
        assert user.vtpm.log == []  # no boot component was measured
        with pytest.raises(transport.TransportClosed, match="transport is closed"):
            conn.send_record(b"x")
        with pytest.raises(runtime.NoSession):
            user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))

    @pytest.mark.parametrize("action, error", [
        ("drop-frame", transport.ReceiveTimeout),
        ("tamper-frame", channel.AuthFailure),
        ("replay-frame", channel.WrongEpoch),  # a copy of HS9, a handshake message
    ])
    def test_a_faulted_boot_report_leaves_no_session(self, world, action, error):
        world.device.boot()
        conn = tapped(world.device, "recv", 4, action)  # HS2, HS5, HS9, the boot report
        with pytest.raises(error) as caught:
            world.user.connect(conn)
        self._assert_no_session(world, conn, caught.value)

    def test_a_malformed_boot_report_leaves_no_session(self, world, monkeypatch):
        encode = messages.encode_boot_report
        monkeypatch.setattr(
            messages, "encode_boot_report", lambda report: encode([(8, *report[0][1:])])
        )
        world.device.boot()
        conn = device.DirectPair(world.device)
        with pytest.raises(messages.MessageError, match="index 8 outside") as caught:
            world.user.connect(conn)
        self._assert_no_session(world, conn, caught.value)


class TestDeviceClosesMidRequest:
    """A device that closes mid-request is a traced user error and an rc-1
    answer, not a bare TransportClosed out of ``vtpm.dispatch``."""

    def _serve(self, world, n):
        # The device receives HS1, HS3, HS8, the upload, the deploy, the invoke.
        world.device.boot()
        world.user.connect(tapped(world.device, "send", n, "close"))

    def test_invoke_names_the_cause_and_the_log_still_verifies(self, world):
        self._serve(world, 6)
        deploy_xor(world.user)
        with pytest.raises(
            runtime.OrchestrationError,
            match="invocation of IP 1 failed: peer closed the transport",
        ):
            world.user.user_invoke(1, bytes(16))
        assert isinstance(world.user.trace.first_error(), transport.TransportClosed)
        # PCR9 and history.inputs both took the input; nothing reached PCR10.
        assert len(world.user.history.inputs) == 1
        assert world.user.history.outputs == []
        assert world.user.verify().all_verified

    def test_deploy_answers_rc_1_with_the_cause_traced(self, world):
        self._serve(world, 5)
        ticket = world.user.prepare_deploy(
            1, device.IpImage(kernel_id="xor", params=bytes(range(16)))
        )
        response, verdict = world.user.user_deploy(ticket)
        assert (response.response_code, verdict) == (1, "Mismatch")
        assert isinstance(world.user.trace.first_error(), transport.TransportClosed)
        assert world.user.history.deployments == []
        assert world.user.verify().all_verified

    def test_upload_names_the_cause_and_ends_the_session(self, world):
        self._serve(world, 4)
        with pytest.raises(transport.TransportClosed, match="peer closed the transport"):
            world.user.prepare_deploy(
                1, device.IpImage(kernel_id="xor", params=bytes(range(16)))
            )
        assert isinstance(world.user.trace.first_error(), transport.TransportClosed)
        assert world.user.endpoint is None
        with pytest.raises(runtime.NoSession):
            world.user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))

    def test_key_update_answers_rc_1_and_ends_the_session(self, world):
        # The update request is the 4th record the device receives.
        self._serve(world, 4)
        assert world.user.update_key() == 1
        assert isinstance(world.user.trace.first_error(), transport.TransportClosed)
        assert world.user.endpoint is None and world.device.session is None
        assert world.user.update_key() == 1
        assert isinstance(world.user.trace.events[-1].error, runtime.NoSession)

    def test_automatic_key_update_names_the_cause_and_ends_the_session(self):
        # The deploy is the 2nd frame; the update due after it is the 6th record.
        world = build_world(rekey_threshold=2)
        self._serve(world, 6)
        ticket = world.user.prepare_deploy(
            1, device.IpImage(kernel_id="xor", params=bytes(range(16)))
        )
        response, verdict = world.user.user_deploy(ticket)  # answered before the update
        assert (response.response_code, verdict) == (0, "Verified")
        error = world.user.trace.first_error()
        assert isinstance(error, transport.TransportClosed)
        assert str(error) == "peer closed the transport"
        assert world.user.endpoint is None and world.device.session is None
        with pytest.raises(runtime.NoSession):
            world.user.prepare_deploy(2, device.IpImage(kernel_id="xor", params=bytes(16)))

    def test_the_session_ends_with_its_connection(self):
        # The deploy is the 2nd frame: a key update falls due right after
        # it, and must not be started on the closed connection.
        world = build_world(rekey_threshold=2)
        self._serve(world, 5)
        ticket = world.user.prepare_deploy(
            1, device.IpImage(kernel_id="xor", params=bytes(range(16)))
        )
        response, verdict = world.user.user_deploy(ticket)
        assert (response.response_code, verdict) == (1, "Mismatch")
        assert world.user.endpoint is None and world.device.session is None
        with pytest.raises(runtime.OrchestrationError, match="no established session"):
            world.user.user_invoke(1, bytes(16))


def interrupt_receive(user, monkeypatch, k=1):
    """Raise ``KeyboardInterrupt`` from the user's k-th receive from now, in
    place of reading the reply the device has sent."""
    recv, received = user.endpoint.recv, []

    def receive():
        received.append(None)
        if len(received) == k:
            raise KeyboardInterrupt
        return recv()

    monkeypatch.setattr(user.endpoint, "recv", receive)


class TestAnInterruptEndsTheSession:
    """An interrupt, any exception not a TrcteeError, that escapes a request
    ends the session untraced: the reply it left unread is never taken as a
    later request's answer."""

    def _connect(self, world, tcp):
        if tcp:
            tcp_connect_world(world).close()  # the listening socket; the connection stays
        else:
            connect_world(world)

    def _assert_ended(self, world):
        """Invoke B, after the interrupt, is refused unsent and unmeasured;
        nothing of the session is left at either end; the log verifies."""
        user, dev = world.user, world.device
        assert user.trace.events == [] and user.endpoint is None
        log, history, pcr9 = list(user.vtpm.log), copy.deepcopy(user.history), user.vtpm.pcr_read(9)
        with pytest.raises(runtime.OrchestrationError, match="no established session"):
            user.user_invoke(1, b"\xbb" * 16)
        assert isinstance(user.trace.first_error(), runtime.NoSession)
        assert (user.vtpm.log, user.history, user.vtpm.pcr_read(9)) == (log, history, pcr9)
        if world.thread is not None:
            world.thread.join(5.0)
            assert not world.thread.is_alive()
        assert (dev.session, dev._pending, dev.tmm) == (None, None, None)
        assert dev.trace.events == []
        assert user.verify().all_verified

    @pytest.mark.parametrize("tcp", [False, True], ids=["direct", "tcp"])
    def test_an_interrupted_invoke_leaves_its_reply_unread(self, world, tcp, monkeypatch):
        self._connect(world, tcp)
        deploy_xor(world.user, params=bytes(16))  # a zero xor key: an output is its input
        interrupt_receive(world.user, monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            world.user.user_invoke(1, b"\xaa" * 16)
        self._assert_ended(world)

    @pytest.mark.parametrize("tcp", [False, True], ids=["direct", "tcp"])
    @pytest.mark.parametrize("update", ["explicit", "automatic"])
    def test_an_interrupted_key_update_ends_the_session(self, world, update, tcp, monkeypatch):
        world.user.rekey_threshold = 3
        self._connect(world, tcp)
        user = world.user
        deploy_xor(user, params=bytes(16))  # frames 1 and 2
        if update == "explicit":
            interrupt_receive(user, monkeypatch)  # UPDATE_CONFIRM_D's
            with pytest.raises(KeyboardInterrupt):
                user.update_key()
        else:
            interrupt_receive(user, monkeypatch, 2)  # the invoke's reply is read first
            with pytest.raises(KeyboardInterrupt):
                user.user_invoke(1, b"\xaa" * 16)  # frame 3: the update falls due
            assert user.history.outputs == [sha384(b"\xaa" * 16)]
        self._assert_ended(world)

    def test_an_interrupted_handshake_closes_the_transport_untraced(self, world, monkeypatch):
        world.device.boot()
        pair = device.DirectPair(world.device)

        def interrupted(timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(pair, "recv_record", interrupted)
        with pytest.raises(KeyboardInterrupt):
            world.user.connect(pair)
        assert world.user.trace.events == [] and world.user.endpoint is None
        assert world.device._handshake is None
        with pytest.raises(transport.TransportClosed, match="transport is closed"):
            pair.send_record(b"x")
        monkeypatch.undo()
        assert pair.recv_record()[0] == 0x12  # the device hello the interrupt left unread
        with pytest.raises(transport.TransportClosed, match="peer closed the transport"):
            pair.recv_record()  # and then the pair relays no session


class TestARejectedReplyEndsTheSession:
    """A reply that opens but that the user end rejects ends the session, as
    one it cannot open does: its request got no answer of its own."""

    def test_an_update_confirm_d_of_another_kind(self, connected, monkeypatch):
        respond = channel.respond_update
        monkeypatch.setattr(
            channel, "respond_update", lambda *args: (messages.encode_store_ok(), respond(*args)[1])
        )
        assert connected.user.update_key() == 1
        assert_session_ended(connected, messages.MessageError)

    def test_an_upload_answered_with_another_kind(self, connected, monkeypatch):
        monkeypatch.setattr(messages, "encode_store_ok", lambda: bytes([messages.UPDATE_CONFIRM_D]))
        with pytest.raises(runtime.OrchestrationError, match="not acknowledged"):
            connected.user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))
        assert_session_ended(connected, runtime.OrchestrationError)

    def test_a_deploy_response_that_does_not_decode(self, connected, monkeypatch):
        ticket = connected.user.prepare_deploy(1, device.IpImage("xor", bytes(16)))
        monkeypatch.setattr(connected.device, "_execute", lambda command: wire.InvokeResp(b"x"))
        response, verdict = connected.user.user_deploy(ticket)
        assert (response.response_code, verdict) == (1, "Mismatch")
        assert_session_ended(connected, wire.WireError)

    def test_an_invoke_response_that_does_not_decode(self, connected, monkeypatch):
        deploy_xor(connected.user)
        monkeypatch.setattr(
            connected.device, "_execute", lambda command: wire.DeployResp(bytes(48))
        )
        with pytest.raises(runtime.OrchestrationError, match="invocation of IP 1 failed: "):
            connected.user.user_invoke(1, bytes(16))
        assert_session_ended(connected, wire.WireError)


class TestKeyUpdateFlow:
    def test_command_triggered_update(self, connected):
        user = connected.user
        assert user.update_key() == 0
        assert user.endpoint.session.epoch == 1

    def test_update_with_consumed_challenge_fails(self, connected):
        user = connected.user
        used = [r for r in user.crp_store.records() if r.used][0]
        epoch = user.endpoint.session.epoch
        assert user.update_key(used.challenge) == 1
        assert user.endpoint.session.epoch == epoch

    def test_an_update_the_device_cannot_confirm_ends_the_session(self, connected):
        # The vTPM derives its key from a wrong response, so UPDATE_CONFIRM_D
        # does not verify; the vTPM sends no V and closes.
        user = connected.user
        deploy_xor(user)
        spoil_next_crp(user)
        assert user.update_key() == 1
        assert str(user.trace.first_error()) == "device confirmation of the updated key failed"
        assert_session_ended(connected, channel.ConfirmFailure)

    def test_channel_still_works_after_update(self, connected):
        user = connected.user
        deploy_xor(user)
        user.update_key()
        output, record = user.user_invoke(1, bytes(16))
        assert record.verdict == "Verified"

    def test_lost_update_confirm_v_is_recovered(self, world):
        # The device receives HS1, HS3, HS8, the upload, the deploy, the update
        # request, then UPDATE_CONFIRM_V: the 7th record, lost here.  The vTPM
        # switched once it sent V, so its next frame is of the new epoch.
        world.device.boot()
        world.user.connect(tapped(world.device, "send", 7, "drop-frame"))
        deploy_xor(world.user)
        assert world.user.update_key() == 0
        output, record = world.user.user_invoke(1, bytes(16))
        assert record.verdict == "Verified"
        assert world.device.session.sess_key == world.user.endpoint.session.sess_key
        assert [e.kind for e in world.device.trace.events] == ["rekey"]

    def test_failed_invoke_on_the_threshold_frame_still_updates_the_key(self):
        world = build_world(rekey_threshold=2)
        connect_world(world)
        user = world.user
        deploy_xor(user)  # frames 1 and 2: the update after them opens epoch 1
        for _ in range(2):  # a 3-byte input to a 16-byte xor IP is a kernel fault
            with pytest.raises(runtime.OrchestrationError, match="invocation of IP 1 failed"):
                user.user_invoke(1, bytes(3))
        assert user.endpoint.session.epoch == world.device.session.epoch == 2
        output, record = user.user_invoke(1, bytes(16))
        assert record.verdict == "Verified"
        user.close()

    def _refuse_the_threshold_upload(self, monkeypatch):
        """Frame 2, an upload, answered with another kind than STORE_OK: a
        reply the user rejects.  Returns the refused upload's error."""
        world = build_world(rekey_threshold=2)
        connect_world(world)
        image = device.IpImage(kernel_id="xor", params=bytes(16))
        world.user.prepare_deploy(1, image)  # frame 1
        with monkeypatch.context() as patch:
            patch.setattr(messages, "encode_store_ok", lambda: bytes([messages.UPDATE_CONFIRM_D]))
            with pytest.raises(runtime.OrchestrationError, match="not acknowledged") as caught:
                world.user.prepare_deploy(2, image)
        return world, caught.value

    def test_a_failed_upload_on_the_threshold_frame_ends_the_session(self, monkeypatch):
        world, error = self._refuse_the_threshold_upload(monkeypatch)
        assert world.user.trace.first_error() is error
        assert_session_ended(world, runtime.OrchestrationError)

    def test_a_failed_upload_on_the_threshold_frame_starts_no_update(self, monkeypatch):
        world, _ = self._refuse_the_threshold_upload(monkeypatch)
        # The handshake's CRP is the only one spent: no update request was sent.
        assert [r.used for r in world.user.crp_store.records()].count(True) == 1
        assert world.device.trace.events == []

    def test_a_failed_automatic_update_ends_the_session_after_its_requests_answer(self):
        world = build_world(rekey_threshold=2)
        connect_world(world)
        user = world.user
        spoil_next_crp(user)
        ticket = user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))
        response, verdict = user.user_deploy(ticket)  # the update after it fails
        assert (response.response_code, verdict) == (0, "Verified")
        assert user.history.deployments == [(1, response.bin_hash)]
        assert_session_ended(world, channel.ConfirmFailure)

    def test_a_failed_update_is_not_retried_before_the_next_request(self):
        world = build_world(rekey_threshold=2)
        connect_world(world)
        user = world.user
        for record in [r for r in user.crp_store.records() if not r.used][:2]:
            record.response = bytes(len(record.response))
        ticket = user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))
        user.user_deploy(ticket)  # the update after it fails and ends the session
        log, history, pcr9 = list(user.vtpm.log), copy.deepcopy(user.history), user.vtpm.pcr_read(9)
        with pytest.raises(runtime.OrchestrationError, match="no established session"):
            user.user_invoke(1, bytes(16))
        assert isinstance(user.trace.events[-1].error, runtime.NoSession)
        assert user.vtpm.pcr_read(9) == pcr9
        assert user.history == history and user.vtpm.log == log
        # The handshake's CRP and the failed update's: the second spoiled one is unsent.
        assert [r.used for r in user.crp_store.records()].count(True) == 2

    def test_update_with_no_unused_crp_answers_rc_1_traced(self):
        world = build_world(crp_slice=1)
        connect_world(world)  # the handshake takes the only CRP
        user = world.user
        assert user.update_key() == 1
        assert [(e.actor, e.kind) for e in user.trace.events] == [("user", "error")]
        assert isinstance(user.trace.first_error(), CrpExhausted)
        assert user.endpoint.session.epoch == world.device.session.epoch == 0
        user.close()

    def test_interrupted_request_starts_no_update(self, monkeypatch):
        world = build_world(rekey_threshold=1)
        connect_world(world)
        user, received = world.user, []

        def interrupted():
            received.append(None)
            raise KeyboardInterrupt

        monkeypatch.setattr(user.endpoint, "recv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))
        assert received == [None]  # the upload's reply only: no update was started
        assert user.trace.events == []  # an interrupt is not traced
        assert user.endpoint is None and world.device.session is None

    def test_counter_triggered_update(self):
        world = build_world(seed=9, rekey_threshold=4)
        connect_world(world)
        user = world.user
        deploy_xor(user)  # 2 frames (upload + deploy)
        user.user_invoke(1, b"1" * 16)  # 3rd
        assert user.endpoint.session.epoch == 0
        user.user_invoke(1, b"2" * 16)  # 4th crosses the threshold
        assert user.endpoint.session.epoch == 1
        user.user_invoke(1, b"3" * 16)  # fresh epoch counts from zero
        assert user.endpoint.session.epoch == 1
        user.close()


class TestSingleFaultSweep:
    """One script at rekey threshold 2 under each single fault the tap
    schedules: every fault on every record, either way, and ``delay-frame``
    on every record received.  Unfaulted, the user sends 18 records: HS1,
    HS3, HS8, the upload, the deploy and the update due after it
    (UPDATE_REQ, UPDATE_CONFIRM_V), two invokes and an update,
    two more invokes and an update, an explicit update, and one more invoke.
    It receives 15: HS2, HS5, HS9, the boot report, then one answer to each
    upload, deploy, invoke and update.  Each output delivered is its own
    request's answer."""

    SENT, RECEIVED = 18, 15
    SINGLE_FAULTS = [
        (direction, k, action)
        for direction, records in (("send", SENT), ("recv", RECEIVED))
        for k in range(1, records + 1)
        for action in (*transport.AdversaryTap.ACTIONS, "close")
    ] + [("recv", k, "delay-frame") for k in range(1, RECEIVED + 1)]

    # One fault of each kind each way, on the first invoke: the 8th record
    # sent is its request, the 8th received its reply.  Then the replayed
    # UPDATE_REQ sent in place of V: the device aborts on it and closes, and
    # V, sent to the closed peer, is lost, as it is in process.
    TCP_TWINS = [
        (direction, 8, action)
        for direction in ("send", "recv")
        for action in (*transport.AdversaryTap.ACTIONS, "close")
    ] + [("recv", 8, "delay-frame"), ("send", 7, "replay-frame")]

    def _run(self, monkeypatch, *fault, tcp=False, user_timeout=2.0):
        """Run the script on a fresh world through a tap with ``fault``, if
        any, over a direct pair or TCP; every call returns or raises a
        TrcteeError."""
        world = build_world(seed=11, rekey_threshold=2)
        user, answered = world.user, []
        user.recv_timeout = user_timeout
        respond = world.puf_device.respond
        monkeypatch.setattr(
            world.puf_device, "respond", lambda c: answered.append(bytes(c)) or respond(c)
        )
        world.device.boot()
        if tcp:
            with transport.listen("127.0.0.1", 0) as server:
                user_side = transport.connect("127.0.0.1", server.getsockname()[1])
                device_side = transport.accept_one(server, 5)
            # Nagle holds a record sent right after another until the peer's
            # delayed ACK (40 ms on Linux), too near a 0.05 s user timeout.
            for end in (user_side, device_side):
                end._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            world.thread = device.serve_in_thread(world.device, device_side)
        else:
            user_side = device.DirectPair(world.device)
        tap = transport.AdversaryTap(user_side)
        if fault:
            tap.schedule(*fault)

        def attempt(call, *args):
            try:
                return call(*args)
            except TrcteeError:
                return None

        def invoke(data):
            answer = attempt(user.user_invoke, 1, data)
            # The xor key is all zeros: a delivered output is its own request's input.
            assert answer is None or answer[0] == data, f"{data.hex()} answered {answer[0].hex()}"

        attempt(user.connect, tap)
        if user.endpoint is not None:
            ticket = attempt(user.prepare_deploy, 1, device.IpImage("xor", bytes(16)))
            attempt(user.user_deploy, ticket or runtime.DeployTicket(1, b"", device.blob_name(1)))
            for i in range(4):
                invoke(bytes([i]) * 16)
            attempt(user.update_key)
            invoke(bytes([4]) * 16)
        return world, tap, answered

    def _end(self, world, tap):
        """Close the user end (a failed connect has closed the tap already),
        then check that nothing of the session outlives it at either end."""
        world.user.close()
        if world.thread is not None:
            world.thread.join(5.0)
            assert not world.thread.is_alive()
        dev, user = world.device, world.user
        assert (dev.session, dev._pending, dev._handshake, dev.tmm) == (None, None, None, None)
        assert user.endpoint is None and user.deploy_key is None

    def _twins(self, monkeypatch, fault):
        """How the run with ``fault`` ends in process and over TCP, each at a
        user timeout of 0.05 s: the user's error classes, whether its session
        is alive, and the tap log."""
        ends = []
        for tcp in (False, True):
            world, tap, _ = self._run(monkeypatch, *fault, tcp=tcp, user_timeout=0.05)
            user = world.user
            ends.append(([type(e.error) for e in user.trace.events], user.endpoint is not None, tap.log))
            self._end(world, tap)
        return ends

    def test_an_unfaulted_run_sends_18_records_and_receives_15(self, monkeypatch):
        world, tap, _ = self._run(monkeypatch)
        assert (tap.sent, tap.received) == (self.SENT, self.RECEIVED)
        assert world.user.trace.events == []
        assert world.user.endpoint.session.epoch == world.device.session.epoch == 4
        self._end(world, tap)

    def test_an_unfaulted_run_over_tcp_ends_with_its_serve_thread(self, monkeypatch):
        world, tap, _ = self._run(monkeypatch, tcp=True)
        assert (tap.sent, tap.received) == (self.SENT, self.RECEIVED)
        assert world.user.trace.events == []
        assert [e.kind for e in world.device.trace.events] == ["rekey"] * 4
        self._end(world, tap)

    @pytest.mark.parametrize("direction, k, action", SINGLE_FAULTS)
    def test_each_run_ends_consistent_or_with_the_session_gone(
        self, direction, k, action, monkeypatch
    ):
        world, tap, answered = self._run(monkeypatch, direction, k, action)
        user = world.user
        errors = [e.error for e in user.trace.events]
        assert not any(isinstance(e, channel.RekeyRequired) for e in errors), errors
        assert len(answered) == len(set(answered))  # no CRP challenge reached the PUF twice
        if user.endpoint is not None:
            assert user.endpoint.session.epoch == world.device.session.epoch
            assert user.verify().all_verified
        else:
            assert errors and all(isinstance(e, TrcteeError) for e in errors)
        self._end(world, tap)

    @pytest.mark.parametrize("direction, k, action", TCP_TWINS)
    def test_each_fault_ends_over_tcp_as_it_does_in_process(
        self, direction, k, action, monkeypatch
    ):
        in_process, over_tcp = self._twins(monkeypatch, (direction, k, action))
        assert over_tcp == in_process

    @pytest.mark.parametrize("action", ["tamper-frame", "replay-frame"])
    @pytest.mark.parametrize("k", range(4, SENT + 1))  # each record sent after HS1, HS3, HS8
    def test_a_rejected_request_is_named_by_the_devices_abort(self, k, action, monkeypatch):
        world, tap, _ = self._run(monkeypatch, "send", k, action)
        errors = [e.error for e in world.user.trace.events]
        cause = world.device.trace.first_error()
        assert isinstance(errors[0], channel.PeerAborted)
        assert str(errors[0]) == f"device aborted the session: {type(cause).__name__}"
        assert not any(isinstance(e, transport.ReceiveTimeout) for e in errors), errors
        assert world.user.endpoint is None
        with pytest.raises(transport.TransportClosed, match="peer closed the transport"):
            tap.recv_record()  # the device ended the session the pair relayed

    @pytest.mark.parametrize("k, invokes", [(6, 0), (10, 2)])
    def test_a_lost_update_request_ends_the_session_after_its_requests_answer(
        self, k, invokes
    ):
        # Record 6 is the UPDATE_REQ due after the deploy, record 10 the one
        # due after the second invoke: the request that made it due keeps its
        # answer, and the update's receive timeout ends the session.
        world = build_world(seed=11, rekey_threshold=2)
        user = world.user
        world.device.boot()
        user.connect(tapped(world.device, "send", k, "drop-frame"))
        ticket = user.prepare_deploy(1, device.IpImage("xor", bytes(16)))
        response, verdict = user.user_deploy(ticket)
        assert (response.response_code, verdict) == (0, "Verified")
        for i in range(invokes):
            output, record = user.user_invoke(1, bytes([i]) * 16)
            assert output == bytes([i]) * 16 and record.verdict == "Verified"
        assert [type(e.error) for e in user.trace.events] == [transport.ReceiveTimeout]
        assert user.endpoint is None and world.device.session is None
        inputs = list(user.history.inputs)
        with pytest.raises(runtime.OrchestrationError, match="no established session"):
            user.user_invoke(1, bytes(16))
        assert user.history.inputs == inputs  # refused before anything was measured
        assert user.verify().all_verified


class TestRekeyThreshold:
    """The user node alone counts the vTPM's frames against the threshold."""

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_threshold_below_one_is_refused(self, threshold):
        with pytest.raises(ValueError, match="rekey threshold must be at least 1"):
            build_world(rekey_threshold=threshold)

    @pytest.mark.parametrize("threshold", [1, 2, 4])
    def test_update_falls_due_after_exactly_threshold_frames(self, threshold):
        world = build_world(rekey_threshold=threshold, crp_slice=1)
        connect_world(world)  # the handshake takes the only CRP
        user = world.user
        due = []  # the automatic update finds no CRP, so it stays due
        for ip_num in range(threshold):  # one frame each
            user.prepare_deploy(ip_num, device.IpImage(kernel_id="xor", params=bytes(16)))
            due.append(user.update_due)
        assert due == [False] * (threshold - 1) + [True]
        assert isinstance(user.trace.first_error(), CrpExhausted)
        assert user.endpoint.session.epoch == 0
        user.close()

    def _refuse(self, command, command_code):
        """Dispatch ``command`` raw while an update is due: it must answer rc 1
        with ``RekeyRequired`` traced, unsent and unmeasured."""
        world = build_world(rekey_threshold=2, crp_slice=1)
        world.device.boot()
        user = world.user
        tap = transport.AdversaryTap(device.DirectPair(world.device))
        user.connect(tap)
        records = tap.log
        deploy_xor(user)  # frames 1 and 2; the update due after them finds no CRP
        assert isinstance(user.trace.first_error(), CrpExhausted)
        session, sent = user.endpoint.session, len(records)
        epoch, counter = session.epoch, session.send_counter
        log, history = list(user.vtpm.log), copy.deepcopy(user.history)
        registers = [user.vtpm.pcr_read(index) for index in (8, 9, 10)]
        response = user.vtpm.dispatch(wire.encode(command))
        assert wire.decode_response(response, command_code).response_code == 1
        error = user.trace.events[-1].error
        assert isinstance(error, channel.RekeyRequired)
        assert str(error) == "2 frames sent this epoch; update the key first"
        assert len(records) == sent
        assert (session.epoch, session.send_counter) == (epoch, counter)
        assert [user.vtpm.pcr_read(index) for index in (8, 9, 10)] == registers
        assert user.history == history and user.vtpm.log == log
        user.close()

    def test_a_vtpm_command_while_an_update_is_due_is_refused_unsent(self):
        self._refuse(wire.InvokeCmd(ip_num=1, input=bytes(16)), wire.CC_INVOKE)

    def test_a_deploy_command_while_an_update_is_due_is_refused_unsent(self):
        self._refuse(wire.DeployCmd(ip_num=2), wire.CC_DEPLOY)


class TestRekeyBudget:
    def test_exhausted_budget_refuses_before_anything_is_measured(self):
        world = build_world(seed=12, rekey_threshold=4, crp_slice=1)
        connect_world(world)  # the handshake takes the only CRP
        user = world.user
        try:
            deploy_xor(user)  # frames 1 and 2
            user.user_invoke(1, b"1" * 16)  # frame 3
            # Frame 4 makes a key update due, with no CRP left for it: the
            # invoke is answered, and the update's CrpExhausted is traced.
            output, record = user.user_invoke(1, b"2" * 16)
            assert len(output) == 16 and record.verdict == "Verified"
            assert isinstance(user.trace.first_error(), CrpExhausted)
            log, history = list(user.vtpm.log), copy.deepcopy(user.history)
            registers = user.vtpm.pcr_read(9), user.vtpm.pcr_read(10)
            sent = user.endpoint.session.send_counter
            # The update is still due and fails again, so the next invoke is refused.
            with pytest.raises(CrpExhausted, match="no unused CRP left") as caught:
                user.user_invoke(1, b"3" * 16)
            assert user.trace.events[-1].error is caught.value
            assert user.vtpm.log == log
            assert (user.vtpm.pcr_read(9), user.vtpm.pcr_read(10)) == registers
            assert user.history == history
            assert user.endpoint.session.send_counter == sent
            assert user.verify().all_verified
        finally:
            user.close()


class TestVerifier:
    def test_clean_run_all_verified(self, connected):
        user = connected.user
        deploy_xor(user)
        user.user_invoke(1, b"E" * 16)
        user.update_key()
        report = user.verify()
        assert report.all_verified
        assert len(report.registers) == 24

    def test_tampered_component_mismatch_only_pcr6(self):
        world = build_world(seed=10)
        world.boot_image.tamper("linux")
        connect_world(world)
        report = world.user.verify()
        assert report.mismatched_indices() == [6]
        world.user.close()

    def test_forged_log_entry_detected(self, connected):
        user = connected.user
        deploy_xor(user)
        log_text = user.export_log()
        lines = log_text.splitlines()
        seq, idx, kind, label, digest_hex = lines[0].split(", ")
        forged = bytearray(bytes.fromhex(digest_hex))
        forged[0] ^= 0xFF
        lines[0] = ", ".join([seq, idx, kind, label, forged.hex()])
        report = runtime.verify_attestation(
            "\n".join(lines) + "\n", user.golden_manifest, user.history
        )
        assert 0 in report.mismatched_indices()

    def test_verifier_uses_only_exported_data(self, connected):
        user = connected.user
        deploy_xor(user)
        log_text = user.export_log()
        manifest = list(user.golden_manifest)
        history = user.history
        user.close()  # live state gone
        report = runtime.verify_attestation(log_text, manifest, history)
        assert report.all_verified

    def test_machine_line_format(self, connected):
        report = connected.user.verify()
        line = report.machine_lines().splitlines()[0]
        index, verdict, expected, actual = line.split(" ")
        assert index == "0" and verdict == "Verified"
        assert len(bytes.fromhex(expected)) == 48 and expected == actual

    def test_missing_history_shows_mismatch(self, connected):
        user = connected.user
        deploy_xor(user)
        report = runtime.verify_attestation(
            user.export_log(), user.golden_manifest, runtime.ExpectedHistory()
        )
        assert report.mismatched_indices() == [8]

    def test_long_log_verifies_in_bounded_memory(self, connected):
        # A synthetic 8,000-event session: boot measurements, then input and
        # output events of one IP, as a long run of invokes leaves them.
        engine, history = vtpm.Vtpm(rng=Rng(11)), runtime.ExpectedHistory()
        manifest, ip_num = connected.user.golden_manifest, 1
        for index, (name, digest) in enumerate(manifest):
            engine.pcr_extend(index, digest, vtpm.EventKind.BOOT_COMPONENT, name)
        for n in range((8000 - len(manifest)) // 2):
            digest = hashlib.sha384(n.to_bytes(4, "big")).digest()
            engine.pcr_extend(9, digest, vtpm.EventKind.IP_INPUT, f"invoke-ip{ip_num}-input")
            engine.pcr_extend(10, digest, vtpm.EventKind.IP_OUTPUT, f"invoke-ip{ip_num}-output")
            history.inputs.append(digest)
            history.outputs.append(digest)
        assert len(engine.log) == 8000
        tracemalloc.start()
        try:
            report = runtime.verify_attestation(engine.export_log(), manifest, history)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_verified
        assert peak < 3.5e6
        assert not hasattr(engine.log[0], "__dict__")

        user = connected.user
        deploy_xor(user)
        user.user_invoke(1, b"G" * 16)
        user.user_invoke(1, b"H" * 16)
        inputs = [e for e in user.vtpm.log if e.kind is vtpm.EventKind.IP_INPUT]
        assert inputs[0].label is inputs[1].label


    def test_streamed_verify_matches_text_verify(self, connected):
        user = connected.user
        deploy_xor(user)
        user.user_invoke(1, b"S" * 16)
        user.update_key()
        tampered = build_world(seed=10)
        tampered.boot_image.tamper("linux")
        connect_world(tampered)
        try:
            for node in (user, tampered.user):
                report = runtime.verify_attestation(
                    node.export_log(), node.golden_manifest, node.history
                )
                assert node.verify() == report
            assert report.mismatched_indices() == [6]
        finally:
            tampered.user.close()

    def test_streamed_verify_of_a_long_log_allocates_no_log_copy(self, connected):
        engine, history = vtpm.Vtpm(rng=Rng(11)), runtime.ExpectedHistory()
        manifest = connected.user.golden_manifest
        for index, (name, digest) in enumerate(manifest):
            engine.pcr_extend(index, digest, vtpm.EventKind.BOOT_COMPONENT, name)
        for n in range((8000 - len(manifest)) // 2):
            digest = hashlib.sha384(n.to_bytes(4, "big")).digest()
            engine.pcr_extend(9, digest, vtpm.EventKind.IP_INPUT, "invoke-ip1-input")
            engine.pcr_extend(10, digest, vtpm.EventKind.IP_OUTPUT, "invoke-ip1-output")
            history.inputs.append(digest)
            history.outputs.append(digest)
        text = engine.export_log()  # built before tracing starts
        # Whole-log copies of 8,000 events cost megabytes: a list of lines,
        # the joined text, a list of parsed events.
        for log in (vtpm.export_lines(engine.log), text):
            tracemalloc.start()
            try:
                report = runtime.verify_attestation(log, manifest, history)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.all_verified
            assert peak < 256 * 1024


class TestHistoryPersistence:
    def test_save_load_round_trip(self, connected, tmp_path):
        user = connected.user
        deploy_xor(user)
        user.user_invoke(1, b"F" * 16)
        path = str(tmp_path / "history.txt")
        user.history.save(path)
        loaded = runtime.ExpectedHistory.load(path)
        assert loaded == user.history


    @pytest.mark.parametrize(
        "line",
        [
            "input zz",
            "input " + "ab" * 47,
            "output " + "ab" * 49,
            "output " + "ab " * 47 + "ab",
            "deploy 1",
            "deploy x " + "ab" * 48,
            "deploy 70000 " + "ab" * 48,
            "deploy -1 " + "ab" * 48,
            "inputs " + "ab" * 48,
        ],
    )
    def test_malformed_line_is_a_history_format_error(self, tmp_path, line):
        path = tmp_path / "history.txt"
        path.write_text("trctee-history v1\ninput " + "cd" * 48 + "\n" + line + "\n")
        with pytest.raises(runtime.HistoryFormatError, match="line 3"):
            runtime.ExpectedHistory.load(str(path))

    def test_missing_header_is_a_history_format_error(self, tmp_path):
        path = tmp_path / "history.txt"
        path.write_text("input " + "cd" * 48 + "\n")
        with pytest.raises(runtime.HistoryFormatError):
            runtime.ExpectedHistory.load(str(path))

    @settings(max_examples=300)
    @given(
        lines=st.lists(
            st.one_of(
                st.text(alphabet=" 0123456789abcdefxyz-", max_size=110),
                st.sampled_from(["deploy ", "input ", "output "]).flatmap(
                    lambda kind: st.text(alphabet=" 0123456789abcdef", max_size=110).map(
                        lambda rest: kind + rest
                    )
                ),
            ),
            max_size=6,
        )
    )
    def test_load_is_total(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("history") / "h.txt"
        path.write_text("\n".join(["trctee-history v1", *lines]) + "\n")
        try:
            history = runtime.ExpectedHistory.load(str(path))
        except runtime.HistoryFormatError:
            return
        for digest in history.inputs + history.outputs:
            assert len(digest) == 48
        for ip_num, bin_hash in history.deployments:
            assert 0 <= ip_num <= 0xFFFF and len(bin_hash) == 48


def tcp_connect_world(world, *fault):
    """Like ``connect_world``, over TCP loopback, through a tap whose one
    fault is ``fault`` if one is given; returns the listening socket."""
    world.device.boot()
    server = transport.listen("127.0.0.1", 0)
    user_side = transport.connect("127.0.0.1", server.getsockname()[1])
    world.thread = device.serve_in_thread(world.device, transport.accept_one(server, 5))
    if fault:
        user_side = transport.AdversaryTap(user_side)
        user_side.schedule(*fault)
    world.user.connect(user_side)
    return server


class TestDeviceTimerStopsAtTheHandshake:
    def test_a_dropped_request_over_tcp_is_the_users_own_timeout(self, world):
        # The device's timer is the shorter, but it bounds only the handshake:
        # the user, not the device, times out on the dropped invoke request,
        # and its timeout ends the session.
        world.device.recv_timeout, world.user.recv_timeout = 0.1, 0.5
        server = tcp_connect_world(world, "send", 6, "drop-frame")
        try:
            deploy_xor(world.user)
            with pytest.raises(runtime.OrchestrationError, match="no record within 0.5s"):
                world.user.user_invoke(1, bytes(16))
            assert isinstance(world.user.trace.first_error(), transport.ReceiveTimeout)
            assert world.user.endpoint is None
            with pytest.raises(runtime.OrchestrationError, match="no established session"):
                world.user.user_invoke(1, bytes(16))
        finally:
            world.user.close()
            world.thread.join(timeout=5)
            server.close()
        assert not world.thread.is_alive()
        assert world.device.trace.events == []


class TestDeviceAbortArrivesAtOnce:
    """A request the device rejects is answered by its abort record, so the
    step fails in milliseconds, well inside the world's 2 s timers."""

    @pytest.mark.parametrize(
        "action, cause",
        [("tamper-frame", channel.AuthFailure), ("replay-frame", channel.ReplayDetected)],
    )
    @pytest.mark.parametrize("tcp", [False, True], ids=["direct", "tcp"])
    def test_a_rejected_invoke_request_fails_with_peer_aborted(self, world, tcp, action, cause):
        # The device receives HS1, HS3, HS8, the upload, the deploy, the invoke.
        if tcp:
            server = tcp_connect_world(world, "send", 6, action)
        else:
            world.device.boot()
            world.user.connect(tapped(world.device, "send", 6, action))
        try:
            deploy_xor(world.user)
            start = time.perf_counter()
            with pytest.raises(
                runtime.OrchestrationError, match=f"device aborted the session: {cause.__name__}$"
            ):
                world.user.user_invoke(1, bytes(16))
            elapsed = time.perf_counter() - start
        finally:
            if tcp:
                world.thread.join(timeout=5)
                server.close()
        assert elapsed < 0.1, f"{elapsed * 1000:.0f} ms"
        assert isinstance(world.user.trace.first_error(), channel.PeerAborted)
        assert world.user.endpoint is None
        assert isinstance(world.device.trace.first_error(), cause)
        assert world.thread is None or not world.thread.is_alive()


class TestLargeInvokeOverTcp:
    def test_1_mib_xor_invoke_peak_allocation(self, world):
        # Each hop holds one buffer per payload, decrypted in place and
        # decoded once: the bound is 7x the payload, where a fresh plaintext
        # and a second decode peaked above 8x, and a copy per hop above 11x.
        size = 1 << 20
        server = tcp_connect_world(world)
        try:
            params, data = Rng(35).bytes(size), Rng(36).bytes(size)
            deploy_xor(world.user, params=params)
            world.user.user_invoke(1, data)  # warm
            tracemalloc.start()
            try:
                output, record = world.user.user_invoke(1, data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            world.user.close()
            world.thread.join(timeout=5)  # serve closes the device's end
            server.close()
        assert not world.thread.is_alive()
        assert output == (int.from_bytes(params, "big") ^ int.from_bytes(data, "big")).to_bytes(
            size, "big"
        )
        assert record.verdict == "Verified"
        assert peak <= 7 * size, f"peak {peak / size:.2f}x the payload"


class TestOversizeRecord:
    """A record over ``transport.MAX_RECORD`` is refused before a byte of it is
    sent: the same typed error over the direct pair and TCP, traced as the
    user's, and the session goes on at both ends.  An oversize Invoke_CMD is
    refused before it is measured: PCR9 and the history are as they were."""

    def _session(self, world, tcp):
        if not tcp:
            connect_world(world)
            return self._oversize(world)
        server = tcp_connect_world(world)
        try:
            return self._oversize(world)
        finally:
            world.user.close()
            world.thread.join(timeout=5)
            server.close()
            assert not world.thread.is_alive()

    def _oversize(self, world):
        user = world.user
        deploy_xor(user)
        with pytest.raises(transport.RecordTooLarge) as upload:
            user.prepare_deploy(2, device.IpImage(kernel_id="xor", params=bytes(17 << 20)))
        inputs, pcr9 = len(user.history.inputs), user.vtpm.pcr_read(vtpm.INPUT_PCR)
        with pytest.raises(runtime.OrchestrationError) as invoke:
            user.user_invoke(1, bytes(transport.MAX_RECORD))
        assert len(user.history.inputs) == inputs == len(user.history.outputs)
        assert user.vtpm.pcr_read(vtpm.INPUT_PCR) == pcr9
        user_end, device_end = user.endpoint.session, world.device.session
        state = [
            [(e.actor, type(e.error), str(e.error)) for e in user.trace.events],
            [(s.epoch, s.send_counter, s.recv_counter) for s in (user_end, device_end)],
            [user.vtpm.pcr_read(index) for index in range(vtpm.PCR_COUNT)],
            copy.deepcopy(user.history),
            user.user_invoke(1, bytes(16)),  # the session goes on
            user.verify().all_verified,
        ]
        return upload.value, str(invoke.value), state

    def test_the_same_refusal_and_session_on_every_transport(self):
        direct = self._session(build_world(), tcp=False)
        over_tcp = self._session(build_world(), tcp=True)
        cap = f"exceeds the {transport.MAX_RECORD} cap"
        upload, invoke, state = direct
        assert str(upload) == f"record of 17825889 bytes {cap}"  # 17 MiB image + 97
        assert invoke.endswith(f"record of {transport.MAX_RECORD + 60} bytes {cap}")
        assert [event[:2] for event in state[0]] == [("user", transport.RecordTooLarge)] * 2
        assert state[1] == [(0, 2, 3), (0, 3, 2)] and state[5]  # upload and deploy only
        assert (type(over_tcp[0]), str(over_tcp[0]), *over_tcp[1:]) == (
            type(upload), str(upload), invoke, state
        )


# Minor page faults per warm 256 KiB invoke over TCP, xor and add_const
# alternating, results dropped at once: of the invoking thread, then of the
# whole process, the device thread included.
_FAULT_PROBE = """
import resource

from conftest import build_world
from trctee import device, transport
from trctee.crypto import Rng

size = 256 * 1024
world = build_world()
world.device.boot()
server = transport.listen("127.0.0.1", 0)
user_side = transport.connect("127.0.0.1", server.getsockname()[1])
world.thread = device.serve_in_thread(world.device, transport.accept_one(server, 5))
user = world.user
user.connect(user_side)
for ip_num, image in ((1, device.IpImage("xor", Rng(1).bytes(size))),
                      (2, device.IpImage("add_const", bytes([5])))):
    user.user_deploy(user.prepare_deploy(ip_num, image))
data = Rng(2).bytes(size)
for i in range(50):
    user.user_invoke(1 + i % 2, data)
before = [resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_THREAD, resource.RUSAGE_SELF)]
for i in range(100):
    user.user_invoke(1 + i % 2, data)
after = [resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_THREAD, resource.RUSAGE_SELF)]
print(*((a - b) / 100 for a, b in zip(after, before)))
user.close()
world.thread.join(5)
server.close()
"""


class TestWarmInvokeFaults:
    @pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs RUSAGE_THREAD")
    def test_warm_256_kib_invoke_does_not_page_fault(self):
        # In a fresh interpreter: whether freed buffers go back to the kernel
        # depends on the heap's history (glibc raises its trim threshold when
        # a large mapped block is freed), and this process's history hides
        # the faults a fresh process takes.  A receive buffer allocated per
        # record made each warm invoke fault about 160 pages back in.  A device
        # receive loop that still held its last reply while it handled the
        # next record took about 39 across the process and none on the
        # invoking thread.
        path = [str(Path(trctee.__file__).parent.parent), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        probe = subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        thread_faults, process_faults = map(float, probe.stdout.split())
        assert thread_faults < 8, f"{thread_faults} minor faults per warm invoke"
        assert process_faults < 8, f"{process_faults} minor faults per warm invoke, all threads"


class TestTmmSeesCommandBytes:
    """Deploy and invoke cross the channel as the vTPM's own TPM bytes."""

    @pytest.fixture
    def traced(self, world, monkeypatch):
        opened, sealed = [], []
        real_open, real_seal = channel.open_frame, channel.seal

        def open_frame(session, frame):
            plaintext = real_open(session, frame)
            if session.my_role is channel.Role.TMM:
                opened.append(plaintext)
            return plaintext

        def seal(session, plaintext):
            if session.my_role is channel.Role.TMM:
                sealed.append(plaintext)
            return real_seal(session, plaintext)

        monkeypatch.setattr(channel, "open_frame", open_frame)
        monkeypatch.setattr(channel, "seal", seal)
        world.device.boot()
        tap = transport.AdversaryTap(device.DirectPair(world.device))
        world.user.connect(tap)
        return world.user, opened, sealed, tap.log

    def _check(self, user, opened, sealed, records, command):
        response = user.vtpm.dispatch(command)
        assert opened[-1] == command
        assert response == sealed[-1]
        request = [record for label, record in records if label == "send"][-1]
        assert len(request) == len(command) + channel.FRAME_OVERHEAD
        return response

    def test_deploy_and_invoke_forwarded_verbatim(self, traced):
        user, opened, sealed, records = traced
        params = bytes(range(16))
        user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=params))
        deploy = wire.encode(wire.DeployCmd(ip_num=1))
        response = self._check(user, opened, sealed, records, deploy)
        assert len(response) == 58
        invoke = wire.encode(wire.InvokeCmd(ip_num=1, input=bytes(16)))
        response = self._check(user, opened, sealed, records, invoke)
        assert wire.decode_response(response, wire.CC_INVOKE).output == params


class TestOneDecodePerHop:
    def test_256_kib_invoke_decodes_each_payload_once(self, connected, monkeypatch):
        user = connected.user
        size = 256 * 1024
        params, data = Rng(37).bytes(size), Rng(38).bytes(size)
        deploy_xor(user, params=params)
        calls = []
        for name in ("decode", "decode_response"):
            def counted(*args, _real=getattr(wire, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(wire, name, counted)
        output, record = user.user_invoke(1, data)
        assert record.verdict == "Verified"
        assert output == bytes(a ^ b for a, b in zip(params, data))
        # The vTPM and the TMM each decode the command once; the vTPM decodes
        # the response once and hands it to user_invoke.
        assert sorted(calls) == ["decode", "decode", "decode_response"]


class TestClosedSessionIsFreed:
    def test_a_closed_and_dropped_node_is_freed_without_the_cyclic_collector(self):
        world = build_world()
        connect_world(world)
        user = world.user
        deploy_xor(user)
        user.user_invoke(1, bytes(16))
        # While the node lives, the vTPM's hooks route a raw extended command to it.
        challenge = user.crp_store.peek_unused_challenge()
        reply = user.vtpm.dispatch(wire.encode(wire.UpdateCmd(challenge=challenge)))
        assert wire.decode_response(reply, wire.CC_UPDATE).return_code == 0
        assert user.endpoint.session.epoch == 1
        user.close()
        freed = weakref.ref(user)
        gc.disable()
        try:
            del user
            world.user = None
            assert freed() is None
        finally:
            gc.enable()

    def test_a_call_after_close_fails_with_no_session_before_anything_is_measured(
        self, connected
    ):
        user = connected.user
        deploy_xor(user)
        user.user_invoke(1, bytes(16))
        user.close()
        assert user.endpoint is None and user.deploy_key is None
        pcr9 = user.vtpm.pcr_read(vtpm.INPUT_PCR)
        log, inputs = list(user.vtpm.log), list(user.history.inputs)
        with pytest.raises(
            runtime.OrchestrationError,
            match="invocation of IP 1 failed: no established session with the device$",
        ):
            user.user_invoke(1, bytes(16))
        assert isinstance(user.trace.first_error(), runtime.NoSession)
        assert user.vtpm.pcr_read(vtpm.INPUT_PCR) == pcr9
        assert (user.vtpm.log, user.history.inputs) == (log, inputs)
        assert user.verify().all_verified


class TestNoIpOutlivesItsSession:
    """Each session has a TMM of its own: an IP deployed in one session cannot
    be invoked from a later one on the same device, by another user or by the
    same user reconnecting."""

    SECRET = bytes(range(0xA0, 0xB0))  # the xor key: invoked on zeros, it comes back

    def _connect(self, world, user, tcp):
        if tcp:
            with transport.listen("127.0.0.1", 0) as server:
                user_side = transport.connect("127.0.0.1", server.getsockname()[1])
                world.thread = device.serve_in_thread(world.device, transport.accept_one(server, 5))
        else:
            user_side = device.DirectPair(world.device)
        user.connect(user_side)

    def _close(self, world, user):
        user.close()
        if world.thread is not None:
            world.thread.join(5.0)
            assert not world.thread.is_alive()
        assert world.device.session is None and world.device.tmm is None

    def _another_user(self, world):
        world.ttp.register_user("bob")
        bundle = world.ttp.enroll_vtpm("bob")
        device_id, manifest, crps = world.ttp.provision_user("bob", "dev1", 64)
        return runtime.UserNode(
            bundle=bundle,
            device_id=device_id,
            golden_manifest=manifest,
            crp_store=crps,
            rng=world.master.child("bob"),
            recv_timeout=2.0,
        )

    @pytest.mark.parametrize("tcp", [False, True], ids=["direct", "tcp"])
    @pytest.mark.parametrize("later", ["another-user", "same-user"])
    def test_a_later_session_cannot_invoke_an_ip_an_earlier_one_deployed(
        self, world, later, tcp
    ):
        world.device.boot()
        alice = world.user
        self._connect(world, alice, tcp)
        deploy_xor(alice, params=self.SECRET)
        assert alice.user_invoke(1, bytes(16))[0] == self.SECRET
        self._close(world, alice)
        user = alice if later == "same-user" else self._another_user(world)
        self._connect(world, user, tcp)
        outputs = list(user.history.outputs)
        try:
            with pytest.raises(runtime.OrchestrationError, match="invocation of IP 1 failed$"):
                user.user_invoke(1, bytes(16))
        finally:
            self._close(world, user)
        assert user.history.outputs == outputs  # no output came back
        errors = [e.error for e in world.device.trace.events]
        assert len(errors) == 1 and isinstance(errors[0], device.NotDeployed)
