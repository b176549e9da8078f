import struct

import pytest

from oracles import bytewise_xor, reference_hkdf
from trctee import channel, device, messages, puf, transport, ttp, vtpm, wire
from trctee.crypto import Rng, hmac_sha384, sha3_384


def make_session(key=None, peer=channel.Role.TMM):
    return channel.SessionState(sess_key=key or Rng(1).bytes(32), peer_role=peer)


def session_pair():
    key = Rng(2).bytes(32)
    vtpm_side = make_session(key=key, peer=channel.Role.TMM)
    tmm_side = make_session(key=key, peer=channel.Role.VTPM)
    return vtpm_side, tmm_side


class TestFraming:
    def test_seal_open_round_trip(self):
        sender, receiver = session_pair()
        frame = channel.seal(sender, b"hello tmm")
        assert channel.open_frame(receiver, frame.encode()) == b"hello tmm"

    def test_overhead_is_exactly_40_bytes(self):
        for size in (0, 1, 13, 255, 4096):
            sender, _ = session_pair()
            frame = channel.seal(sender, bytes(size))
            assert len(frame.encode()) == size + 40
            assert channel.FRAME_OVERHEAD == 40

    def test_tampered_ciphertext_auth_failure(self):
        sender, receiver = session_pair()
        encoded = bytearray(channel.seal(sender, b"payload").encode())
        encoded[-1] ^= 0x01
        with pytest.raises(channel.AuthFailure):
            channel.open_frame(receiver, bytes(encoded))

    def test_tampered_counter_auth_failure_and_no_state_change(self):
        sender, receiver = session_pair()
        frame = channel.seal(sender, b"payload")
        head, nonce = struct.pack(">IQ", frame.epoch, frame.counter + 1), frame.record[12:24]
        forged = head + nonce + frame.ciphertext
        with pytest.raises(channel.AuthFailure):
            channel.open_frame(receiver, forged)
        assert receiver.recv_counter == 0

    def test_replay_detected(self):
        sender, receiver = session_pair()
        encoded = channel.seal(sender, b"once").encode()
        channel.open_frame(receiver, encoded)
        with pytest.raises(channel.ReplayDetected):
            channel.open_frame(receiver, encoded)

    def test_out_of_order_counter_rejected(self):
        sender, receiver = session_pair()
        first = channel.seal(sender, b"1").encode()
        second = channel.seal(sender, b"2").encode()
        channel.open_frame(receiver, second)
        with pytest.raises(channel.ReplayDetected):
            channel.open_frame(receiver, first)

    def test_wrong_epoch(self):
        sender, receiver = session_pair()
        old = channel.seal(sender, b"stale").encode()
        receiver.switch_epoch(Rng(3).bytes(32))
        with pytest.raises(channel.WrongEpoch):
            channel.open_frame(receiver, old)

    def test_frame_shorter_than_its_fixed_fields(self):
        _, receiver = session_pair()
        with pytest.raises(channel.AuthFailure, match="shorter than its fixed fields"):
            channel.open_frame(receiver, bytes(channel.FRAME_OVERHEAD - 1))
        assert receiver.recv_counter == 0

    def test_direction_bound_nonces(self):
        # A frame reflected back to its sender must not open.
        sender, receiver = session_pair()
        encoded = channel.seal(sender, b"mirror").encode()
        with pytest.raises(channel.AuthFailure):
            channel.open_frame(sender, encoded)


class TestCounters:
    def test_session_key_of_another_size_rejected(self):
        with pytest.raises(ValueError, match="session key must be 32 bytes"):
            make_session(key=bytes(16))

    def test_counting_restarts_after_epoch_switch(self):
        sender, _ = session_pair()
        for _ in range(4):
            channel.seal(sender, b"x")
        sender.switch_epoch(Rng(4).bytes(32))
        assert sender.send_counter == 0
        frame = channel.seal(sender, b"fresh epoch")
        assert (frame.epoch, frame.counter) == (1, 1)


def handshake_fixtures(seed=21, crp_count=8):
    rng = Rng(seed)
    service = ttp.TtpService(rng=rng.child("ttp"))
    service.register_user("alice")
    bundle = service.enroll_vtpm("alice")
    device_puf = puf.PufDevice(rng.child("puf").bytes(32))
    crps = puf.enroll(device_puf, crp_count, rng.child("enroll"))
    crps.owner = "user"
    return service, bundle, device_puf, crps, rng


def run_handshake(bundle, crps, device_puf, pk_ttp, rng, device_id="dev1"):
    initiator = channel.VtpmHandshake(
        sk_tpm=bundle.sk_tpm,
        cert=bundle.cert,
        device_id=device_id,
        crp_store=crps,
        rng=rng.child("hs-user"),
    )
    responder = channel.DeviceHandshake(
        pk_ttp=pk_ttp,
        device_id=device_id,
        puf=device_puf,
        rng=rng.child("hs-device"),
    )
    message = initiator.start()
    while initiator.session is None or responder.session is None:
        message = responder.on_message(message)
        if message is None:
            break
        message = initiator.on_message(message)
    return initiator, responder


class TestHandshake:
    def test_honest_run_keys_equal(self):
        service, bundle, device_puf, crps, rng = handshake_fixtures()
        initiator, responder = run_handshake(bundle, crps, device_puf, service.pk_ttp, rng)
        assert initiator.session is not None and responder.session is not None
        assert initiator.session.sess_key == responder.session.sess_key
        assert initiator.session.epoch == 0 and responder.session.epoch == 0

    def test_one_crp_consumed(self):
        service, bundle, device_puf, crps, rng = handshake_fixtures()
        before = crps.unused_count()
        run_handshake(bundle, crps, device_puf, service.pk_ttp, rng)
        assert crps.unused_count() == before - 1

    def test_bitflipped_cert_rejected(self):
        service, bundle, device_puf, crps, rng = handshake_fixtures()
        sig = bundle.cert.signature
        bad_cert = ttp.Certificate(
            user_id=bundle.cert.user_id,
            pk_tpm=bundle.cert.pk_tpm,
            signature=sig[:-1] + bytes([sig[-1] ^ 1]),
        )
        initiator = channel.VtpmHandshake(
            sk_tpm=bundle.sk_tpm,
            cert=bad_cert,
            device_id="dev1",
            crp_store=crps,
            rng=rng.child("hs-user"),
        )
        responder = channel.DeviceHandshake(
            pk_ttp=service.pk_ttp, device_id="dev1", puf=device_puf, rng=rng.child("hs-device")
        )
        with pytest.raises(channel.BadCert):
            responder.on_message(initiator.start())
        assert responder.session is None

    def test_swapped_cert_fails_at_signature(self):
        service, bundle, device_puf, crps, rng = handshake_fixtures()
        service.register_user("mallory")
        other = service.enroll_vtpm("mallory")
        initiator = channel.VtpmHandshake(
            sk_tpm=bundle.sk_tpm,  # honest key, mallory's cert
            cert=other.cert,
            device_id="dev1",
            crp_store=crps,
            rng=rng.child("hs-user"),
        )
        responder = channel.DeviceHandshake(
            pk_ttp=service.pk_ttp, device_id="dev1", puf=device_puf, rng=rng.child("hs-device")
        )
        hs2 = responder.on_message(initiator.start())
        hs3 = initiator.on_message(hs2)
        with pytest.raises(channel.BadCert):
            responder.on_message(hs3)

    def test_malicious_device_puf_mismatch(self):
        service, bundle, device_puf, crps, rng = handshake_fixtures()
        impostor = puf.PufDevice(Rng(999).bytes(32))  # wrong fabrication secret
        initiator = channel.VtpmHandshake(
            sk_tpm=bundle.sk_tpm,
            cert=bundle.cert,
            device_id="dev1",
            crp_store=crps,
            rng=rng.child("hs-user"),
        )
        responder = channel.DeviceHandshake(
            pk_ttp=service.pk_ttp, device_id="dev1", puf=impostor, rng=rng.child("hs-device")
        )
        hs2 = responder.on_message(initiator.start())
        hs3 = initiator.on_message(hs2)
        hs5 = responder.on_message(hs3)
        with pytest.raises(channel.PufMismatch):
            initiator.on_message(hs5)
        assert initiator.session is None

    def test_replayed_message_stale(self):
        service, bundle, device_puf, crps, rng = handshake_fixtures()
        initiator = channel.VtpmHandshake(
            sk_tpm=bundle.sk_tpm,
            cert=bundle.cert,
            device_id="dev1",
            crp_store=crps,
            rng=rng.child("hs-user"),
        )
        responder = channel.DeviceHandshake(
            pk_ttp=service.pk_ttp, device_id="dev1", puf=device_puf, rng=rng.child("hs-device")
        )
        hs1 = initiator.start()
        responder.on_message(hs1)
        with pytest.raises(channel.StaleNonce):
            responder.on_message(hs1)

    def test_wrong_device_id_rejected(self):
        service, bundle, device_puf, crps, rng = handshake_fixtures()
        initiator = channel.VtpmHandshake(
            sk_tpm=bundle.sk_tpm,
            cert=bundle.cert,
            device_id="dev1",
            crp_store=crps,
            rng=rng.child("hs-user"),
        )
        responder = channel.DeviceHandshake(
            pk_ttp=service.pk_ttp, device_id="dev2", puf=device_puf, rng=rng.child("hs-device")
        )
        hs2 = responder.on_message(initiator.start())
        with pytest.raises(channel.ChannelError):
            initiator.on_message(hs2)


def started_initiator():
    service, bundle, device_puf, crps, rng = handshake_fixtures()
    initiator = channel.VtpmHandshake(
        sk_tpm=bundle.sk_tpm, cert=bundle.cert, device_id="dev1", crp_store=crps, rng=rng
    )
    initiator.start()
    return initiator


class TestMalformedHandshake:
    def test_device_hello_with_a_non_utf8_id_is_stale(self):
        # HS2: type 0x12, a 16-byte nonce, then a 2-byte id that is not UTF-8.
        with pytest.raises(channel.StaleNonce):
            started_initiator().on_message(b"\x12" + bytes(16) + b"\x00\x02\xff\xfe")

    def test_second_start_is_stale(self):
        with pytest.raises(channel.StaleNonce, match="handshake already started"):
            started_initiator().start()

    def test_unparseable_certificate_is_a_bad_cert(self):
        service, _, device_puf, _, rng = handshake_fixtures()
        responder = channel.DeviceHandshake(
            pk_ttp=service.pk_ttp, device_id="dev1", puf=device_puf, rng=rng
        )
        hello = channel._VTPM_HELLO.encode(bytes(channel.HS_NONCE_LEN), b"\x01short")
        with pytest.raises(channel.BadCert, match="unparseable certificate"):
            responder.on_message(hello)

    def test_key_share_that_fails_to_unwrap_is_an_auth_failure(self):
        # A device holding the right PUF, whose MAC covers a spoiled key share:
        # the MAC passes, then unwrapping the share fails.
        service, bundle, device_puf, crps, rng = handshake_fixtures()
        initiator = channel.VtpmHandshake(
            sk_tpm=bundle.sk_tpm, cert=bundle.cert, device_id="dev1", crp_store=crps, rng=rng
        )
        responder = channel.DeviceHandshake(
            pk_ttp=service.pk_ttp, device_id="dev1", puf=device_puf, rng=rng.child("dev")
        )
        hs3 = initiator.on_message(responder.on_message(initiator.start()))
        eph_d, wrapped, _ = channel._KEY_SHARE.decode(responder.on_message(hs3))
        spoiled = wrapped[:-1] + bytes([wrapped[-1] ^ 1])
        response = device_puf.respond(channel._CHALLENGE.decode(hs3)[0])
        unsigned = channel._KEY_SHARE.encode(eph_d, spoiled)
        mac = hmac_sha384(response, initiator._transcript.fork(unsigned))
        with pytest.raises(channel.AuthFailure, match="key share failed to unwrap"):
            initiator.on_message(channel._KEY_SHARE.encode(eph_d, spoiled, mac))


class TestAbortRecord:
    @pytest.mark.parametrize(
        "error, reason",
        [
            (channel.BadCert, "BadCert"),
            (channel.StaleNonce, "StaleNonce"),
            (channel.ConfirmFailure, "ConfirmFailure"),
            (channel.PufMismatch, "PufMismatch"),
            (channel.ChannelError, "ChannelError"),
            (channel.AuthFailure, "AuthFailure"),
            (channel.ReplayDetected, "ReplayDetected"),
            (channel.WrongEpoch, "WrongEpoch"),
            (messages.MessageError, "MessageError"),
            (wire.BadTag, "MessageError"),  # every refused payload shares one code
        ],
    )
    def test_reason_reaches_the_vtpm(self, error, reason):
        record = channel.abort_record(error("detail"))
        assert len(record) == 2
        with pytest.raises(channel.PeerAborted, match=f"^device aborted the handshake: {reason}$"):
            started_initiator().on_message(record)

    @pytest.mark.parametrize(
        "record, error, message",
        [
            (b"\x1f", channel.StaleNonce, "abort record of 1 bytes"),
            (b"\x1f\x01\x00", channel.StaleNonce, "abort record of 3 bytes"),
            (
                bytes([0x1F, len(channel.ABORT_REASONS)]),
                channel.PeerAborted,
                f"unknown reason code {len(channel.ABORT_REASONS)}$",
            ),
            (b"\x1f\xff", channel.PeerAborted, "unknown reason code 255$"),
        ],
    )
    def test_malformed_abort_is_a_typed_error(self, record, error, message):
        with pytest.raises(error, match=message):
            started_initiator().on_message(record)

    def test_reason_codes_are_fixed(self):
        assert channel.ABORT_REASONS == (
            channel.ChannelError,
            channel.BadCert,
            channel.StaleNonce,
            channel.ConfirmFailure,
            channel.PufMismatch,
            channel.AuthFailure,
            channel.ReplayDetected,
            channel.WrongEpoch,
            messages.MessageError,
        )
        assert channel.abort_record(channel.PufMismatch("detail")) == b"\x1f\x04"
        assert channel.abort_record(wire.Truncated("detail")) == b"\x1f\x08"

    @pytest.mark.parametrize("reason", channel.ABORT_REASONS, ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("state", ["idle", "sent-share"])
    def test_reason_reaches_the_device(self, reason, state):
        # The responder takes an abort record in any state, like the initiator.
        service, bundle, device_puf, crps, rng = handshake_fixtures()
        initiator = channel.VtpmHandshake(
            sk_tpm=bundle.sk_tpm, cert=bundle.cert, device_id="dev1", crp_store=crps, rng=rng
        )
        responder = channel.DeviceHandshake(
            pk_ttp=service.pk_ttp, device_id="dev1", puf=device_puf, rng=rng.child("dev")
        )
        message = initiator.start()
        if state == "sent-share":
            message = initiator.on_message(responder.on_message(message))  # HS2, then HS3
            initiator.on_message(responder.on_message(message))  # HS5, then HS8
        name = reason.__name__
        with pytest.raises(channel.PeerAborted, match=f"^vTPM aborted the handshake: {name}$"):
            responder.on_message(channel.abort_record(reason("detail")))
        assert responder.session is None

    @pytest.mark.parametrize(
        "error",
        [channel.PeerAborted, transport.ReceiveTimeout, puf.CrpExhausted, RuntimeError],
        ids=lambda cls: cls.__name__,
    )
    def test_no_abort_names_an_error_outside_the_table_or_the_peers_own_abort(self, error):
        # An abort is never answered, and only a refused record is named.
        assert channel.abort_record(error("detail")) is None

    def test_device_aborts_with_the_cause_before_closing(self):
        service, bundle, device_puf, crps, rng = handshake_fixtures()
        service.register_user("mallory")
        initiator = channel.VtpmHandshake(
            sk_tpm=bundle.sk_tpm,  # honest key, mallory's cert
            cert=service.enroll_vtpm("mallory").cert,
            device_id="dev1",
            crp_store=crps,
            rng=rng.child("hs-user"),
        )
        dev = device.FpgaSocDevice(
            device_id="dev1",
            puf=device_puf,
            boot_image=device.BootImage.synthetic("dev1", service.pk_ttp),
            rng=rng.child("dev"),
        )
        user_side = device.DirectPair(dev)
        user_side.send_record(initiator.start())
        user_side.send_record(initiator.on_message(user_side.recv_record(timeout=2.0)))
        with pytest.raises(channel.PeerAborted, match="BadCert"):
            initiator.on_message(user_side.recv_record(timeout=2.0))
        with pytest.raises(transport.TransportClosed):
            user_side.recv_record(timeout=2.0)
        assert isinstance(dev.trace.first_error(), channel.BadCert)


def connected_sessions():
    """The vTPM's and the TMM's sessions after a real handshake, the device's
    PUF and the vTPM's CRPs."""
    service, bundle, device_puf, crps, rng = handshake_fixtures()
    initiator, responder = run_handshake(bundle, crps, device_puf, service.pk_ttp, rng)
    return initiator.session, responder.session, device_puf, crps


def carry(sender, receiver, payload):
    """``payload`` as ``receiver`` opens it from ``sender``'s sealed frame."""
    return bytes(channel.open_frame(receiver, channel.seal(sender, payload).encode()))


def run_update(vtpm_side, tmm_side, device_puf, crps, bank=None):
    """One key update by the four pure steps; the CRP and state hash it used,
    and the request, D and V payloads as their receivers opened them."""
    record = crps.take_unused()
    state_hash = (bank or vtpm.PcrBank()).state_hash()
    request, pending_v = channel.start_update(
        vtpm_side, record.challenge, record.response, state_hash
    )
    request = carry(vtpm_side, tmm_side, request)
    confirm_d, pending_d = channel.respond_update(tmm_side, request, device_puf)
    confirm_d = carry(tmm_side, vtpm_side, confirm_d)
    record_v = channel.confirm_update(vtpm_side, confirm_d, pending_v)
    confirm_v = bytes(channel.open_frame(tmm_side, record_v))
    channel.finish_update(tmm_side, confirm_v, pending_d)
    return record, state_hash, (request, confirm_d, confirm_v)


class TestKeyUpdate:
    def test_honest_update_keys_equal(self):
        vtpm_side, tmm_side, device_puf, crps = connected_sessions()
        old_key = vtpm_side.sess_key
        run_update(vtpm_side, tmm_side, device_puf, crps)
        assert vtpm_side.sess_key == tmm_side.sess_key != old_key
        assert vtpm_side.epoch == tmm_side.epoch == 1
        assert vtpm_side.send_counter == 0

    def test_derived_key_matches_reference_kdf(self):
        vtpm_side, tmm_side, device_puf, crps = connected_sessions()
        old_key = vtpm_side.sess_key
        record, state_hash, _ = run_update(vtpm_side, tmm_side, device_puf, crps)
        expected = reference_hkdf(
            ikm=record.response + old_key,
            salt=state_hash,
            info=b"trctee-rekey" + struct.pack(">I", 1),
            length=32,
        )
        assert vtpm_side.sess_key == expected

    def test_old_epoch_frame_rejected_after_update(self):
        vtpm_side, tmm_side, device_puf, crps = connected_sessions()
        stale = channel.seal(vtpm_side, b"stale").encode()
        vtpm_side.send_counter -= 1  # pretend it was never sent
        run_update(vtpm_side, tmm_side, device_puf, crps)
        with pytest.raises(channel.WrongEpoch):
            channel.open_frame(tmm_side, stale)

    def test_pcr_state_binds_key(self):
        # Identical response, old key, and epoch; only one PCR differs.
        response, old_key = Rng(41).bytes(32), Rng(42).bytes(32)
        bank1, bank2 = vtpm.PcrBank(), vtpm.PcrBank()
        bank2.extend(1, bytes(range(48)))
        key1, _ = channel.derive_updated_key(bank1.state_hash(), response, old_key, 1)
        key2, _ = channel.derive_updated_key(bank2.state_hash(), response, old_key, 1)
        assert key1 != key2

    def test_pcr_state_binds_key_end_to_end(self):
        vtpm_side, tmm_side, device_puf, crps = connected_sessions()
        bank = vtpm.PcrBank()
        bank.extend(1, bytes(range(48)))
        record, state_hash, _ = run_update(vtpm_side, tmm_side, device_puf, crps, bank=bank)
        derived_with_reset_bank = channel.derive_updated_key(
            vtpm.PcrBank().state_hash(), record.response, bytes(32), 1
        )[0]
        assert vtpm_side.sess_key == tmm_side.sess_key
        assert vtpm_side.sess_key != derived_with_reset_bank

    def test_total_crps_consumed_equals_handshakes_plus_updates(self):
        vtpm_side, tmm_side, device_puf, crps = connected_sessions()
        total = len(crps)
        updates = 3
        for _ in range(updates):
            run_update(vtpm_side, tmm_side, device_puf, crps)
        consumed = total - crps.unused_count()
        assert consumed == 1 + updates  # one handshake + the updates

    @pytest.mark.parametrize("replay", ["confirm-d", "confirm-v", "request"])
    def test_a_payload_of_the_last_update_is_refused_in_the_next(self, replay):
        # Each step keys its check to the epoch it would switch to, so a
        # confirmation or request of update 1 confirms nothing in update 2.
        vtpm_side, tmm_side, device_puf, crps = connected_sessions()
        _, _, (request_1, confirm_d_1, confirm_v_1) = run_update(
            vtpm_side, tmm_side, device_puf, crps
        )
        keys = vtpm_side.sess_key, tmm_side.sess_key
        record = crps.take_unused()
        request_2, pending_v = channel.start_update(
            vtpm_side, record.challenge, record.response, vtpm.PcrBank().state_hash()
        )
        with pytest.raises(channel.ConfirmFailure):
            if replay == "confirm-d":
                channel.confirm_update(vtpm_side, confirm_d_1, pending_v)
            elif replay == "confirm-v":
                _, pending_d = channel.respond_update(tmm_side, request_2, device_puf)
                channel.finish_update(tmm_side, confirm_v_1, pending_d)
            else:
                channel.respond_update(tmm_side, request_1, device_puf)
        assert vtpm_side.epoch == tmm_side.epoch == 1
        assert (vtpm_side.sess_key, tmm_side.sess_key) == keys


def test_a_whole_session_by_handing_bytes_between_the_two_cores():
    """Handshake, boot report, upload, deploy, invoke and two key updates, the
    second with its UPDATE_CONFIRM_V lost: the vTPM's handshake and pure
    channel steps on one side, the device core on the other, and each record
    handed across by hand from what ``feed`` returns, with no transport
    object and no thread."""
    service, bundle, device_puf, crps, rng = handshake_fixtures()
    dev = device.FpgaSocDevice(
        device_id="dev1",
        puf=device_puf,
        boot_image=device.BootImage.synthetic("dev1", service.pk_ttp),
        rng=rng.child("dev"),
    )
    dev.boot()
    dev.attach()

    def to_device(record):
        """The records the device core returns for ``record``; the session goes on."""
        records = dev.feed(record)
        assert dev.session is not None or dev._handshake is not None
        return records

    handshake = channel.VtpmHandshake(
        sk_tpm=bundle.sk_tpm, cert=bundle.cert, device_id="dev1", crp_store=crps,
        rng=rng.child("hs-user"),
    )
    inbox = to_device(handshake.start())
    while handshake.session is None:
        message = handshake.on_message(inbox.pop(0))
        if message is not None:
            inbox += to_device(message)
    session = handshake.session
    (report,) = inbox
    measurements = messages.decode_boot_report(channel.open_frame(session, report))
    assert measurements == device.measure_boot_image(dev.boot_image)
    bank = vtpm.PcrBank()
    for index, _, digest in measurements:
        bank.extend(index, digest)

    def request(payload):
        (reply,) = to_device(channel.seal(session, payload).encode())
        return channel.open_frame(session, reply)

    params, data = bytes(range(16)), bytes(range(100, 116))
    image = device.IpImage(kernel_id="xor", params=params)
    deploy_key = channel.derive_deploy_key(session.sess_key)
    blob = device.encrypt_bitstream(image, 1, deploy_key, rng.child("bitstream")).encode()
    stored = request(messages.encode_store_blob(device.blob_name(1), blob))
    assert messages.kind_of(stored) == messages.STORE_OK
    deployed = wire.decode_response(request(wire.encode(wire.DeployCmd(ip_num=1))), wire.CC_DEPLOY)
    assert (deployed.response_code, deployed.bin_hash) == (0, sha3_384(image.encode()))

    def invoke():
        reply = request(wire.encode(wire.InvokeCmd(ip_num=1, input=data)))
        return bytes(wire.decode_response(reply, wire.CC_INVOKE).output)

    assert invoke() == bytewise_xor(params, data)
    for lose_v in (False, True):
        crp = crps.take_unused()
        payload, pending = channel.start_update(
            session, crp.challenge, crp.response, bank.state_hash()
        )
        confirm_d = request(payload)
        assert messages.kind_of(confirm_d) == messages.UPDATE_CONFIRM_D
        record_v = channel.confirm_update(session, confirm_d, pending)
        if not lose_v:
            assert to_device(record_v) == []
    assert (session.epoch, dev.session.epoch) == (2, 1)
    assert invoke() == bytewise_xor(params, data)  # its epoch-2 frame confirms the lost V
    assert dev.session.epoch == 2 and dev.session.sess_key == session.sess_key
    assert [event.kind for event in dev.trace.events] == ["rekey", "rekey"]
