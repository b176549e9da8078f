import hashlib
import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_world
from oracles import brute_matmul8, bytewise_add_const, bytewise_xor, pcr_chain
from trctee import channel, device, messages, runtime, statefile, transport, vtpm, wire
from trctee.crypto import Rng, hmac_sha384


@pytest.fixture
def image():
    return device.BootImage.synthetic("dev1", Rng(50).bytes(32))


class TestBootMeasurement:
    def test_eight_components_in_order(self, image):
        measurements = device.measure_boot_image(image)
        assert [(i, name) for i, name, _ in measurements] == list(
            enumerate(device.BOOT_COMPONENTS)
        )

    def test_digests_match_reference(self, image):
        for index, name, digest in device.measure_boot_image(image):
            assert digest == hashlib.sha384(image.components[name]).digest()

    def test_golden_chain_matches_oracle(self, image):
        # Extending each measurement into its register gives the oracle chain.
        for index, name, digest in device.measure_boot_image(image):
            assert pcr_chain([digest]) == hashlib.sha384(bytes(48) + digest).digest()

    def test_single_byte_flip_localized(self, image):
        golden = device.measure_boot_image(image)
        for position, name in enumerate(device.BOOT_COMPONENTS):
            tampered = device.BootImage.synthetic("dev1", Rng(50).bytes(32))
            tampered.tamper(name)
            measured = device.measure_boot_image(tampered)
            for index, _, digest in measured:
                if index == position:
                    assert digest != golden[index][2]
                else:
                    assert digest == golden[index][2]

    def test_empty_component_still_measured(self):
        components = {name: b"blob" for name in device.BOOT_COMPONENTS}
        components["pmu_fw"] = b""
        measurements = device.measure_boot_image(device.BootImage(components))
        assert measurements[2][2] == hashlib.sha384(b"").digest()

    def test_wrong_component_set_rejected(self):
        with pytest.raises(ValueError):
            device.BootImage({"fsbl": b"x"})

    def test_fsbl_embeds_ttp_key(self):
        pk = Rng(51).bytes(32)
        img = device.BootImage.synthetic("devX", pk)
        assert img.embedded_pk_ttp == pk


class TestKernels:
    def test_xor_involution(self):
        params = bytes(range(16))
        data = Rng(60).bytes(16)
        once = device.KERNELS["xor"](params, data)
        assert device.KERNELS["xor"](params, once) == data

    def test_xor_shape_check(self):
        with pytest.raises(device.KernelFault):
            device.KERNELS["xor"](bytes(4), bytes(5))

    def test_add_const(self):
        out = device.KERNELS["add_const"](b"\x05", bytes([0, 250, 255]))
        assert out == bytes([5, 255, 4])

    def test_add_const_needs_a_constant(self):
        with pytest.raises(device.KernelFault):
            device.KERNELS["add_const"](b"", bytes(4))

    @given(st.binary(max_size=4096), st.integers(0, 2**32 - 1))
    def test_xor_matches_bytewise_reference(self, data, seed):
        params = random.Random(seed).randbytes(len(data))
        assert device.KERNELS["xor"](params, data) == bytewise_xor(params, data)

    @given(st.binary(min_size=1, max_size=4), st.binary(max_size=4096))
    def test_add_const_matches_bytewise_reference(self, params, data):
        assert device.KERNELS["add_const"](params, data) == bytewise_add_const(params, data)

    def test_add_const_every_constant_every_byte(self):
        data = bytes(range(256))
        for constant in range(256):
            params = bytes([constant])
            assert device.KERNELS["add_const"](params, data) == bytewise_add_const(params, data)

    @given(st.binary(max_size=4096), st.integers(0, 2**32 - 1))
    def test_xor_key_matches_bytewise_reference(self, data, seed):
        params = random.Random(seed).randbytes(len(data))
        key = device.XorKey(params)
        assert key == params and key.word == int.from_bytes(params, "big")
        assert device.KERNELS["xor"](key, data) == bytewise_xor(params, data)

    def test_256_kib_matches_bytewise_reference(self):
        rng = Rng(64)
        params, data = rng.bytes(256 * 1024), rng.bytes(256 * 1024)
        assert device.KERNELS["xor"](params, data) == bytewise_xor(params, data)
        assert device.KERNELS["add_const"](params, data) == bytewise_add_const(params, data)

    def test_matmul8_against_brute_force(self):
        rng = random.Random(61)
        for _ in range(100):
            a, b = rng.randbytes(64), rng.randbytes(64)
            assert device.KERNELS["matmul8"](a, b) == brute_matmul8(a, b)

    def test_matmul8_shape_check(self):
        with pytest.raises(device.KernelFault):
            device.KERNELS["matmul8"](bytes(64), bytes(63))

    def test_kernel_purity(self):
        params, data = Rng(62).bytes(64), Rng(63).bytes(64)
        first = device.KERNELS["matmul8"](params, data)
        assert device.KERNELS["matmul8"](params, data) == first


class TestIpImageCodec:
    def test_round_trip(self):
        image = device.IpImage(kernel_id="xor", params=bytes(range(32)))
        assert device.IpImage.decode(image.encode()) == image

    def test_bad_magic(self):
        with pytest.raises(device.BadImage):
            device.IpImage.decode(b"XXXX\x03xorZZ")

    def test_unknown_kernel(self):
        blob = device.IpImage(kernel_id="xor", params=b"").encode()
        blob = blob.replace(b"xor", b"abc")
        with pytest.raises(device.BadImage):
            device.IpImage.decode(blob)


class TestEncryptedBitstream:
    def test_round_trip(self):
        blob = device.EncryptedBitstream(ip_num=3, nonce=bytes(12), ciphertext=b"ct" * 20)
        assert device.EncryptedBitstream.decode(blob.encode()) == blob

    def test_header_mismatch(self):
        with pytest.raises(device.BadImage):
            device.EncryptedBitstream.decode(b"NOPE" + bytes(30))

    def test_encrypt_decrypt_with_deploy_key(self):
        key = Rng(70).bytes(32)
        image = device.IpImage(kernel_id="add_const", params=b"\x01")
        encrypted = device.encrypt_bitstream(image, 9, key, Rng(71))
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        plaintext = AESGCM(key).decrypt(
            encrypted.nonce, encrypted.ciphertext, (9).to_bytes(2, "big")
        )
        assert device.IpImage.decode(plaintext) == image


class TestFileStore:
    def test_put_get_round_trip(self):
        store = device.FileStore()
        store.put("ip_1.bin", b"blob")
        assert store.get("ip_1.bin") == b"blob"

    def test_overwrite_allowed(self):
        store = device.FileStore()
        store.put("ip_1.bin", b"old")
        store.put("ip_1.bin", b"new")
        assert store.get("ip_1.bin") == b"new"

    def test_missing_not_found(self):
        with pytest.raises(device.NotFound):
            device.FileStore().get("ghost.bin")

    def test_directory_backend(self, tmp_path):
        store = device.FileStore(root=str(tmp_path / "blobs"))
        store.put("ip_2.bin", b"persisted")
        again = device.FileStore(root=str(tmp_path / "blobs"))
        assert again.get("ip_2.bin") == b"persisted"

    def test_a_directory_put_is_one_durable_replace(self, tmp_path, monkeypatch):
        root = tmp_path / "blobs"
        store = device.FileStore(root=str(root))
        replaced = []
        replace = statefile.replace
        monkeypatch.setattr(
            statefile, "replace", lambda path, data: replaced.append(path) or replace(path, data)
        )
        store.put("ip_3.bin", b"old")
        store.put("ip_3.bin", bytearray(b"new"))
        assert replaced == [str(root / "ip_3.bin")] * 2
        assert sorted(p.name for p in root.iterdir()) == ["ip_3.bin"]  # no .tmp behind
        assert device.FileStore(root=str(root)).get("ip_3.bin") == b"new"

    def test_unsafe_names_rejected(self, tmp_path):
        for store in (device.FileStore(), device.FileStore(root=str(tmp_path / "blobs"))):
            for name in ("../escape", ".", "..", "a/b", ""):
                with pytest.raises(ValueError):
                    store.put(name, b"x")
                with pytest.raises(ValueError):
                    store.get(name)


def make_tmm_with_session():
    rng = Rng(80)
    deploy_key = channel.derive_deploy_key(rng.child("sess").bytes(32))
    return device.Tmm(device.FileStore(), deploy_key), deploy_key, rng


class TestTmmDeploy:
    def test_deploy_returns_sha3_of_plaintext(self):
        tmm, deploy_key, rng = make_tmm_with_session()
        image = device.IpImage(kernel_id="xor", params=bytes(16))
        encrypted = device.encrypt_bitstream(image, 1, deploy_key, rng.child("bs"))
        tmm.file_store.put(device.blob_name(1), encrypted.encode())
        bin_hash = tmm.deploy(1)
        assert bin_hash == hashlib.sha3_384(image.encode()).digest()

    def test_xor_key_converted_once_at_deploy(self):
        tmm, deploy_key, rng = make_tmm_with_session()
        params = rng.child("p").bytes(64)
        image = device.IpImage(kernel_id="xor", params=params)
        encrypted = device.encrypt_bitstream(image, 1, deploy_key, rng.child("bs"))
        tmm.file_store.put(device.blob_name(1), encrypted.encode())
        tmm.deploy(1)
        installed = tmm.config_memory.lookup(1)[0]
        assert installed == image and isinstance(installed.params, device.XorKey)
        assert installed.params.word == int.from_bytes(params, "big")
        # Invoke uses the word cached at deploy: zeroed, the input comes back unchanged.
        installed.params.word = 0
        data = rng.child("d").bytes(64)
        assert tmm.invoke(1, data, 0) == data

    def test_missing_blob(self):
        tmm, _, _ = make_tmm_with_session()
        with pytest.raises(device.NotFound):
            tmm.deploy(5)
        assert tmm.config_memory.snapshot() == {}

    def test_tampered_blob_auth_failure_and_atomicity(self):
        tmm, deploy_key, rng = make_tmm_with_session()
        image = device.IpImage(kernel_id="xor", params=bytes(16))
        encrypted = device.encrypt_bitstream(image, 1, deploy_key, rng.child("bs"))
        blob = bytearray(encrypted.encode())
        blob[-1] ^= 0x01
        tmm.file_store.put(device.blob_name(1), bytes(blob))
        with pytest.raises(channel.AuthFailure):
            tmm.deploy(1)
        assert tmm.config_memory.snapshot() == {}

    def test_wrong_serial_in_blob(self):
        tmm, deploy_key, rng = make_tmm_with_session()
        image = device.IpImage(kernel_id="xor", params=bytes(16))
        encrypted = device.encrypt_bitstream(image, 2, deploy_key, rng.child("bs"))
        tmm.file_store.put(device.blob_name(1), encrypted.encode())
        with pytest.raises(device.BadImage):
            tmm.deploy(1)

    def test_bad_plaintext_magic(self):
        tmm, deploy_key, rng = make_tmm_with_session()
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        nonce = rng.child("n").bytes(12)
        ciphertext = AESGCM(deploy_key).encrypt(nonce, b"not an ip image", (1).to_bytes(2, "big"))
        blob = device.EncryptedBitstream(ip_num=1, nonce=nonce, ciphertext=ciphertext)
        tmm.file_store.put(device.blob_name(1), blob.encode())
        with pytest.raises(device.BadImage):
            tmm.deploy(1)
        assert tmm.config_memory.snapshot() == {}

    def test_redeploy_replaces(self):
        tmm, deploy_key, rng = make_tmm_with_session()
        first = device.IpImage(kernel_id="xor", params=bytes(16))
        second = device.IpImage(kernel_id="add_const", params=b"\x02")
        for img, label in ((first, "a"), (second, "b")):
            encrypted = device.encrypt_bitstream(img, 1, deploy_key, rng.child(label))
            tmm.file_store.put(device.blob_name(1), encrypted.encode())
            tmm.deploy(1)
        assert tmm.config_memory.lookup(1)[0] == second


class TestTmmInvoke:
    def test_not_deployed(self):
        tmm, _, _ = make_tmm_with_session()
        with pytest.raises(device.NotDeployed):
            tmm.invoke(1, b"data", 0)

    def test_nonzero_flag_rejected(self):
        tmm, deploy_key, rng = make_tmm_with_session()
        image = device.IpImage(kernel_id="xor", params=bytes(4))
        encrypted = device.encrypt_bitstream(image, 1, deploy_key, rng.child("bs"))
        tmm.file_store.put(device.blob_name(1), encrypted.encode())
        tmm.deploy(1)
        with pytest.raises(device.KernelFault):
            tmm.invoke(1, bytes(4), 7)


@pytest.fixture(params=["direct", "tcp"])
def attached(request):
    """A world whose user has a session with the device over a direct pair
    or TCP: the device's agent is the transport it was attached to."""
    world = build_world()
    world.device.boot()
    thread = None
    if request.param == "direct":
        pair = device.DirectPair(world.device)
        world.user.connect(pair)
        assert world.device.agent is pair._device_end
    else:
        with transport.listen("127.0.0.1", 0) as server:
            user_side = transport.connect("127.0.0.1", server.getsockname()[1])
            device_side = transport.accept_one(server, timeout=5.0)
        thread = device.serve_in_thread(world.device, device_side)
        world.user.connect(user_side)
        assert world.device.agent is device_side
    yield world
    world.user.close()
    if thread is not None:
        thread.join(5.0)
        assert not thread.is_alive()


class TestPrivilegeIsolation:
    def test_agent_surface_has_no_privileged_capability(self, attached):
        agent = attached.device.agent
        public = [a for a in dir(agent) if not a.startswith("_")]
        assert {"send_record", "close"} <= set(public)
        for attr in public:
            assert not any(
                word in attr.lower() for word in ("deploy", "invoke", "decrypt", "key", "seal", "open")
            ), f"agent exposes {attr}"

    def test_agent_holds_no_key_material(self, attached):
        sess_key = attached.user.endpoint.session.sess_key
        keys = {sess_key, channel.derive_deploy_key(sess_key)}
        assert attached.device.tmm._deploy_key in keys
        for value in vars(attached.device.agent).values():
            assert not (isinstance(value, (bytes, bytearray)) and bytes(value) in keys)

    def test_file_store_surface_has_no_privileged_capability(self):
        store = device.FileStore()
        public = [a for a in dir(store) if not a.startswith("_")]
        for attr in public:
            assert not any(
                word in attr.lower() for word in ("deploy", "invoke", "decrypt", "key")
            ), f"file store exposes {attr}"

    def test_config_memory_reachable_only_via_tmm(self, attached):
        # The REE-side objects carry no reference to config memory or the TMM.
        for obj in (attached.device.agent, attached.device.file_store):
            for value in vars(obj).values():
                assert not isinstance(value, (device.ConfigMemory, device.Tmm))


class TestBadPayloadsEndTheSession:
    @pytest.mark.parametrize(
        "payload",
        [
            bytes([messages.STORE_BLOB]) + struct.pack(">H", 1) + b"\xff" + b"blob",
            messages.encode_store_blob("../x", b"blob"),
            wire.encode(wire.UpdateCmd(challenge=bytes(4))),
            b"\x80\x01",
            b"",
            b"\x42",
            messages.encode_update_confirm(messages.UPDATE_CONFIRM_V, bytes(48)),
        ],
        ids=["non-utf8-name", "traversal-name", "tpm-update-cmd", "truncated-tpm", "empty",
             "unknown-kind", "v-with-no-update"],
    )
    def test_rejected_payload_aborts_the_session(self, connected, payload):
        user, dev = connected.user, connected.device
        params = bytes(range(16))
        ticket = user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=params))
        user.user_deploy(ticket)
        sealed = channel.seal(user.endpoint.session, payload).encode()
        user.endpoint.transport.send_record(sealed)  # answered by the device's abort
        with pytest.raises(
            runtime.OrchestrationError, match="device aborted the session: MessageError$"
        ):
            user.user_invoke(1, bytes(16))
        assert isinstance(user.trace.first_error(), channel.PeerAborted)
        assert user.endpoint is None
        assert isinstance(dev.trace.first_error(), (messages.MessageError, wire.WireError))
        assert dev.agent.closed  # the device end closed after its abort


def drain(pair):
    """Copies of the replies waiting at the vTPM's end of a direct pair."""
    records = []
    while True:
        try:
            records.append(bytes(pair.recv_record()))
        except transport.ReceiveTimeout:
            return records


def core_handshake(world):
    """Run the handshake against the booted device through a direct pair, with
    no thread: the vTPM's session, the pair, and the replies left after the
    handshake."""
    world.device.boot()
    handshake = channel.VtpmHandshake(
        sk_tpm=world.user.bundle.sk_tpm,
        cert=world.user.bundle.cert,
        device_id="dev1",
        crp_store=world.user.crp_store,
        rng=Rng(60),
    )
    pair = device.DirectPair(world.device)
    record = handshake.start()
    while record is not None:
        pair.send_record(record)
        record = handshake.on_message(pair.recv_record())
    return handshake.session, pair, drain(pair)


def seal(session, payload):
    """The encoded vTPM frame of ``payload``."""
    return channel.seal(session, payload).encode()


def assert_aborted(pair, error):
    """The device's last reply is its abort record naming ``error``: its end is closed."""
    assert pair.recv_record() == channel.abort_record(error("detail"))
    with pytest.raises(transport.TransportClosed):
        pair.recv_record()


class TestDeviceCore:
    """The core driven record by record through a direct pair, with no thread
    and no timer."""

    def _update_to_epoch_1(self, world, session, pair):
        """Send the update request; the new key and the UPDATE_CONFIRM_V payload."""
        crp = world.user.crp_store.take_unused()
        state_hash = bytes(48)
        new_key, confirm = channel.derive_updated_key(state_hash, crp.response, session.sess_key, 1)
        request = messages.encode_update_req(crp.challenge, state_hash, 1)
        pair.send_record(seal(session, request))
        (reply,) = drain(pair)
        mac_d = messages.decode_update_confirm(
            channel.open_frame(session, reply), messages.UPDATE_CONFIRM_D
        )
        assert mac_d == hmac_sha384(confirm, b"update-confirm-d" + struct.pack(">I", 1))
        mac_v = hmac_sha384(confirm, b"update-confirm-v" + struct.pack(">I", 1))
        return new_key, messages.encode_update_confirm(messages.UPDATE_CONFIRM_V, mac_v)

    def test_a_device_has_a_tmm_only_while_a_session_is_established(self, world):
        dev = world.device
        assert dev.session is None and dev.tmm is None  # no session: no TMM, no key
        session, pair, _ = core_handshake(world)
        assert dev.tmm._deploy_key == channel.derive_deploy_key(session.sess_key)
        assert dev._handshake is None
        pair.close()
        assert (dev.session, dev._pending, dev._handshake, dev.tmm) == (None, None, None, None)

    def test_handshake_establishes_the_session_and_reports_boot(self, world):
        session, _, replies = core_handshake(world)
        assert world.device.session.sess_key == session.sess_key
        (report,) = replies
        measured = messages.decode_boot_report(channel.open_frame(session, report))
        assert measured == device.measure_boot_image(world.boot_image)

    def test_failed_handshake_aborts_and_ends_the_session(self, world):
        handshake = channel.VtpmHandshake(
            sk_tpm=world.user.bundle.sk_tpm,
            cert=world.user.bundle.cert,
            device_id="dev1",
            crp_store=world.user.crp_store,
            rng=Rng(61),
        )
        hello = bytearray(handshake.start())
        hello[-1] ^= 0x01  # the certificate's signature
        pair = device.DirectPair(world.device)
        pair.send_record(hello)
        assert pair.recv_record() == channel.abort_record(channel.BadCert("x"))
        with pytest.raises(transport.TransportClosed):
            pair.recv_record()  # the device end closed after its abort
        assert isinstance(world.device.trace.first_error(), channel.BadCert)
        assert world.device.session is None

    def test_confirm_v_switches_the_epoch(self, world):
        session, pair, _ = core_handshake(world)
        dev = world.device
        new_key, confirm_v = self._update_to_epoch_1(world, session, pair)
        assert dev.session.epoch == 0  # awaiting V
        pair.send_record(seal(session, confirm_v))
        assert drain(pair) == []
        assert (dev.session.epoch, dev.session.sess_key) == (1, new_key)
        assert [e.kind for e in dev.trace.events] == ["rekey"]

    def test_bad_confirm_v_aborts_the_update(self, world):
        session, pair, _ = core_handshake(world)
        dev = world.device
        new_key, confirm_v = self._update_to_epoch_1(world, session, pair)
        pair.send_record(seal(session, confirm_v[:-1] + bytes([confirm_v[-1] ^ 1])))
        assert isinstance(dev.trace.first_error(), channel.ConfirmFailure)
        ahead = channel.SessionState(sess_key=new_key, peer_role=channel.Role.TMM, epoch=1)
        pair.send_record(seal(ahead, messages.encode_store_ok()))  # lost: the device end closed
        assert [type(e.error) for e in dev.trace.events] == [channel.ConfirmFailure]
        assert dev.session is None  # ended in epoch 0: no "rekey" was traced
        assert_aborted(pair, channel.ConfirmFailure)

    def test_forged_next_epoch_record_aborts_the_update(self, world):
        session, pair, _ = core_handshake(world)
        dev = world.device
        _, confirm_v = self._update_to_epoch_1(world, session, pair)
        forged = channel.SessionState(sess_key=bytes(32), peer_role=channel.Role.TMM, epoch=1)
        pair.send_record(seal(forged, confirm_v))
        assert [type(e.error) for e in dev.trace.events] == [channel.AuthFailure]
        assert dev.session is None  # ended in epoch 0: no "rekey" was traced
        pair.send_record(seal(session, confirm_v))  # lost: the device end closed
        assert dev.session is None
        assert_aborted(pair, channel.AuthFailure)

    def test_a_record_of_the_old_epoch_other_than_v_is_refused_with_an_abort(self, world):
        # Awaiting V, the device handles V or a record of the new epoch only:
        # the vTPM switched once it sent V, so it sends nothing else in epoch 0.
        session, pair, _ = core_handshake(world)
        dev = world.device
        self._update_to_epoch_1(world, session, pair)
        pair.send_record(seal(session, messages.encode_store_blob("ip_1.bin", b"blob")))
        assert_aborted(pair, messages.MessageError)
        assert str(dev.trace.first_error()) == "unexpected channel message type 5"
        assert (dev.session, dev._pending) == (None, None)
        with pytest.raises(device.NotFound):
            dev.file_store.get("ip_1.bin")

    def test_update_to_a_skipped_epoch_is_refused_with_an_abort(self, world):
        session, pair, _ = core_handshake(world)
        dev = world.device
        crp = world.user.crp_store.take_unused()
        pair.send_record(seal(session, messages.encode_update_req(crp.challenge, bytes(48), 2)))
        error = dev.trace.first_error()
        assert isinstance(error, channel.ConfirmFailure)
        assert str(error) == "update proposes epoch 2, expected 1"
        pair.send_record(seal(session, messages.encode_store_blob("ip_1.bin", b"blob")))  # lost
        assert_aborted(pair, channel.ConfirmFailure)
        assert dev.session is None and [e.kind for e in dev.trace.events] == ["error"]

    def test_next_epoch_record_after_a_lost_confirm_v_promotes_the_key(self, world):
        # V never arrives; the vTPM, switched once it sent V, seals in epoch 1.
        session, pair, _ = core_handshake(world)
        dev = world.device
        new_key, _ = self._update_to_epoch_1(world, session, pair)
        ahead = channel.SessionState(sess_key=new_key, peer_role=channel.Role.TMM, epoch=1)
        pair.send_record(seal(ahead, messages.encode_store_blob("ip_1.bin", b"blob")))
        assert (dev.session.epoch, dev.session.sess_key) == (1, new_key)
        (reply,) = drain(pair)  # handled, and answered in epoch 1
        assert messages.kind_of(channel.open_frame(ahead, reply)) == messages.STORE_OK
        assert [e.kind for e in dev.trace.events] == ["rekey"]

    def test_user_node_runs_against_the_core_without_a_thread(self, world):
        user, dev = world.user, world.device
        dev.boot()
        user.connect(device.DirectPair(dev))
        user.user_deploy(user.prepare_deploy(1, device.IpImage("add_const", b"\x02")))
        assert user.update_key() == 0
        output, record = user.user_invoke(1, b"\x00\xff")
        assert output == b"\x02\x01" and record.verdict == "Verified"
        assert dev.session.sess_key == user.endpoint.session.sess_key
        assert user.verify().all_verified
        assert [e.kind for e in dev.trace.events] == ["rekey"]



class TestDirectPair:
    """The thread-free pair: nothing can arrive later, so an empty inbox
    fails at once, and it ends a session by the rules ``serve`` keeps."""

    @pytest.mark.parametrize(
        "timeout, text",
        [(2.0, r"^no record within 2\.0s$"), (None, r"^no record waiting$")],
        ids=["finite", "none"],
    )
    def test_empty_inbox_times_out_at_once_with_the_timeout_text(self, world, timeout, text):
        pair = device.DirectPair(world.device)
        with pytest.raises(transport.ReceiveTimeout, match=text):
            pair.recv_record(timeout)

    @pytest.mark.parametrize("fed_by", ["serve", "direct"])
    def test_a_core_that_raises_is_traced_and_closes_the_device_end(
        self, world, fed_by, monkeypatch
    ):
        fault = RuntimeError("core fault")

        def raising(handshake, record):
            raise fault

        monkeypatch.setattr(channel.DeviceHandshake, "on_message", raising)
        if fed_by == "serve":
            user_side, device_side = transport.pipe_pair()
            thread = device.serve_in_thread(world.device, device_side)
        else:
            user_side = device.DirectPair(world.device)
        user_side.send_record(b"\x11hello")
        with pytest.raises(transport.TransportClosed):
            user_side.recv_record(2.0)
        if fed_by == "serve":
            thread.join(2.0)
            assert not thread.is_alive()
        assert world.device.trace.first_error() is fault
        user_side.send_record(b"\x11again")  # lost, as on a pipe whose reader is gone
        assert [e.error for e in world.device.trace.events] == [fault]

    def test_serve_traces_a_receive_that_raises_and_returns(self, world):
        fault = RuntimeError("receive fault")

        class Faulty:
            closed = False

            def recv_record(self, timeout=None):
                raise fault

            def close(self):
                self.closed = True

        end = Faulty()
        world.device.serve(end)  # returns on this thread
        assert [e.error for e in world.device.trace.events] == [fault]
        assert end.closed

    def test_closing_before_the_session_is_a_device_error(self, world):
        pair = device.DirectPair(world.device)
        pair.close()
        assert isinstance(world.device.trace.first_error(), transport.TransportClosed)
        with pytest.raises(transport.TransportClosed, match="transport is closed"):
            pair.send_record(b"\x11hello")

    def test_closing_an_established_session_is_no_error(self, world):
        _, pair, _ = core_handshake(world)
        pair.close()
        assert world.device.trace.events == []
        with pytest.raises(transport.TransportClosed, match="transport is closed"):
            world.device.agent.send_record(b"late")

    def test_closing_an_earlier_pair_ends_nothing_of_a_later_session(self, world):
        # The device serves one session at a time: attaching the later pair
        # ended the earlier one's handshake, so its close finds it ended.
        world.device.boot()
        old = device.DirectPair(world.device)
        world.user.connect(device.DirectPair(world.device))
        old.close()
        ticket = world.user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=bytes(16)))
        assert world.user.user_deploy(ticket)[1] == "Verified"
        output, record = world.user.user_invoke(1, b"\xaa" * 16)
        assert (output, record.verdict) == (b"\xaa" * 16, "Verified")
        assert world.device.trace.events == []
        with pytest.raises(transport.TransportClosed, match="peer closed the transport"):
            old.recv_record(2.0)
        world.user.close()


class TestPipeMatchesDirectPair:
    """The benchmark's worlds still serve the device on a thread over the
    threaded pipe; one session there must send the same bytes, and end in
    the same PCRs, as on the direct pair."""

    def _session(self, threaded):
        world = build_world(seed=15, rekey_threshold=4)
        dev, user = world.device, world.user
        dev.boot()
        if threaded:
            user_side, device_side = transport.pipe_pair()
            thread = device.serve_in_thread(dev, device_side)
        else:
            user_side = device.DirectPair(dev)
        tap = transport.AdversaryTap(user_side)
        user.connect(tap)
        user.user_deploy(user.prepare_deploy(1, device.IpImage("xor", bytes(range(16)))))
        user.user_invoke(1, b"a" * 16)  # frame 3 of epoch 0
        assert user.update_key() == 0
        for n in range(5):  # the 4th frame of epoch 1 makes the automatic update due
            user.user_invoke(1, bytes([n]) * 16)
        assert user.endpoint.session.epoch == 2
        assert user.verify().all_verified
        user.close()
        if threaded:
            thread.join(2.0)
            assert not thread.is_alive()
        pcrs = [user.vtpm.pcr_read(index) for index in range(vtpm.PCR_COUNT)]
        return tap.log, pcrs, [e.kind for e in dev.trace.events]

    def test_same_transcript_and_pcrs_on_the_pipe_and_the_direct_pair(self):
        piped = self._session(threaded=True)
        direct = self._session(threaded=False)
        assert piped == direct
        records, _, device_events = direct
        assert len(records) > 20 and device_events == ["rekey", "rekey"]
