import functools
import importlib
import pkgutil
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trctee
from trctee import channel, device, messages, puf, ttp, vtpm, wire
from trctee.crypto import Rng
from trctee.layout import Layout

DECODERS = sorted(name for name in vars(messages) if name.startswith("decode_"))


def _decode_all(data):
    """Run every decoder over ``data``; each must return or raise MessageError."""
    for name in DECODERS:
        decoder = getattr(messages, name)
        if name == "decode_update_confirm":
            calls = [(data, messages.UPDATE_CONFIRM_D), (data, messages.UPDATE_CONFIRM_V)]
        else:
            calls = [(data,)]
        for args in calls:
            try:
                decoder(*args)
            except messages.MessageError:
                pass


@st.composite
def mutated(draw, message):
    """``message`` with one bit flipped, cut short, or extended."""
    how = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if how == "flip":
        at, bit = draw(st.integers(0, len(message) - 1)), draw(st.integers(0, 7))
        return message[:at] + bytes([message[at] ^ (1 << bit)]) + message[at + 1 :]
    if how == "truncate":
        return message[: draw(st.integers(0, len(message) - 1))]
    return message + draw(st.binary(min_size=1, max_size=16))


def handshake_roles():
    """A vTPM and a device handshake that replay the same honest run."""
    rng = Rng(21)
    service = ttp.TtpService(rng=rng.child("ttp"))
    service.register_user("alice")
    bundle = service.enroll_vtpm("alice")
    device_puf = puf.PufDevice(rng.child("puf").bytes(32))
    crps = puf.enroll(device_puf, 1, rng.child("enroll"))
    vtpm_hs = channel.VtpmHandshake(
        sk_tpm=bundle.sk_tpm, cert=bundle.cert, device_id="dev1", crp_store=crps, rng=rng
    )
    device_hs = channel.DeviceHandshake(
        pk_ttp=service.pk_ttp, device_id="dev1", puf=device_puf, rng=rng.child("device")
    )
    return vtpm_hs, device_hs


@functools.cache
def honest_transcript():
    """HS1, HS2, HS3, HS5, HS8 and HS9 of one honest run; the device receives
    the even-numbered ones."""
    vtpm_hs, device_hs = handshake_roles()
    transcript = [vtpm_hs.start()]
    while len(transcript) < 6:
        receiver = device_hs if len(transcript) % 2 else vtpm_hs
        transcript.append(receiver.on_message(transcript[-1]))
    return tuple(transcript)


class TestTotality:
    @settings(max_examples=300)
    @given(data=st.binary(max_size=128))
    def test_decoders_total(self, data):
        _decode_all(data)

    @settings(max_examples=300)
    @given(kind=st.sampled_from([1, 2, 3, 4, 5, 6]), body=st.binary(max_size=128))
    def test_decoders_total_on_typed_payloads(self, kind, body):
        _decode_all(bytes([kind]) + body)

    @given(name=st.binary(max_size=8), tail=st.binary(min_size=48, max_size=64))
    def test_decoders_total_on_named_payloads(self, name, tail):
        prefixed = struct.pack(">H", len(name)) + name + tail
        _decode_all(bytes([messages.STORE_BLOB]) + prefixed)
        _decode_all(bytes([messages.BOOT_REPORT]) + struct.pack(">HB", 1, 0) + prefixed)

    @settings(max_examples=300)
    @given(data=st.data())
    @pytest.mark.parametrize(
        "decode, sample, error",
        [
            (ttp.Certificate.decode, ttp.Certificate("alice", bytes(32), bytes(64)), ValueError),
            (device.IpImage.decode, device.IpImage("xor", bytes(range(16))), device.BadImage),
            (
                device.EncryptedBitstream.decode,
                device.EncryptedBitstream(ip_num=3, nonce=bytes(12), ciphertext=b"ct" * 8),
                device.BadImage,
            ),
        ],
        ids=["certificate", "ip-image", "encrypted-bitstream"],
    )
    def test_record_decoders_total(self, decode, sample, error, data):
        try:
            decode(data.draw(mutated(sample.encode())))
        except error:
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), step=st.integers(0, 7))
    def test_handshake_roles_total_in_every_state(self, data, step):
        """Steps 0-5 feed a changed copy of honest message ``step`` to the role
        that awaits it; 6 and 7 feed one to the device and to the vTPM once
        both are done."""
        transcript = honest_transcript()
        message = transcript[step] if step < 6 else data.draw(st.sampled_from(transcript))
        vtpm_hs, device_hs = handshake_roles()
        vtpm_hs.start()
        for i, honest in enumerate(transcript[:step]):
            (device_hs if i % 2 == 0 else vtpm_hs).on_message(honest)
        try:
            (device_hs if step % 2 == 0 else vtpm_hs).on_message(data.draw(mutated(message)))
        except channel.ChannelError:
            pass

    def test_no_deploy_or_invoke_vocabulary(self):
        assert not [
            name for name in vars(messages) if "deploy" in name.lower() or "invoke" in name.lower()
        ]


class TestNames:
    def test_non_utf8_boot_component_name(self):
        payload = bytes([messages.BOOT_REPORT]) + struct.pack(">HBH", 1, 0, 1) + b"\xff"
        with pytest.raises(messages.MessageError):
            messages.decode_boot_report(payload + bytes(messages.DIGEST_LEN))

    @pytest.mark.parametrize(
        "index, name", [(30, "fsbl"), (8, "fsbl"), (255, "fsbl"), (0, "fs\nbl"), (7, "\r")]
    )
    def test_boot_report_index_and_name_checked(self, index, name):
        payload = messages.encode_boot_report([(0, "ok", bytes(48)), (index, name, bytes(48))])
        with pytest.raises(messages.MessageError):
            messages.decode_boot_report(payload)

    def test_boot_report_accepts_pcr_0_to_7(self):
        measurements = [(i, f"c{i}\x0b\u2028", bytes([i]) * 48) for i in range(8)]
        payload = messages.encode_boot_report(measurements)
        assert messages.decode_boot_report(payload) == measurements

    def test_a_fixed_size_field_of_another_size_is_refused_on_encode(self):
        with pytest.raises(messages.MessageError, match="a field of 4 bytes cannot hold 3"):
            messages.encode_update_req(bytes(3), bytes(48), 1)

    @pytest.mark.parametrize("name", [b"\xff", b"../x", b"..", b".", b"a/b", b""])
    def test_bad_blob_names_rejected(self, name):
        payload = bytes([messages.STORE_BLOB]) + struct.pack(">H", len(name)) + name + b"blob"
        with pytest.raises(messages.MessageError):
            messages.decode_store_blob(payload)


PROTOCOL = Path(__file__).parent.parent / "PROTOCOL.md"
# "  - `name` ...: `grammar`", then ", N bytes" where the format has one size.
PROTOCOL_ENTRY = re.compile(r"^ +- `([^`]+)`[^`\n]*: `([^`]+)`(?:, (\d+) bytes)?", re.M)


def protocol_formats():
    section = PROTOCOL.read_text(encoding="utf-8").split("## 1. Message flow")[1]
    section = section.split("\n## ")[0]
    return {name: (grammar, total) for name, grammar, total in PROTOCOL_ENTRY.findall(section)}


def stated_fields(grammar):
    """Each field of a PROTOCOL.md grammar: its constant bytes (a type byte, a
    TPM tag or command code, or a magic), or its size (None for a field
    without one)."""
    for token in grammar.split(" || "):
        if re.fullmatch(r"0x(?:[0-9A-F]{2})+", token):
            yield bytes.fromhex(token[2:])
        elif magic := re.fullmatch(r'"(\w+)"', token):
            yield magic[1].encode()
        elif sized := re.fullmatch(r"\w+\((\d+)\)", token):
            yield int(sized[1])
        else:
            assert re.fullmatch(r"\w+", token), f"unreadable field {token!r} in {grammar!r}"
            yield None


def encoded_formats():
    """Each format's encoding of one honest value, with the length of its
    fields that have no fixed size."""
    hs = honest_transcript()
    no_report = messages.encode_boot_report([])
    one_report = messages.encode_boot_report([(0, "fsbl", bytes(48))])
    cert_len = len(ttp.Certificate("alice", bytes(32), bytes(64)).encode())
    session = channel.SessionState(bytes(32), channel.Role.TMM)
    return {
        "sealed frame": (channel.seal(session, b"plaintext").encode(), len(b"plaintext")),
        "store ok": (messages.encode_store_ok(), 0),
        "HS1": (hs[0], cert_len),
        "HS2": (hs[1], len("dev1")),
        "HS3": (hs[2], 0),
        "HS5": (hs[3], 0),
        "HS8": (hs[4], 0),
        "HS9": (hs[5], 0),
        "abort": (channel.abort_record(channel.StaleNonce("detail")), 0),
        "boot report": (no_report, 0),
        "boot measurement": (one_report[len(no_report) :], len("fsbl")),
        "update request": (messages.encode_update_req(bytes(4), bytes(48), 1), 0),
        "update confirmation D": (
            messages.encode_update_confirm(messages.UPDATE_CONFIRM_D, bytes(48)), 0
        ),
        "update confirmation V": (
            messages.encode_update_confirm(messages.UPDATE_CONFIRM_V, bytes(48)), 0
        ),
        "store blob": (messages.encode_store_blob("ip_1.bin", b"blob"), len("ip_1.bin") + 4),
        "certificate": (ttp.Certificate("alice", bytes(32), bytes(64)).encode(), len("alice")),
        "IP image": (device.IpImage("xor", bytes(16)).encode(), len("xor") + 16),
        "encrypted bitstream": (
            device.EncryptedBitstream(ip_num=3, nonce=bytes(12), ciphertext=bytes(20)).encode(),
            20,
        ),
        **tpm_formats(),
    }


def tpm_formats():
    """The six extended TPM messages, and each standard command the vTPM
    implements with the vTPM's answer to it."""
    formats = {
        "Update_CMD": (wire.encode(wire.UpdateCmd(bytes(4))), 0),
        "Update_RESP": (wire.encode(wire.UpdateResp(1)), 0),
        "Deploy_CMD": (wire.encode(wire.DeployCmd(1)), 0),
        "Deploy_RESP": (wire.encode(wire.DeployResp(bytes(48))), 0),
        "Invoke_CMD": (wire.encode(wire.InvokeCmd(1, b"input", 0)), len(b"input")),
        "Invoke_RESP": (wire.encode(wire.InvokeResp(b"out")), len(b"out")),
    }
    engine = vtpm.Vtpm(rng=Rng(3))
    for name, code, args, command_unsized, response_unsized in [
        ("GetRandom", wire.CC_GET_RANDOM, (16,), 0, 16),
        ("PCR_Read", wire.CC_PCR_READ, (4,), 0, 0),
        ("PCR_Extend", wire.CC_PCR_EXTEND, (4, bytes(48)), 0, 0),
        ("Hash", wire.CC_HASH, (vtpm.ALG_SHA256, b"abc"), len(b"abc"), 32),
    ]:
        command = wire.encode(wire.StandardCmd(code, vtpm.STANDARD[code][0].encode(*args)))
        response = engine.dispatch(command)
        assert wire.decode_response(response, code).response_code == vtpm.RC_SUCCESS, name
        formats[f"{name} command"] = (command, command_unsized)
        formats[f"{name} response"] = (response, response_unsized)
    return formats


def declared_layouts():
    """Every Layout a trctee module holds, directly or in a dict or tuple."""
    found, pending = {}, []
    for module in pkgutil.iter_modules(trctee.__path__, "trctee."):
        pending.extend(vars(importlib.import_module(module.name)).values())
    while pending:
        value = pending.pop()
        if isinstance(value, Layout):
            found[id(value)] = value
        elif isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, (tuple, list)):
            pending.extend(value)
    return list(found.values())


def decodes(layout, encoding):
    try:
        layout.decode(encoding)
    except layout.error:
        return False
    return True


class TestProtocolFormats:
    def test_every_stated_size_matches_the_encoding(self):
        stated, encoded = protocol_formats(), encoded_formats()
        assert set(stated) == set(encoded)
        for name, (encoding, unsized) in encoded.items():
            grammar, total = stated[name]
            fields = list(stated_fields(grammar))
            sized = sum(len(f) if isinstance(f, bytes) else f or 0 for f in fields)
            assert len(encoding) == sized + unsized, name
            if isinstance(fields[0], bytes):
                assert encoding.startswith(fields[0]), name
            if total:
                assert len(encoding) == int(total), name

    def test_every_layout_decodes_a_listed_encoding(self):
        """A format declared without its PROTOCOL.md entry fails here.  A TPM
        message's layout is that of its body, after the header."""
        encodings = []
        for encoding, _ in encoded_formats().values():
            encodings.append(encoding)
            if encoding[:1] == b"\x80":
                encodings.append(encoding[wire.HEADER_LEN :])
        layouts = declared_layouts()
        held = {layout.name for layout in layouts}
        assert {"update confirmation", "Invoke_CMD", "Hash command"} <= held
        for layout in layouts:
            assert any(decodes(layout, e) for e in encodings), f"nothing listed is {layout.name!r}"
