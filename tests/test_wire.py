import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import concat_invoke_cmd, concat_invoke_resp
from trctee import wire


class TestFixedEncodings:
    def test_update_cmd_exact_bytes(self):
        encoded = wire.encode(wire.UpdateCmd(challenge=bytes(4)))
        assert encoded == bytes.fromhex("8001" + "0000000e" + "1f000000" + "00000000")
        assert len(encoded) == 14

    def test_update_resp_lengths_and_mirror(self):
        ok = wire.encode(wire.UpdateResp(return_code=0))
        failed = wire.encode(wire.UpdateResp(return_code=1))
        assert len(ok) == 12 and len(failed) == 12
        # Header response code mirrors the body return code.
        assert struct.unpack(">HII", ok[:10])[2] == 0
        assert struct.unpack(">HII", failed[:10])[2] == 1
        assert ok[10:] == b"\x00\x00" and failed[10:] == b"\x00\x01"

    def test_deploy_cmd_zero_serial(self):
        encoded = wire.encode(wire.DeployCmd(ip_num=0))
        assert len(encoded) == 12
        assert encoded.endswith(b"\x00\x00")
        assert encoded[6:10] == bytes.fromhex("2f000000")

    def test_deploy_resp_is_58_bytes(self):
        encoded = wire.encode(wire.DeployResp(bin_hash=bytes(48)))
        assert len(encoded) == 58

    def test_invoke_cmd_length_formula(self):
        encoded = wire.encode(wire.InvokeCmd(ip_num=1, input=b"abc", flag=0))
        # brute-force sum over field widths: header + serial + length + input + flag
        assert len(encoded) == 10 + 2 + 4 + 3 + 4 == 23
        assert encoded[6:10] == bytes.fromhex("3f000000")

    def test_extended_code_bytes_are_literal_wire_order(self):
        for msg, code in [
            (wire.UpdateCmd(bytes(4)), b"\x1f\x00\x00\x00"),
            (wire.DeployCmd(0), b"\x2f\x00\x00\x00"),
            (wire.InvokeCmd(0, b"", 0), b"\x3f\x00\x00\x00"),
        ]:
            assert wire.encode(msg)[6:10] == code

    def test_length_field_matches_encoded_length(self):
        for msg in [
            wire.UpdateCmd(b"\x01\x02\x03\x04"),
            wire.DeployCmd(ip_num=7),
            wire.InvokeCmd(ip_num=3, input=b"xyz123", flag=9),
            wire.StandardCmd(wire.CC_GET_RANDOM, b"\x00\x10"),
            wire.InvokeResp(output=b"out"),
            wire.DeployResp(bin_hash=bytes(range(48))),
        ]:
            encoded = wire.encode(msg)
            assert struct.unpack(">I", encoded[2:6])[0] == len(encoded)


class TestDecodeErrors:
    def test_nine_bytes_truncated(self):
        with pytest.raises(wire.Truncated):
            wire.decode(b"\x80\x01" + bytes(7))

    def test_forced_length_mismatch(self):
        good = wire.encode(wire.UpdateCmd(bytes(4)))
        bad = good[:2] + struct.pack(">I", 13) + good[6:]
        with pytest.raises(wire.LengthMismatch):
            wire.decode(bad)

    def test_declared_longer_than_data(self):
        good = wire.encode(wire.DeployCmd(1))
        bad = good[:2] + struct.pack(">I", 100) + good[6:]
        with pytest.raises(wire.Truncated):
            wire.decode(bad)

    def test_trailing_garbage(self):
        with pytest.raises(wire.LengthMismatch):
            wire.decode(wire.encode(wire.DeployCmd(1)) + b"x")

    def test_unknown_code_is_reported(self):
        data = struct.pack(">HII", 0x8001, 10, 0xDEADBEEF)
        with pytest.raises(wire.UnknownCode) as excinfo:
            wire.decode(data)
        assert excinfo.value.code == 0xDEADBEEF

    def test_invoke_inner_length_mismatch(self):
        body = struct.pack(">HI", 1, 99) + b"abc" + struct.pack(">I", 0)
        data = struct.pack(">HII", 0x8001, 10 + len(body), wire.CC_INVOKE) + body
        with pytest.raises(wire.LengthMismatch):
            wire.decode(data)

    def test_body_too_large(self):
        class Huge(bytes):
            def __len__(self):
                return 1 << 33

        with pytest.raises(wire.BodyTooLarge):
            wire.encode(wire.InvokeCmd(ip_num=0, input=Huge(), flag=0))

    def test_body_too_large_for_the_total_length(self):
        class Huge(bytes):  # fits a 4-byte length field, but not after a header
            def __len__(self):
                return wire.MAX_TOTAL_LEN - wire.HEADER_LEN + 1

        for message in [
            wire.InvokeCmd(ip_num=0, input=Huge(), flag=0),
            wire.InvokeResp(output=Huge()),
            wire.StandardCmd(wire.CC_HASH, Huge()),
        ]:
            with pytest.raises(wire.BodyTooLarge):
                wire.encode(message)

    def test_field_invariants(self):
        with pytest.raises(ValueError):
            wire.UpdateCmd(challenge=b"\x00" * 5)
        with pytest.raises(ValueError):
            wire.DeployCmd(ip_num=70000)
        with pytest.raises(ValueError):
            wire.UpdateResp(return_code=2)
        with pytest.raises(ValueError):
            wire.DeployResp(bin_hash=bytes(47))

    @pytest.mark.parametrize(
        "message, fields, reason",
        [
            (wire.DeployResp, dict(bin_hash=bytes(48), response_code=1 << 32), "response code"),
            (wire.InvokeCmd, dict(ip_num=1 << 16, input=b""), "ip_num"),
            (wire.InvokeCmd, dict(ip_num=0, input=b"", flag=-1), "flag"),
            (wire.InvokeResp, dict(output=b"", response_code=-1), "response code"),
            (wire.StandardCmd, dict(command_code=1 << 32), "command code"),
            (wire.StandardCmd, dict(command_code=wire.CC_HASH, tag=0x8003), "bad command tag"),
            (wire.StandardResp, dict(response_code=1 << 32), "response code"),
        ],
        ids=[
            "deploy-resp-code", "invoke-ip-num", "invoke-flag", "invoke-resp-code",
            "standard-code", "standard-tag", "standard-resp-code",
        ],
    )
    def test_out_of_range_fields_are_refused(self, message, fields, reason):
        with pytest.raises(ValueError, match=reason):
            message(**fields)

    def test_encode_refuses_what_is_not_a_tpm_message(self):
        with pytest.raises(TypeError, match="not a TPM message: bytes"):
            wire.encode(b"\x80\x01")

    def test_response_to_an_unknown_code_is_reported(self):
        data = wire.encode(wire.StandardResp(response_code=0))
        with pytest.raises(wire.UnknownCode) as excinfo:
            wire.decode_response(data, 0xDEADBEEF)
        assert excinfo.value.code == 0xDEADBEEF


def random_command(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return wire.UpdateCmd(challenge=rng.randbytes(4))
    if kind == 1:
        return wire.DeployCmd(ip_num=rng.randrange(0x10000))
    if kind == 2:
        return wire.InvokeCmd(
            ip_num=rng.randrange(0x10000),
            input=rng.randbytes(rng.randrange(0, 2048)),
            flag=rng.randrange(0x100000000),
        )
    return wire.StandardCmd(
        command_code=rng.randrange(wire.TPM_CC_FIRST, wire.TPM_CC_LAST + 1),
        body=rng.randbytes(rng.randrange(0, 256)),
        tag=rng.choice([wire.TAG_NO_SESSIONS, wire.TAG_SESSIONS]),
    )


def random_response(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return wire.UpdateResp(return_code=rng.randrange(2)), wire.CC_UPDATE
    if kind == 1:
        return (
            wire.DeployResp(bin_hash=rng.randbytes(48), response_code=rng.randrange(2)),
            wire.CC_DEPLOY,
        )
    if kind == 2:
        return (
            wire.InvokeResp(
                output=rng.randbytes(rng.randrange(0, 2048)),
                response_code=rng.randrange(2),
            ),
            wire.CC_INVOKE,
        )
    code = rng.randrange(wire.TPM_CC_FIRST, wire.TPM_CC_LAST + 1)
    return (
        wire.StandardResp(
            response_code=rng.randrange(0x200),
            body=rng.randbytes(rng.randrange(0, 256)),
            tag=rng.choice([wire.TAG_NO_SESSIONS, wire.TAG_SESSIONS]),
        ),
        code,
    )


class TestRoundTrip:
    def test_randomized_commands(self):
        rng = random.Random(0x7FC)
        for _ in range(2000):
            msg = random_command(rng)
            assert wire.decode(wire.encode(msg)) == msg

    def test_randomized_responses(self):
        rng = random.Random(0x7FD)
        for _ in range(2000):
            msg, code = random_response(rng)
            assert wire.decode_response(wire.encode(msg), code) == msg

    @given(challenge=st.binary(min_size=4, max_size=4))
    def test_update_cmd_property(self, challenge):
        assert wire.decode(wire.encode(wire.UpdateCmd(challenge))) == wire.UpdateCmd(challenge)

    @given(
        ip_num=st.integers(0, 0xFFFF),
        payload=st.binary(max_size=4096),
        flag=st.integers(0, 0xFFFFFFFF),
    )
    def test_invoke_cmd_property(self, ip_num, payload, flag):
        msg = wire.InvokeCmd(ip_num=ip_num, input=payload, flag=flag)
        assert wire.decode(wire.encode(msg)) == msg


class TestInvokeMatchesConcatenation:
    """The one-join encoder and the view-slicing decoder against a
    field-by-field reference, for payloads up to 1 MiB."""

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(0, 1 << 20),
        seed=st.integers(0, 2**32 - 1),
        ip_num=st.integers(0, 0xFFFF),
        code=st.integers(0, 0xFFFFFFFF),
    )
    @example(size=0, seed=0, ip_num=0, code=0)
    @example(size=1 << 20, seed=1, ip_num=0xFFFF, code=0xFFFFFFFF)
    def test_invoke_cmd_and_resp(self, size, seed, ip_num, code):
        payload = random.Random(seed).randbytes(size)
        command = wire.InvokeCmd(ip_num=ip_num, input=payload, flag=code)
        encoded = wire.encode(command)
        assert encoded == concat_invoke_cmd(ip_num, payload, code)
        decoded = wire.decode(encoded)
        assert decoded == command and type(decoded.input) is bytes

        response = wire.InvokeResp(output=payload, response_code=code)
        encoded = wire.encode(response)
        assert encoded == concat_invoke_resp(payload, code)
        decoded = wire.decode_response(encoded, wire.CC_INVOKE)
        assert decoded == response and type(decoded.output) is bytes

    def test_decoded_fields_are_bytes_from_a_bytearray(self):
        for message, code in [
            (wire.UpdateCmd(challenge=b"abcd"), None),
            (wire.StandardCmd(wire.CC_HASH, b"\x00\x0cdata"), None),
            (wire.DeployResp(bin_hash=bytes(range(48))), wire.CC_DEPLOY),
            (wire.StandardResp(response_code=0, body=b"xyz"), wire.CC_HASH),
        ]:
            data = bytearray(wire.encode(message))
            decoded = wire.decode(data) if code is None else wire.decode_response(data, code)
            assert decoded == message
            assert all(type(v) is bytes for v in vars(decoded).values() if not isinstance(v, int))


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = random.Random(0xF422)
        for _ in range(20000):
            data = rng.randbytes(rng.randrange(0, 64))
            try:
                wire.decode(data)
            except wire.WireError:
                pass

    def test_mutated_valid_messages_never_crash(self):
        rng = random.Random(0xF423)
        for _ in range(5000):
            data = bytearray(wire.encode(random_command(rng)))
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                wire.decode(bytes(data))
            except wire.WireError:
                pass

    def test_mutated_responses_never_crash(self):
        rng = random.Random(0xF424)
        codes = [wire.CC_UPDATE, wire.CC_DEPLOY, wire.CC_INVOKE, wire.CC_GET_RANDOM]
        for _ in range(5000):
            msg, code = random_response(rng)
            data = bytearray(wire.encode(msg))
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                wire.decode_response(bytes(data), rng.choice(codes))
            except wire.WireError:
                pass

    @settings(max_examples=300)
    @given(data=st.binary(max_size=128))
    def test_decoder_totality(self, data):
        try:
            wire.decode(data)
        except wire.WireError:
            pass
