import hashlib
import io
import random
import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pcr_chain
from trctee import vtpm, wire
from trctee.crypto import Rng


@pytest.fixture
def engine():
    return vtpm.Vtpm(rng=Rng(3))


class TestPcrBank:
    def test_reset_state_is_zero(self):
        bank = vtpm.PcrBank()
        for index in range(24):
            assert bank.read(index) == bytes(48)

    def test_extend_from_reset_matches_reference(self):
        bank = vtpm.PcrBank()
        digest = hashlib.sha384(b"component").digest()
        value = bank.extend(0, digest)
        assert value == hashlib.sha384(bytes(48) + digest).digest()
        assert value == pcr_chain([digest])

    def test_extend_order_sensitivity(self):
        a = hashlib.sha384(b"a").digest()
        b = hashlib.sha384(b"b").digest()
        bank_ab, bank_ba = vtpm.PcrBank(), vtpm.PcrBank()
        bank_ab.extend(3, a)
        bank_ab.extend(3, b)
        bank_ba.extend(3, b)
        bank_ba.extend(3, a)
        assert bank_ab.read(3) == pcr_chain([a, b])
        assert bank_ba.read(3) == pcr_chain([b, a])
        assert bank_ab.read(3) != bank_ba.read(3)

    def test_index_out_of_range(self):
        bank = vtpm.PcrBank()
        with pytest.raises(vtpm.IndexOutOfRange):
            bank.extend(24, bytes(48))
        with pytest.raises(vtpm.IndexOutOfRange):
            bank.read(31)
        with pytest.raises(vtpm.IndexOutOfRange):
            bank.read(-1)

    def test_digest_width_enforced(self):
        with pytest.raises(vtpm.BadLength):
            vtpm.PcrBank().extend(0, bytes(47))

    def test_state_hash_covers_all_registers(self):
        bank = vtpm.PcrBank()
        before = bank.state_hash()
        bank.extend(23, hashlib.sha384(b"x").digest())
        assert bank.state_hash() != before
        assert bank.state_hash() == hashlib.sha384(b"".join(bank.registers())).digest()


class TestLog:
    def test_replay_reproduces_registers(self, engine):
        rng = random.Random(9)
        for _ in range(40):
            engine.pcr_extend(
                rng.randrange(24),
                rng.randbytes(48),
                vtpm.EventKind.OTHER,
                f"event-{rng.randrange(100)}",
            )
        replayed = vtpm.replay_log(engine.log)
        assert replayed.registers() == engine.pcrs.registers()

    def test_seq_strictly_increases(self, engine):
        for index in range(5):
            engine.pcr_extend(index, bytes(48))
        assert [e.seq for e in engine.log] == list(range(5))

    def test_export_parse_round_trip(self, engine):
        engine.pcr_extend(0, hashlib.sha384(b"fsbl").digest(), vtpm.EventKind.BOOT_COMPONENT, "fsbl")
        engine.pcr_extend(9, hashlib.sha384(b"in").digest(), vtpm.EventKind.IP_INPUT, "invoke-ip1-input")
        engine.pcr_extend(1, bytes(48), vtpm.EventKind.OTHER, "label, with comma")
        parsed = vtpm.parse_log(engine.export_log())
        assert parsed == engine.log

    def test_export_line_format(self, engine):
        digest = hashlib.sha384(b"fsbl").digest()
        engine.pcr_extend(0, digest, vtpm.EventKind.BOOT_COMPONENT, "fsbl")
        line = engine.export_log().strip()
        assert line == f"0, 0, BootComponent, fsbl, {digest.hex()}"

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 23),
                st.sampled_from(vtpm.EventKind),
                st.text(st.characters(exclude_characters="\n\r", exclude_categories=())),
                st.binary(min_size=48, max_size=48),
            ).filter(lambda event: event[0] in vtpm.KIND_PCRS[event[1]]),
            max_size=8,
        )
    )
    @example([(0, vtpm.EventKind.BOOT_COMPONENT, c, bytes(48)) for c in "\x0b\x1c\x85\u2028"])
    @example([(5, vtpm.EventKind.OTHER, label, bytes(48)) for label in (" , , ", "")])
    def test_round_trip_any_accepted_label(self, events):
        engine = vtpm.Vtpm(rng=Rng(3))
        for index, kind, label, digest in events:
            engine.pcr_extend(index, digest, kind, label)
        assert vtpm.parse_log(engine.export_log()) == engine.log


DIGEST_HEX = "ab" * 48


class TestParseLogIsTotal:
    @pytest.mark.parametrize(
        "text",
        [
            "garbage\n",
            "0, 0, BootComponent\n",
            f"0, 0, Boot, fsbl, {DIGEST_HEX}\n",
            f"0, 24, Other, x, {DIGEST_HEX}\n",
            f"0, 30, Other, x, {DIGEST_HEX}\n",
            f"0, -1, Other, x, {DIGEST_HEX}\n",
            "0, 0, Other, x, ab\n",
            f"0, 0, Other, x, {DIGEST_HEX}ab\n",
            f"0, 0, Other, x, {'zz' * 48}\n",
            f"0, 0, Other, x, {'ab ' * 32}\n",
            f"1, 0, Other, x, {DIGEST_HEX}\n",
            f"0, 0, Other, x, {DIGEST_HEX}\n2, 0, Other, x, {DIGEST_HEX}\n",
            f"0, 0, Other, x, {DIGEST_HEX}\n0, 0, Other, x, {DIGEST_HEX}\n",
            f"0, 0, Other, a\rb, {DIGEST_HEX}\n",
        ],
    )
    def test_bad_line_is_a_log_format_error(self, text):
        with pytest.raises(vtpm.LogFormatError):
            vtpm.parse_log(text)

    def test_error_names_the_line(self):
        text = f"0, 0, Other, x, {DIGEST_HEX}\n\n1, 0, Other, x, ab\n"
        with pytest.raises(vtpm.LogFormatError, match="^line 3: "):
            vtpm.parse_log(text)

    def test_blank_lines_and_crlf_tolerated(self):
        text = f"\n0, 0, Other, x, {DIGEST_HEX}\r\n  \n1, 9, IpInput, y, {DIGEST_HEX}"
        assert [(e.seq, e.pcr_index, e.label) for e in vtpm.parse_log(text)] == [
            (0, 0, "x"),
            (1, 9, "y"),
        ]

    @pytest.mark.parametrize(
        "index, kind",
        [(8, "BootComponent"), (23, "BootComponent"), (0, "IpDeploy"), (9, "IpDeploy"),
         (8, "IpInput"), (10, "IpInput"), (9, "IpOutput"), (11, "IpOutput")],
    )
    def test_kind_outside_its_registers_is_a_log_format_error(self, index, kind):
        good = f"0, 0, BootComponent, fsbl, {DIGEST_HEX}\n"
        with pytest.raises(vtpm.LogFormatError, match=f"^line 2: {kind} event on PCR {index}"):
            vtpm.parse_log(good + f"1, {index}, {kind}, x, {DIGEST_HEX}\n")
        with pytest.raises(vtpm.IndexOutOfRange):
            vtpm.Vtpm(rng=Rng(3)).pcr_extend(index, bytes(48), vtpm.EventKind(kind), "x")

    def test_every_allowed_pair_parses(self):
        pairs = [(index, kind) for kind, pcrs in vtpm.KIND_PCRS.items() for index in pcrs]
        assert len(pairs) == 8 + 1 + 1 + 1 + 24  # Other goes anywhere
        text = "".join(
            f"{seq}, {index}, {kind.value}, x, {DIGEST_HEX}\n"
            for seq, (index, kind) in enumerate(pairs)
        )
        assert [(e.pcr_index, e.kind) for e in vtpm.parse_log(text)] == pairs

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.text(),
            st.lists(
                st.tuples(
                    st.sampled_from(["0", "1", "00", "+0", " 0", "-1", "x", ""]),
                    st.sampled_from(["0", "23", "24", "\u0663", "07", "-0", ""]),
                    st.sampled_from([k.value for k in vtpm.EventKind] + ["Bogus", ""]),
                    st.text(max_size=12),
                    st.text(alphabet="0123456789abcdefABCDEF g,\r", max_size=100),
                ),
                max_size=4,
            ).map(lambda rows: "\n".join(", ".join(row) for row in rows)),
        )
    )
    def test_fuzz_raises_only_log_format_error(self, text):
        try:
            events = vtpm.parse_log(text)
        except vtpm.LogFormatError:
            return
        assert [e.seq for e in events] == list(range(len(events)))


EVENTS = st.tuples(
    st.integers(0, 23),
    st.sampled_from(vtpm.EventKind),
    st.text(st.characters(exclude_characters="\n\r", exclude_categories=()), max_size=8),
    st.binary(min_size=48, max_size=48),
).filter(lambda event: event[0] in vtpm.KIND_PCRS[event[1]])


@st.composite
def log_texts(draw):
    """Exported lines and junk, joined by LF, CRLF or blank lines."""
    parts, seq = [], 0
    for row in draw(st.lists(st.one_of(EVENTS, st.text(max_size=16)), max_size=6)):
        if isinstance(row, str):
            parts.append(row)
        else:
            index, kind, label, digest = row
            parts.append(f"{seq}, {index}, {kind.value}, {label}, {digest.hex()}")
            seq += 1
        parts.append(draw(st.sampled_from(["\n", "\r\n", "\n\n", "\n \t\n"])))
    if parts and draw(st.booleans()):
        parts.pop()
    return "".join(parts)


def outcome(log):
    """The events :func:`vtpm.iter_log` yields, or the message it raises."""
    try:
        return list(vtpm.iter_log(log))
    except vtpm.LogFormatError as exc:
        return f"LogFormatError: {exc}"


class TestOneParser:
    @settings(max_examples=300)
    @given(log_texts())
    @example(f"0, 0, Other, a\x1cb, {DIGEST_HEX}\r\n1, 1, Other, \u2028, {DIGEST_HEX}\n")
    @example(f"0, 0, Other, x, {DIGEST_HEX}\r\n\r\n1, 0, Other, x, ab\r\n")
    def test_text_lines_and_list_agree(self, text):
        expected = outcome(text)
        assert outcome(io.StringIO(text, newline="\n")) == expected
        lines = text.splitlines(keepends=True)
        if all(line.endswith("\n") for line in lines[:-1]):  # split at "\n" only
            assert outcome(lines) == expected
        try:
            assert vtpm.parse_log(text) == expected
        except vtpm.LogFormatError as exc:
            assert f"LogFormatError: {exc}" == expected

    def test_label_with_other_line_breaks_is_one_line(self):
        text = f"0, 0, Other, a\x1cb\u2028c, {DIGEST_HEX}\n"
        assert [e.label for e in vtpm.iter_log(text)] == ["a\x1cb\u2028c"]
        with pytest.raises(vtpm.LogFormatError, match="^line 1: "):
            list(vtpm.iter_log(text.splitlines(keepends=True)))

    @given(st.lists(EVENTS, max_size=8))
    def test_export_log_joins_export_lines(self, events):
        engine = vtpm.Vtpm(rng=Rng(3))
        for index, kind, label, digest in events:
            engine.pcr_extend(index, digest, kind, label)
        lines = list(vtpm.export_lines(engine.log))
        assert engine.export_log() == vtpm.export_log(engine.log) == "".join(lines)
        assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
        assert list(vtpm.iter_log(lines)) == engine.log


class TestGetRandom:
    def test_sixteen_bytes(self, engine):
        assert len(engine.get_random(16)) == 16

    def test_deterministic_under_seed(self):
        a, b = vtpm.Vtpm(rng=Rng(77)), vtpm.Vtpm(rng=Rng(77))
        assert [a.get_random(16) for _ in range(4)] == [b.get_random(16) for _ in range(4)]

    def test_bad_lengths(self, engine):
        with pytest.raises(vtpm.BadLength):
            engine.get_random(0)
        with pytest.raises(vtpm.BadLength):
            engine.get_random(65)


class TestHash:
    def test_sha256_empty_reference_vector(self, engine):
        assert (
            engine.hash(b"", "sha256").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_sha384_reference(self, engine):
        assert engine.hash(b"abc", "SHA-384") == hashlib.sha384(b"abc").digest()

    def test_sha3_384_matches_hashlib(self, engine):
        blob = b"bitstream-blob" * 11
        assert engine.hash(blob, "sha3-384") == hashlib.sha3_384(blob).digest()

    def test_unsupported_alg(self, engine):
        with pytest.raises(vtpm.UnsupportedAlg):
            engine.hash(b"x", "MD5")


def _standard(code, body=b""):
    return wire.encode(wire.StandardCmd(command_code=code, body=body))


class TestDispatch:
    def test_get_random_command(self, engine):
        resp = wire.decode_response(
            engine.dispatch(_standard(wire.CC_GET_RANDOM, struct.pack(">H", 16))),
            wire.CC_GET_RANDOM,
        )
        assert resp.response_code == 0
        size = struct.unpack(">H", resp.body[:2])[0]
        assert size == 16 and len(resp.body) == 18

    def test_pcr_extend_then_read(self, engine):
        digest = hashlib.sha384(b"m").digest()
        resp = wire.decode_response(
            engine.dispatch(_standard(wire.CC_PCR_EXTEND, struct.pack(">I", 4) + digest)),
            wire.CC_PCR_EXTEND,
        )
        assert resp.response_code == 0
        read = wire.decode_response(
            engine.dispatch(_standard(wire.CC_PCR_READ, struct.pack(">I", 4))),
            wire.CC_PCR_READ,
        )
        assert read.body == pcr_chain([digest])

    def test_hash_command(self, engine):
        body = struct.pack(">H", vtpm.ALG_SHA256) + b"abc"
        resp = wire.decode_response(
            engine.dispatch(_standard(wire.CC_HASH, body)), wire.CC_HASH
        )
        assert resp.body[2:] == hashlib.sha256(b"abc").digest()

    def test_unsupported_standard_code(self, engine):
        resp = wire.decode_response(
            engine.dispatch(_standard(0x00000176)), 0x00000176
        )
        assert resp.response_code == vtpm.RC_COMMAND_CODE

    def test_malformed_nine_bytes(self, engine):
        before = engine.pcrs.registers()
        resp = engine.dispatch(b"\x80\x01" + bytes(7))
        assert struct.unpack(">HII", resp[:10])[2] == vtpm.RC_BAD_TAG
        assert engine.pcrs.registers() == before

    def test_bad_pcr_index_is_response_not_exception(self, engine):
        resp = wire.decode_response(
            engine.dispatch(_standard(wire.CC_PCR_READ, struct.pack(">I", 99))),
            wire.CC_PCR_READ,
        )
        assert resp.response_code == vtpm.RC_VALUE

    def test_bad_bodies_answer_command_size_and_unknown_alg_rc_hash(self, engine):
        digest = bytes(48)
        wrong_sizes = [
            (wire.CC_GET_RANDOM, b"\x10"),
            (wire.CC_GET_RANDOM, b"\x00\x10\x00"),
            (wire.CC_PCR_READ, b"\x00\x00\x04"),
            (wire.CC_PCR_READ, struct.pack(">I", 4) + b"\x00"),
            (wire.CC_PCR_EXTEND, struct.pack(">I", 4) + digest[1:]),
            (wire.CC_PCR_EXTEND, struct.pack(">I", 4) + digest + b"\x00"),
            (wire.CC_HASH, b""),
            (wire.CC_HASH, b"\x00"),
        ]
        before = engine.pcrs.registers()
        for code, body in wrong_sizes:
            resp = wire.decode_response(engine.dispatch(_standard(code, body)), code)
            assert (resp.response_code, resp.body) == (vtpm.RC_COMMAND_SIZE, b""), (code, body)
        assert engine.pcrs.registers() == before and engine.log == []
        sha1 = struct.pack(">H", 0x0004) + b"abc"  # TPM_ALG_SHA1, which the engine lacks
        resp = wire.decode_response(engine.dispatch(_standard(wire.CC_HASH, sha1)), wire.CC_HASH)
        assert (resp.response_code, resp.body) == (vtpm.RC_HASH, b"")

    def test_extended_without_handlers_fail_cleanly(self, engine):
        update = wire.decode_response(
            engine.dispatch(wire.encode(wire.UpdateCmd(bytes(4)))), wire.CC_UPDATE
        )
        assert update.return_code == 1
        deploy = wire.decode_response(
            engine.dispatch(wire.encode(wire.DeployCmd(1))), wire.CC_DEPLOY
        )
        assert deploy.response_code == 1 and deploy.bin_hash == bytes(48)
        assert len(wire.encode(deploy)) == 58

    @given(data=st.binary(max_size=64))
    def test_dispatch_totality(self, data):
        engine = vtpm.Vtpm(rng=Rng(1))
        response = engine.dispatch(data)
        assert isinstance(response, bytes) and len(response) >= 10

    def test_invoke_routed_without_copying_its_input(self, engine):
        size = 256 * 1024
        command = wire.encode(wire.InvokeCmd(ip_num=1, input=Rng(4).bytes(size)))
        answer = wire.encode(wire.InvokeResp(output=b""))
        digests = []

        def handler(message, raw):
            digests.append(hashlib.sha384(message.input).digest())
            return answer

        engine.forward_handler = handler
        tracemalloc.start()
        try:
            assert engine.dispatch(command) == answer
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digests == [hashlib.sha384(command[16:-4]).digest()]
        assert peak < size // 8, f"dispatch allocated {peak} bytes"

    def test_deploy_handler_wiring(self, engine):
        calls = []
        answer = wire.encode(wire.DeployResp(bin_hash=bytes(range(48))))

        def handler(message, raw):
            calls.append((message, raw))
            return answer

        engine.forward_handler = handler
        deploy = wire.encode(wire.DeployCmd(5))
        invoke = wire.encode(wire.InvokeCmd(ip_num=2, input=b"abc", flag=0))
        assert engine.dispatch(deploy) == answer
        assert engine.dispatch(invoke) == answer
        assert calls == [(wire.DeployCmd(5), deploy), (wire.InvokeCmd(2, b"abc", 0), invoke)]
