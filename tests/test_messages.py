import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trctee import messages

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

    @pytest.mark.parametrize("name", [b"\xff", b"../x", b"..", b".", b"a/b", b""])
    def test_bad_blob_names_rejected(self, name):
        payload = bytes([messages.STORE_BLOB]) + struct.pack(">H", len(name)) + name + b"blob"
        with pytest.raises(messages.MessageError):
            messages.decode_store_blob(payload)
