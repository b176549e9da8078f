"""Channel payloads that have no TPM form.

A sealed frame carries either TPM command/response bytes (deploy and
invoke, in the :mod:`trctee.wire` format, first byte 0x80) or one of the
messages below: one byte of message type (0x01-0x06), then type-specific
fields (big-endian lengths).  These cover the boot report, the bitstream
upload and the key-update exchange between the vTPM and the device-side
TMM; the TPM-Agent in between forwards the sealed frames without parsing
them.  Every decoder raises :class:`MessageError` on malformed input, takes
any bytes-like payload (an opened frame is a view of its record) and
returns the fields it keeps as ``bytes``.
"""

from __future__ import annotations

import re
import struct

from .errors import TrcteeError

BOOT_REPORT = 0x01
UPDATE_REQ = 0x02
UPDATE_CONFIRM_D = 0x03
UPDATE_CONFIRM_V = 0x04
STORE_BLOB = 0x05
STORE_OK = 0x06

DIGEST_LEN = 48
MAC_LEN = 48
BOOT_PCR_COUNT = 8  # boot components are measured into PCR 0..7

# Names a stored blob may have: one flat file name, never "." or "..".
BLOB_NAME = re.compile(r"(?!\.+$)[A-Za-z0-9._-]+")


class MessageError(TrcteeError):
    pass


def kind_of(payload: bytes) -> int:
    if not payload:
        raise MessageError("empty channel payload")
    return payload[0]


def _expect(payload: bytes, kind: int) -> bytes:
    if kind_of(payload) != kind:
        raise MessageError(f"expected message type {kind}, got {payload[0]}")
    return payload[1:]


def _text(data: bytes) -> str:
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError:
        raise MessageError("name is not UTF-8") from None


# -- boot report ---------------------------------------------------------------


def encode_boot_report(measurements: list[tuple[int, str, bytes]]) -> bytes:
    out = bytearray([BOOT_REPORT])
    out += struct.pack(">H", len(measurements))
    for index, name, digest in measurements:
        if len(digest) != DIGEST_LEN:
            raise MessageError("boot measurement digest must be 48 bytes")
        encoded = name.encode()
        out += struct.pack(">BH", index, len(encoded)) + encoded + digest
    return bytes(out)


def decode_boot_report(payload: bytes) -> list[tuple[int, str, bytes]]:
    body = _expect(payload, BOOT_REPORT)
    if len(body) < 2:
        raise MessageError("boot report truncated")
    (count,) = struct.unpack_from(">H", body)
    offset = 2
    measurements = []
    for _ in range(count):
        if len(body) < offset + 3:
            raise MessageError("boot report truncated")
        index, name_len = struct.unpack_from(">BH", body, offset)
        offset += 3
        if index >= BOOT_PCR_COUNT:
            raise MessageError(f"boot measurement index {index} outside 0..{BOOT_PCR_COUNT - 1}")
        if len(body) < offset + name_len + DIGEST_LEN:
            raise MessageError("boot report truncated")
        name = _text(body[offset : offset + name_len])
        if "\n" in name or "\r" in name:
            raise MessageError("boot component name must be a single line")
        offset += name_len
        digest = bytes(body[offset : offset + DIGEST_LEN])
        offset += DIGEST_LEN
        measurements.append((index, name, digest))
    if offset != len(body):
        raise MessageError("boot report has trailing bytes")
    return measurements


# -- session-key update --------------------------------------------------------


def encode_update_req(challenge: bytes, state_hash: bytes, new_epoch: int) -> bytes:
    if len(challenge) != 4 or len(state_hash) != DIGEST_LEN:
        raise MessageError("bad update request field sizes")
    return bytes([UPDATE_REQ]) + challenge + state_hash + struct.pack(">I", new_epoch)


def decode_update_req(payload: bytes) -> tuple[bytes, bytes, int]:
    body = _expect(payload, UPDATE_REQ)
    if len(body) != 4 + DIGEST_LEN + 4:
        raise MessageError("update request length mismatch")
    challenge = bytes(body[:4])
    state_hash = bytes(body[4 : 4 + DIGEST_LEN])
    (new_epoch,) = struct.unpack_from(">I", body, 4 + DIGEST_LEN)
    return challenge, state_hash, new_epoch


def encode_update_confirm(kind: int, mac: bytes) -> bytes:
    if kind not in (UPDATE_CONFIRM_D, UPDATE_CONFIRM_V):
        raise MessageError("not an update confirmation type")
    if len(mac) != MAC_LEN:
        raise MessageError("confirmation MAC must be 48 bytes")
    return bytes([kind]) + mac


def decode_update_confirm(payload: bytes, kind: int) -> bytes:
    mac = _expect(payload, kind)
    if len(mac) != MAC_LEN:
        raise MessageError("confirmation MAC must be 48 bytes")
    return bytes(mac)


# -- file-store upload -----------------------------------------------------------


def encode_store_blob(name: str, blob: bytes) -> bytes:
    encoded = name.encode()
    return bytes([STORE_BLOB]) + struct.pack(">H", len(encoded)) + encoded + blob


def decode_store_blob(payload: bytes) -> tuple[str, bytes]:
    body = _expect(payload, STORE_BLOB)
    if len(body) < 2:
        raise MessageError("store request truncated")
    (name_len,) = struct.unpack_from(">H", body)
    if len(body) < 2 + name_len:
        raise MessageError("store request truncated")
    name = _text(body[2 : 2 + name_len])
    if not BLOB_NAME.fullmatch(name):
        raise MessageError(f"unsafe blob name {name!r}")
    return name, bytes(body[2 + name_len :])


def encode_store_ok() -> bytes:
    return bytes([STORE_OK])
