"""Channel payloads that have no TPM form.

A sealed frame carries either TPM command/response bytes (deploy and
invoke, in the :mod:`trctee.wire` format, first byte 0x80) or one of the
messages below: one byte of message type (0x01-0x06), then type-specific
fields (big-endian lengths).  These cover the boot report, the bitstream
upload and the key-update exchange between the vTPM and the device-side
TMM; the TPM-Agent in between forwards the sealed frames without parsing
them.  Each message is one :class:`~trctee.layout.Layout`: every decoder
raises :class:`MessageError` on malformed input, takes any bytes-like
payload (an opened frame is a view of its record) and returns the fields
it keeps as ``bytes``, ``int`` or ``str``.
"""

from __future__ import annotations

import re

from .crypto import DIGEST_LEN, MAC_LEN
from .errors import TrcteeError
from .layout import REST, Layout, blob, exact, records, uint
from .puf import CHALLENGE_LEN
from .vtpm import BOOT_PCR_COUNT

BOOT_REPORT = 0x01
UPDATE_REQ = 0x02
UPDATE_CONFIRM_D = 0x03
UPDATE_CONFIRM_V = 0x04
STORE_BLOB = 0x05
STORE_OK = 0x06

# Names a stored blob may have: one flat file name, never "." or "..".
BLOB_NAME = re.compile(r"(?!\.+$)[A-Za-z0-9._-]+")


class MessageError(TrcteeError):
    pass


_MEASUREMENT = Layout("boot measurement", MessageError, uint(1), blob(2, str), exact(DIGEST_LEN))
_BOOT_REPORT = Layout("boot report", MessageError, bytes([BOOT_REPORT]), records(2, _MEASUREMENT))
_UPDATE_REQ = Layout(
    "update request", MessageError, bytes([UPDATE_REQ]),
    exact(CHALLENGE_LEN), exact(DIGEST_LEN), uint(4),
)
_UPDATE_CONFIRM = {
    kind: Layout("update confirmation", MessageError, bytes([kind]), exact(MAC_LEN))
    for kind in (UPDATE_CONFIRM_D, UPDATE_CONFIRM_V)
}
_STORE_BLOB = Layout("store request", MessageError, bytes([STORE_BLOB]), blob(2, str), REST)


def kind_of(payload: bytes) -> int:
    if not payload:
        raise MessageError("empty channel payload")
    return payload[0]


# -- boot report ---------------------------------------------------------------


def encode_boot_report(measurements: list[tuple[int, str, bytes]]) -> bytes:
    return _BOOT_REPORT.encode(measurements)


def decode_boot_report(payload: bytes) -> list[tuple[int, str, bytes]]:
    (measurements,) = _BOOT_REPORT.decode(payload)
    for index, name, _ in measurements:
        if index >= BOOT_PCR_COUNT:
            raise MessageError(f"boot measurement index {index} outside 0..{BOOT_PCR_COUNT - 1}")
        if "\n" in name or "\r" in name:
            raise MessageError("boot component name must be a single line")
    return measurements


# -- session-key update --------------------------------------------------------


def encode_update_req(challenge: bytes, state_hash: bytes, new_epoch: int) -> bytes:
    return _UPDATE_REQ.encode(challenge, state_hash, new_epoch)


def decode_update_req(payload: bytes) -> tuple[bytes, bytes, int]:
    return _UPDATE_REQ.decode(payload)


def encode_update_confirm(kind: int, mac: bytes) -> bytes:
    return _UPDATE_CONFIRM[kind].encode(mac)


def decode_update_confirm(payload: bytes, kind: int) -> bytes:
    (mac,) = _UPDATE_CONFIRM[kind].decode(payload)
    return mac


# -- file-store upload -----------------------------------------------------------


def encode_store_blob(name: str, blob: bytes) -> bytes:
    return _STORE_BLOB.encode(name, blob)


def decode_store_blob(payload: bytes) -> tuple[str, bytes]:
    name, blob = _STORE_BLOB.decode(payload)
    if not BLOB_NAME.fullmatch(name):
        raise MessageError(f"unsafe blob name {name!r}")
    return name, blob


def encode_store_ok() -> bytes:
    return bytes([STORE_OK])
