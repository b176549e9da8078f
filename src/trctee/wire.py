"""Bit-exact codec for TPM 2.0 command/response framing.

Every message starts with the fixed 10-byte header: a 2-byte tag, a 4-byte
total length covering the whole message, and a 4-byte command code (or
response code on the response side).  All integers are big-endian, matching
TPM 2.0 marshaling.  On top of the standard framing this codec understands
the three channel-management extensions:

    0x1F000000  session-key update   (14-byte command, 12-byte response)
    0x2F000000  IP deployment        (12-byte command, 58-byte response)
    0x3F000000  IP invocation        (variable command and response)

Commands and responses are structurally identical on the wire, so decoding
a response needs the code of the command that produced it; that is what
``decode_response`` takes.  Standard (non-extended) bodies are carried
opaque - typed handling of the supported standard subset lives in the vTPM
engine.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

from .errors import TrcteeError

HEADER = struct.Struct(">HII")
HEADER_LEN = HEADER.size  # 10
# Header plus the fixed fields in front of an invoke payload, packed in one go
# so that a large payload is copied once, by one join.
_INVOKE_CMD_HEAD = struct.Struct(">HIIHI")  # ... ip_num, input_length
_INVOKE_RESP_HEAD = struct.Struct(">HIII")  # ... output_length
_U32 = struct.Struct(">I")
MAX_TOTAL_LEN = 0xFFFFFFFF

TAG_NO_SESSIONS = 0x8001
TAG_SESSIONS = 0x8002

# Extended command codes, written as little-endian-looking byte listings in
# the protocol definition but carried literally on the wire: 1F 00 00 00 etc.
CC_UPDATE = 0x1F000000
CC_DEPLOY = 0x2F000000
CC_INVOKE = 0x3F000000

# The standard TPM 2.0 command-code range plus the four codes the vTPM
# implements.  Codes outside the range (and not extended) are rejected.
TPM_CC_FIRST = 0x0000011F
TPM_CC_LAST = 0x00000193
CC_GET_RANDOM = 0x0000017B
CC_HASH = 0x0000017D
CC_PCR_READ = 0x0000017E
CC_PCR_EXTEND = 0x00000182

UPDATE_CMD_LEN = 14
UPDATE_RESP_LEN = 12
DEPLOY_CMD_LEN = 12
DEPLOY_RESP_LEN = 58

CHALLENGE_LEN = 4
BIN_HASH_LEN = 48


class WireError(TrcteeError):
    """Base class for codec failures."""


class Truncated(WireError):
    pass


class LengthMismatch(WireError):
    pass


class BodyTooLarge(WireError):
    pass


class BadTag(WireError):
    pass


class UnknownCode(WireError):
    def __init__(self, code: int):
        super().__init__(f"unknown command code 0x{code:08X}")
        self.code = code


class MessageClass(Enum):
    STANDARD = "standard"
    UPDATE_EXT = "update"
    DEPLOY_EXT = "deploy"
    INVOKE_EXT = "invoke"


def classify(code: int) -> MessageClass:
    """Pure lookup: the three extended codes, everything else standard."""
    if code == CC_UPDATE:
        return MessageClass.UPDATE_EXT
    if code == CC_DEPLOY:
        return MessageClass.DEPLOY_EXT
    if code == CC_INVOKE:
        return MessageClass.INVOKE_EXT
    return MessageClass.STANDARD


@dataclass(frozen=True)
class UpdateCmd:
    """Key-update request carrying the 4-byte CRP challenge."""

    challenge: bytes

    def __post_init__(self):
        if len(self.challenge) != CHALLENGE_LEN:
            raise ValueError("challenge must be exactly 4 bytes")


@dataclass(frozen=True)
class UpdateResp:
    """2-byte body return code: 0 key updated, 1 update failed."""

    return_code: int

    def __post_init__(self):
        if self.return_code not in (0, 1):
            raise ValueError("update return code must be 0 or 1")


@dataclass(frozen=True)
class DeployCmd:
    ip_num: int

    def __post_init__(self):
        if not 0 <= self.ip_num <= 0xFFFF:
            raise ValueError("ip_num must fit in 2 bytes")


@dataclass(frozen=True)
class DeployResp:
    """48-byte SHA3-384 of the deployed plaintext bitstream.

    The header response code carries success (0) or failure (1); on failure
    the hash field is all zeros so the 58-byte length law still holds.
    """

    bin_hash: bytes
    response_code: int = 0

    def __post_init__(self):
        if len(self.bin_hash) != BIN_HASH_LEN:
            raise ValueError("bin_hash must be exactly 48 bytes")
        if not 0 <= self.response_code <= 0xFFFFFFFF:
            raise ValueError("response code must fit in 4 bytes")


@dataclass(frozen=True)
class InvokeCmd:
    ip_num: int
    input: bytes
    flag: int = 0

    def __post_init__(self):
        if not 0 <= self.ip_num <= 0xFFFF:
            raise ValueError("ip_num must fit in 2 bytes")
        if not 0 <= self.flag <= 0xFFFFFFFF:
            raise ValueError("flag must fit in 4 bytes")


@dataclass(frozen=True)
class InvokeResp:
    output: bytes
    response_code: int = 0

    def __post_init__(self):
        if not 0 <= self.response_code <= 0xFFFFFFFF:
            raise ValueError("response code must fit in 4 bytes")


@dataclass(frozen=True)
class StandardCmd:
    """Non-extended command; the body is opaque at this layer."""

    command_code: int
    body: bytes = b""
    tag: int = TAG_NO_SESSIONS

    def __post_init__(self):
        if not 0 <= self.command_code <= 0xFFFFFFFF:
            raise ValueError("command code must fit in 4 bytes")
        if self.tag not in (TAG_NO_SESSIONS, TAG_SESSIONS):
            raise ValueError("bad command tag")


@dataclass(frozen=True)
class StandardResp:
    response_code: int
    body: bytes = b""
    tag: int = TAG_NO_SESSIONS

    def __post_init__(self):
        if not 0 <= self.response_code <= 0xFFFFFFFF:
            raise ValueError("response code must fit in 4 bytes")


TpmMessage = (
    UpdateCmd
    | UpdateResp
    | DeployCmd
    | DeployResp
    | InvokeCmd
    | InvokeResp
    | StandardCmd
    | StandardResp
)


def failure_response(command: DeployCmd | InvokeCmd) -> DeployResp | InvokeResp:
    """The response code 1 answer to a deploy or invoke command."""
    if isinstance(command, DeployCmd):
        return DeployResp(bin_hash=bytes(BIN_HASH_LEN), response_code=1)
    return InvokeResp(output=b"", response_code=1)


def _frame(tag: int, code: int, body: bytes) -> bytes:
    total = HEADER_LEN + len(body)
    if total > MAX_TOTAL_LEN:
        raise BodyTooLarge(f"message of {total} bytes overflows the 4-byte length field")
    return HEADER.pack(tag, total, code) + body


def encode(message: TpmMessage) -> bytes:
    """Canonical wire encoding; the length field is always recomputed."""
    if isinstance(message, UpdateCmd):
        return _frame(TAG_NO_SESSIONS, CC_UPDATE, message.challenge)
    if isinstance(message, UpdateResp):
        # Header response code mirrors the body return code.
        return _frame(TAG_NO_SESSIONS, message.return_code, struct.pack(">H", message.return_code))
    if isinstance(message, DeployCmd):
        return _frame(TAG_NO_SESSIONS, CC_DEPLOY, struct.pack(">H", message.ip_num))
    if isinstance(message, DeployResp):
        return _frame(TAG_NO_SESSIONS, message.response_code, message.bin_hash)
    if isinstance(message, InvokeCmd):
        size = len(message.input)
        if size > MAX_TOTAL_LEN - _INVOKE_CMD_HEAD.size - 4:
            raise BodyTooLarge("invoke input overflows the 4-byte length field")
        head = _INVOKE_CMD_HEAD.pack(
            TAG_NO_SESSIONS, _INVOKE_CMD_HEAD.size + size + 4, CC_INVOKE, message.ip_num, size
        )
        return b"".join((head, message.input, _U32.pack(message.flag)))
    if isinstance(message, InvokeResp):
        size = len(message.output)
        if size > MAX_TOTAL_LEN - _INVOKE_RESP_HEAD.size:
            raise BodyTooLarge("invoke output overflows the 4-byte length field")
        head = _INVOKE_RESP_HEAD.pack(
            TAG_NO_SESSIONS, _INVOKE_RESP_HEAD.size + size, message.response_code, size
        )
        return b"".join((head, message.output))
    if isinstance(message, StandardCmd):
        return _frame(message.tag, message.command_code, message.body)
    if isinstance(message, StandardResp):
        return _frame(message.tag, message.response_code, message.body)
    raise TypeError(f"not a TPM message: {type(message).__name__}")


def _split(data: bytes) -> tuple[int, int, memoryview]:
    """Check the header; the body comes back as a view, so each decoded field
    is copied out of ``data`` exactly once."""
    if len(data) < HEADER_LEN:
        raise Truncated(f"{len(data)} bytes is shorter than the 10-byte header")
    tag, total, code = HEADER.unpack_from(data)
    if tag not in (TAG_NO_SESSIONS, TAG_SESSIONS):
        raise BadTag(f"tag 0x{tag:04X} is not a TPM 2.0 message tag")
    if total < HEADER_LEN:
        raise LengthMismatch(f"declared length {total} below header size")
    if len(data) < total:
        raise Truncated(f"declared length {total}, got {len(data)} bytes")
    if len(data) > total:
        raise LengthMismatch(f"declared length {total}, got {len(data)} bytes")
    return tag, code, memoryview(data)[HEADER_LEN:]


def decode(data: bytes, *, borrow_input: bool = False) -> TpmMessage:
    """Decode a command, dispatching extended codes to their typed forms.

    With ``borrow_input`` an Invoke_CMD's input is a view of ``data`` rather
    than a copy, valid for as long as ``data`` is left unchanged."""
    tag, code, body = _split(data)
    kind = classify(code)
    if kind is MessageClass.UPDATE_EXT:
        if len(body) != CHALLENGE_LEN:
            raise LengthMismatch(f"update command body must be 4 bytes, got {len(body)}")
        return UpdateCmd(challenge=bytes(body))
    if kind is MessageClass.DEPLOY_EXT:
        if len(body) != 2:
            raise LengthMismatch(f"deploy command body must be 2 bytes, got {len(body)}")
        return DeployCmd(ip_num=struct.unpack(">H", body)[0])
    if kind is MessageClass.INVOKE_EXT:
        if len(body) < 10:
            raise LengthMismatch("invoke command body shorter than its fixed fields")
        ip_num, input_length = struct.unpack_from(">HI", body)
        if len(body) != 2 + 4 + input_length + 4:
            raise LengthMismatch("invoke body length disagrees with the input-length field")
        (flag,) = _U32.unpack_from(body, 6 + input_length)
        data_in = body[6 : 6 + input_length]
        if not borrow_input:
            data_in = bytes(data_in)
        return InvokeCmd(ip_num=ip_num, input=data_in, flag=flag)
    if TPM_CC_FIRST <= code <= TPM_CC_LAST:
        return StandardCmd(command_code=code, body=bytes(body), tag=tag)
    raise UnknownCode(code)


def decode_response(data: bytes, command_code: int) -> TpmMessage:
    """Decode a response to the command identified by ``command_code``."""
    tag, rc, body = _split(data)
    kind = classify(command_code)
    if kind is MessageClass.UPDATE_EXT:
        if len(body) != 2:
            raise LengthMismatch(f"update response body must be 2 bytes, got {len(body)}")
        return_code = struct.unpack(">H", body)[0]
        if return_code not in (0, 1):
            raise WireError(f"update return code must be 0 or 1, got {return_code}")
        return UpdateResp(return_code=return_code)
    if kind is MessageClass.DEPLOY_EXT:
        if len(body) != BIN_HASH_LEN:
            raise LengthMismatch(f"deploy response body must be 48 bytes, got {len(body)}")
        return DeployResp(bin_hash=bytes(body), response_code=rc)
    if kind is MessageClass.INVOKE_EXT:
        if len(body) < 4:
            raise LengthMismatch("invoke response body shorter than its length field")
        (output_length,) = _U32.unpack_from(body)
        if len(body) != 4 + output_length:
            raise LengthMismatch("invoke response length disagrees with the output-length field")
        return InvokeResp(output=bytes(body[4:]), response_code=rc)
    if TPM_CC_FIRST <= command_code <= TPM_CC_LAST:
        return StandardResp(response_code=rc, body=bytes(body), tag=tag)
    raise UnknownCode(command_code)
