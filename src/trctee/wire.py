"""Bit-exact codec for TPM 2.0 command/response framing.

Every message starts with the fixed 10-byte header: a 2-byte tag, a 4-byte
total length covering the whole message, and a 4-byte command code (or
response code on the response side).  All integers are big-endian, matching
TPM 2.0 marshaling.  On top of the standard framing this codec understands
the three channel-management extensions:

    0x1F000000  session-key update   (14-byte command, 12-byte response)
    0x2F000000  IP deployment        (12-byte command, 58-byte response)
    0x3F000000  IP invocation        (variable command and response)

The body of each extended command and response is one
:class:`~trctee.layout.Layout` in :data:`EXTENDED`, keyed by command code,
which ``encode``, ``decode`` and ``decode_response`` all read.  Commands and
responses are structurally identical on the wire, so decoding a response
needs the code of the command that produced it; that is what
``decode_response`` takes.  Standard (non-extended) bodies are carried
opaque - typed handling of the supported standard subset lives in the vTPM
engine.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

from .errors import TrcteeError
from .layout import Layout, blob, exact, uint
from .puf import CHALLENGE_LEN

HEADER = struct.Struct(">HII")
HEADER_LEN = HEADER.size  # 10
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

    @property
    def response_code(self) -> int:
        """The header's response code, which mirrors the body's."""
        return self.return_code


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


class _Body(NamedTuple):
    """An extended message's class, the attributes its body holds, in
    order, and the layout of that body."""

    message: type
    attrs: tuple[str, ...]
    layout: Layout


def _body(message: type, name: str, **fields) -> _Body:
    return _Body(message, tuple(fields), Layout(name, LengthMismatch, *fields.values()))


# Each extended code, with its command and its response.  A response's header
# carries its response code; Update_RESP's mirrors the return code in its body.
EXTENDED = {
    CC_UPDATE: (
        _body(UpdateCmd, "Update_CMD", challenge=exact(CHALLENGE_LEN)),
        _body(UpdateResp, "Update_RESP", return_code=uint(2)),
    ),
    CC_DEPLOY: (
        _body(DeployCmd, "Deploy_CMD", ip_num=uint(2)),
        _body(DeployResp, "Deploy_RESP", bin_hash=exact(BIN_HASH_LEN)),
    ),
    CC_INVOKE: (
        _body(InvokeCmd, "Invoke_CMD", ip_num=uint(2), input=blob(4, memoryview), flag=uint(4)),
        _body(InvokeResp, "Invoke_RESP", output=blob(4)),
    ),
}
# Each extended message class, with its header code (None for a response,
# whose header carries its response code) and its body.
_ENCODING = {
    body.message: (code if body is command else None, body)
    for code, (command, response) in EXTENDED.items()
    for body in (command, response)
}


def _frame(tag: int, code: int, parts) -> bytes:
    """The header, then ``parts``, in one join."""
    total = HEADER_LEN + sum(map(len, parts))
    if total > MAX_TOTAL_LEN:
        raise BodyTooLarge(f"message of {total} bytes overflows the 4-byte length field")
    return b"".join((HEADER.pack(tag, total, code), *parts))


def encode(message: TpmMessage) -> bytes:
    """Canonical wire encoding; the length field is always recomputed."""
    if type(message) not in _ENCODING:
        if isinstance(message, StandardCmd):
            return _frame(message.tag, message.command_code, (message.body,))
        if isinstance(message, StandardResp):
            return _frame(message.tag, message.response_code, (message.body,))
        raise TypeError(f"not a TPM message: {type(message).__name__}")
    code, body = _ENCODING[type(message)]
    try:
        parts = body.layout.parts(*[getattr(message, attr) for attr in body.attrs])
    except LengthMismatch as exc:  # a length field overflowed; the constructors check the rest
        raise BodyTooLarge(str(exc)) from None
    return _frame(TAG_NO_SESSIONS, message.response_code if code is None else code, parts)


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
    if code not in EXTENDED:
        if TPM_CC_FIRST <= code <= TPM_CC_LAST:
            return StandardCmd(command_code=code, body=bytes(body), tag=tag)
        raise UnknownCode(code)
    command = EXTENDED[code][0]
    values = command.layout.decode(body)
    if not borrow_input:
        values = [bytes(v) if isinstance(v, memoryview) else v for v in values]
    return command.message(*values)


def decode_response(data: bytes, command_code: int) -> TpmMessage:
    """Decode a response to the command identified by ``command_code``."""
    tag, rc, body = _split(data)
    if command_code not in EXTENDED:
        if TPM_CC_FIRST <= command_code <= TPM_CC_LAST:
            return StandardResp(response_code=rc, body=bytes(body), tag=tag)
        raise UnknownCode(command_code)
    response = EXTENDED[command_code][1]
    values = response.layout.decode(body)
    if command_code != CC_UPDATE:
        return response.message(*values, rc)
    # Update_RESP's header code only mirrors its body's return code.
    if values[0] not in (0, 1):
        raise WireError(f"update return code must be 0 or 1, got {values[0]}")
    return UpdateResp(*values)
