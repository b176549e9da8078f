"""User-side vTPM engine: SHA-384 PCR bank, append-only measurement log,
a minimal standard-command subset and routing of the extended commands.

The engine speaks the wire format of :mod:`trctee.wire`.  Four standard
commands are implemented (PCR_Extend, PCR_Read, GetRandom, Hash) with
simplified bodies, each one :class:`~trctee.layout.Layout` in
:data:`STANDARD`; a command body that its layout does not describe is
answered ``RC_COMMAND_SIZE``, and every other standard code with an
unsupported-command response.

Extended commands are delegated to two hooks wired up by the runtime
orchestration: ``update_handler`` runs a key update, and
``forward_handler`` carries a Deploy_CMD or Invoke_CMD to the TMM as its
command bytes and returns the TMM's response bytes.  Without a hook they
answer as failures.  An Invoke_CMD reaches the hook with its input as a
view of the command bytes: the engine routes it without copying it out.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

from . import wire
from .crypto import DIGEST_LEN, Rng, sha384
from .errors import TrcteeError
from .layout import REST, Layout, blob, exact, uint

PCR_COUNT = 24
# The runtime's PCR plan: boot components, one per register, then one
# register each for deployments, invocation inputs and invocation outputs.
BOOT_PCR_COUNT = 8
DEPLOY_PCR = 8
INPUT_PCR = 9
OUTPUT_PCR = 10
MAX_RANDOM = 64

# Response codes (values follow the TPM 2.0 constants of the same name).
RC_SUCCESS = 0x000
RC_BAD_TAG = 0x01E
RC_HASH = 0x083
RC_VALUE = 0x084
RC_COMMAND_SIZE = 0x142
RC_COMMAND_CODE = 0x143

ALG_SHA256 = 0x000B
ALG_SHA384 = 0x000C
ALG_SHA3_384 = 0x0028


class VtpmError(TrcteeError):
    pass


class IndexOutOfRange(VtpmError):
    pass


class BadLength(VtpmError):
    pass


class UnsupportedAlg(VtpmError):
    pass


class LogFormatError(VtpmError):
    """An exported event log that does not parse into a contiguous event list."""

    exit_code = 2


class EventKind(Enum):
    BOOT_COMPONENT = "BootComponent"
    IP_DEPLOY = "IpDeploy"
    IP_INPUT = "IpInput"
    IP_OUTPUT = "IpOutput"
    OTHER = "Other"


# The registers each kind of event may extend (the runtime's PCR table).
KIND_PCRS = {
    EventKind.BOOT_COMPONENT: range(BOOT_PCR_COUNT),
    EventKind.IP_DEPLOY: range(DEPLOY_PCR, DEPLOY_PCR + 1),
    EventKind.IP_INPUT: range(INPUT_PCR, INPUT_PCR + 1),
    EventKind.IP_OUTPUT: range(OUTPUT_PCR, OUTPUT_PCR + 1),
    EventKind.OTHER: range(PCR_COUNT),
}


def _check_kind(index: int, kind: EventKind, error: type[VtpmError]) -> None:
    allowed = KIND_PCRS[kind]
    if index not in allowed:
        span = f"{allowed.start}..{allowed.stop - 1}"
        raise error(f"{kind.value} event on PCR {index}, outside {span}")


@dataclass(frozen=True, slots=True)
class MeasurementEvent:
    seq: int
    pcr_index: int
    digest: bytes
    kind: EventKind
    label: str

    def __post_init__(self):
        if "\n" in self.label or "\r" in self.label:
            raise ValueError("event label must be a single line")


_HASHES = {
    "sha256": hashlib.sha256,
    "sha384": hashlib.sha384,
    "sha3-384": hashlib.sha3_384,
}

_ALG_IDS = {ALG_SHA256: "sha256", ALG_SHA384: "sha384", ALG_SHA3_384: "sha3-384"}


def hash_data(data: bytes, alg: str) -> bytes:
    """Digest ``data`` under one of sha256 / sha384 / sha3-384."""
    name = alg.lower().replace("_", "-").replace("sha-", "sha")
    try:
        return _HASHES[name](data).digest()
    except KeyError:
        raise UnsupportedAlg(f"unsupported hash algorithm {alg!r}") from None


class PcrBank:
    """24 SHA-384 platform configuration registers, all-zero at reset."""

    def __init__(self):
        self._regs = [bytes(DIGEST_LEN) for _ in range(PCR_COUNT)]

    def _check(self, index: int) -> None:
        if not 0 <= index < PCR_COUNT:
            raise IndexOutOfRange(f"PCR index {index} outside 0..{PCR_COUNT - 1}")

    def read(self, index: int) -> bytes:
        self._check(index)
        return self._regs[index]

    def extend(self, index: int, digest: bytes) -> bytes:
        self._check(index)
        if len(digest) != DIGEST_LEN:
            raise BadLength(f"extend digest must be {DIGEST_LEN} bytes")
        self._regs[index] = sha384(self._regs[index] + digest)
        return self._regs[index]

    def registers(self) -> list[bytes]:
        return list(self._regs)

    def state_hash(self) -> bytes:
        """SHA-384 over the concatenation of all 24 registers."""
        return sha384(b"".join(self._regs))


def replay_log(events: Iterable[MeasurementEvent]) -> PcrBank:
    """Rebuild a PCR bank from reset by re-applying the event log."""
    bank = PcrBank()
    for event in events:
        bank.extend(event.pcr_index, event.digest)
    return bank


def export_lines(events: Iterable[MeasurementEvent]) -> Iterator[str]:
    r"""Line format: ``seq, pcr_index, kind, label, hex(digest)``, each ending in ``"\n"``."""
    for e in events:
        yield f"{e.seq}, {e.pcr_index}, {e.kind.value}, {e.label}, {e.digest.hex()}\n"


def export_log(events: Iterable[MeasurementEvent]) -> str:
    """The whole log as one text: every :func:`export_lines` line, joined."""
    return "".join(export_lines(events))


_KINDS = {kind.value: kind for kind in EventKind}
_PCR_INDICES = {str(index): index for index in range(PCR_COUNT)}


def _split_lines(text: str) -> Iterator[str]:
    start = 0
    while start < len(text):
        stop = text.find("\n", start)
        if stop < 0:
            stop = len(text)
        yield text[start:stop]
        start = stop + 1


def iter_log(log: str | Iterable[str]) -> Iterator[MeasurementEvent]:
    r"""Inverse of :func:`export_lines`, one event at a time; raises
    :class:`LogFormatError` on the first bad line.

    ``log`` is the exported text, or its lines (a file opened with
    ``newline="\n"`` yields them).  Lines end at ``"\n"`` only, so a label
    may hold any other line-break character.  Blank lines are skipped;
    ``seq`` must count up from 0.
    """
    lines = _split_lines(log) if isinstance(log, str) else log
    seq = 0
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                event = _parse_event(line, seq)
            except LogFormatError as exc:
                raise LogFormatError(f"line {line_no}: {exc}") from None
            yield event
            seq += 1


def parse_log(text: str) -> list[MeasurementEvent]:
    """The whole log as a list: :func:`iter_log` run to its end."""
    return list(iter_log(text))


def _parse_event(line: str, seq: int) -> MeasurementEvent:
    fields = line.split(", ", 3)
    label, sep, digest_hex = fields[-1].rpartition(", ")
    if len(fields) != 4 or not sep:
        raise LogFormatError("expected 'seq, pcr_index, kind, label, digest'")
    seq_s, index_s, kind_s, _ = fields
    if seq_s != str(seq):
        raise LogFormatError(f"seq {seq_s!r} where {seq} was expected")
    pcr_index = _PCR_INDICES.get(index_s)
    if pcr_index is None:
        raise LogFormatError(f"PCR index {index_s!r} outside 0..{PCR_COUNT - 1}")
    kind = _KINDS.get(kind_s)
    if kind is None:
        raise LogFormatError(f"unknown event kind {kind_s!r}")
    _check_kind(pcr_index, kind, LogFormatError)
    try:
        digest = bytes.fromhex(digest_hex)
    except ValueError:
        digest = b""
    if len(digest) != DIGEST_LEN or len(digest_hex) != 2 * DIGEST_LEN:
        raise LogFormatError(f"digest must be {2 * DIGEST_LEN} hex digits")
    try:
        return MeasurementEvent(seq, pcr_index, digest, kind, sys.intern(label))
    except ValueError as exc:
        raise LogFormatError(str(exc)) from None


class Vtpm:
    """One vTPM instance: PCR bank, event log, RNG, command dispatch.

    Commands are processed strictly one at a time; callers running the
    instance from several threads must serialize dispatch externally.
    """

    def __init__(self, rng: Rng | None = None):
        self.pcrs = PcrBank()
        self.log: list[MeasurementEvent] = []
        self._rng = rng or Rng()
        # Extended-command hooks, wired by the runtime layer.
        self.update_handler: Callable[[bytes], int] | None = None
        self.forward_handler: (
            Callable[[wire.DeployCmd | wire.InvokeCmd, bytes], bytes] | None
        ) = None

    # -- core TPM operations ------------------------------------------------

    def pcr_extend(
        self,
        index: int,
        digest: bytes,
        kind: EventKind = EventKind.OTHER,
        label: str = "",
    ) -> bytes:
        """Extend PCR ``index`` and log the event; ``kind`` must be allowed
        on that register (:data:`KIND_PCRS`), so the exported log parses."""
        _check_kind(index, kind, IndexOutOfRange)
        value = self.pcrs.extend(index, digest)
        self.log.append(
            MeasurementEvent(
                seq=len(self.log),
                pcr_index=index,
                digest=digest,
                kind=kind,
                label=sys.intern(label),
            )
        )
        return value

    def pcr_read(self, index: int) -> bytes:
        return self.pcrs.read(index)

    def get_random(self, n: int) -> bytes:
        if not 0 < n <= MAX_RANDOM:
            raise BadLength(f"byte count must be in 1..{MAX_RANDOM}, got {n}")
        return self._rng.bytes(n)

    def hash(self, data: bytes, alg: str) -> bytes:
        return hash_data(data, alg)

    def export_log(self) -> str:
        return export_log(self.log)

    # -- command dispatch ---------------------------------------------------

    def dispatch(self, command: bytes) -> bytes:
        """Decode, execute, and answer one command; never raises on bad input.

        A forwarded command is answered with what the hook returns, which may
        be a view of the record the answer arrived in."""
        try:
            message = wire.decode(command, borrow_input=True)
        except wire.WireError:
            return wire.encode(wire.StandardResp(response_code=RC_BAD_TAG))

        if isinstance(message, wire.UpdateCmd):
            rc = 1
            if self.update_handler is not None:
                rc = self.update_handler(message.challenge)
            return wire.encode(wire.UpdateResp(return_code=rc))
        if isinstance(message, (wire.DeployCmd, wire.InvokeCmd)):
            if self.forward_handler is None:
                return wire.encode(wire.failure_response(message))
            return self.forward_handler(message, command)
        return self._dispatch_standard(message)

    def _dispatch_standard(self, message: wire.StandardCmd) -> bytes:
        if message.command_code not in STANDARD:
            return _fail(RC_COMMAND_CODE)
        command, run, response = STANDARD[message.command_code]
        try:
            fields = command.decode(message.body)
        except wire.LengthMismatch:
            return _fail(RC_COMMAND_SIZE)
        try:
            value = run(self, *fields)
        except (IndexOutOfRange, BadLength):
            return _fail(RC_VALUE)
        except UnsupportedAlg:
            return _fail(RC_HASH)
        return wire.encode(wire.StandardResp(RC_SUCCESS, response.encode(value)))


def _fail(rc: int) -> bytes:
    return wire.encode(wire.StandardResp(response_code=rc))


# Each standard code the engine implements: the layout of its command body,
# what the engine makes of its fields, and the layout of its response body.
STANDARD = {
    wire.CC_GET_RANDOM: (
        Layout("GetRandom command", wire.LengthMismatch, uint(2)),
        lambda tpm, count: tpm.get_random(count),
        Layout("GetRandom response", wire.LengthMismatch, blob(2)),
    ),
    wire.CC_PCR_READ: (
        Layout("PCR_Read command", wire.LengthMismatch, uint(4)),
        lambda tpm, index: tpm.pcr_read(index),
        Layout("PCR_Read response", wire.LengthMismatch, exact(DIGEST_LEN)),
    ),
    wire.CC_PCR_EXTEND: (
        Layout("PCR_Extend command", wire.LengthMismatch, uint(4), exact(DIGEST_LEN)),
        lambda tpm, index, digest: tpm.pcr_extend(index, digest, EventKind.OTHER, "pcr-extend-cmd"),
        Layout("PCR_Extend response", wire.LengthMismatch),  # no fields: the new value is not sent
    ),
    wire.CC_HASH: (
        Layout("Hash command", wire.LengthMismatch, uint(2), REST),
        # An unknown algorithm id is an unknown algorithm name.
        lambda tpm, alg_id, data: tpm.hash(data, _ALG_IDS.get(alg_id, hex(alg_id))),
        Layout("Hash response", wire.LengthMismatch, blob(2)),
    ),
}
