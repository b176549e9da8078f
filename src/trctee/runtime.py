"""End-to-end orchestration of deployment and invocation, plus the
offline attestation verifier.

The user talks TPM commands to their local vTPM; the vTPM forwards the
Deploy_CMD and Invoke_CMD bytes in sealed frames to the device TMM, which
answers with TPM response bytes.  Register usage during runtime:

    PCR 0..7   boot components, one per register
    PCR 8      deployment records, SHA-384(ip_num || Hash(Bin))
    PCR 9      invocation inputs, SHA-384(input), extended before execution
    PCR 10     invocation outputs, SHA-384(output), extended before release

The verifier never reads live vTPM state: it replays an exported event
log from the reset bank and compares every register against expectations
built from the golden manifest and the recorded deploy/invoke history.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from . import channel, device, messages, statefile, vtpm, wire
from .trace import Trace
from . import transport as _transport
from .crypto import Rng, sha384, sha3_384
from .puf import CrpExhausted, CrpStore
from .ttp import VtpmBundle

DEPLOY_PCR = 8
INPUT_PCR = 9
OUTPUT_PCR = 10


class OrchestrationError(Exception):
    pass


class NoSession(OrchestrationError):
    pass


@dataclass(frozen=True)
class DeployTicket:
    """User-side record of a prepared deployment."""

    ip_num: int
    local_plaintext_hash: bytes
    blob_name: str


@dataclass(frozen=True)
class InvocationRecord:
    ip_num: int
    input_digest: bytes
    output_digest: bytes
    flag: int
    verdict: str  # "Verified" | "Mismatch"


HISTORY_HEADER = "trctee-history v1"


class HistoryFormatError(statefile.StateFileError):
    """A history file that does not parse into deployments, inputs and outputs."""


@dataclass
class ExpectedHistory:
    """The user's own view of what should have been measured."""

    deployments: list[tuple[int, bytes]] = field(default_factory=list)
    inputs: list[bytes] = field(default_factory=list)
    outputs: list[bytes] = field(default_factory=list)

    def save(self, path: str) -> None:
        lines = [f"deploy {ip_num} {bin_hash.hex()}" for ip_num, bin_hash in self.deployments]
        lines += [f"input {digest.hex()}" for digest in self.inputs]
        lines += [f"output {digest.hex()}" for digest in self.outputs]
        statefile.write(path, HISTORY_HEADER, lines)

    @classmethod
    def load(cls, path: str) -> "ExpectedHistory":
        """Inverse of :meth:`save`; raises :class:`HistoryFormatError` on any bad line."""
        history = cls()
        records, _ = statefile.read(path, HISTORY_HEADER, HistoryFormatError)
        for no, (kind, *values) in records:
            with statefile.located(path, no, HistoryFormatError):
                if kind == "deploy":
                    num_s, hash_hex = values
                    if not num_s.isdecimal() or int(num_s) > 0xFFFF:
                        raise ValueError(f"IP serial {num_s!r} outside 0..65535")
                    digest = statefile.hex_bytes(hash_hex, vtpm.DIGEST_LEN)
                    history.deployments.append((int(num_s), digest))
                elif kind in ("input", "output"):
                    (digest_hex,) = values
                    digests = history.inputs if kind == "input" else history.outputs
                    digests.append(statefile.hex_bytes(digest_hex, vtpm.DIGEST_LEN))
                else:
                    raise ValueError(f"unknown history record {kind!r}")
        return history


def deployment_record_digest(ip_num: int, bin_hash: bytes) -> bytes:
    """What PCR8 is extended with: serial-bound hash of the deployed image."""
    return sha384(struct.pack(">H", ip_num) + bin_hash)


@dataclass(frozen=True)
class RegisterVerdict:
    pcr_index: int
    verdict: str  # "Verified" | "Mismatch"
    expected: bytes
    actual: bytes


@dataclass(frozen=True)
class VerifierReport:
    registers: tuple[RegisterVerdict, ...]

    @property
    def all_verified(self) -> bool:
        return all(r.verdict == "Verified" for r in self.registers)

    def mismatched_indices(self) -> list[int]:
        return [r.pcr_index for r in self.registers if r.verdict != "Verified"]

    def machine_lines(self) -> str:
        return (
            "\n".join(
                f"{r.pcr_index} {r.verdict} {r.expected.hex()} {r.actual.hex()}"
                for r in self.registers
            )
            + "\n"
        )

    def text(self) -> str:
        lines = ["attestation report:"]
        for r in self.registers:
            lines.append(f"  PCR{r.pcr_index:<2} {r.verdict}")
        lines.append(f"overall: {'VERIFIED' if self.all_verified else 'MISMATCH'}")
        return "\n".join(lines) + "\n"


def verify_attestation(
    log_text: str,
    golden_manifest: list[tuple[str, bytes]],
    history: ExpectedHistory,
) -> VerifierReport:
    """Replay the exported log and compare all 24 registers to expectations."""
    events = vtpm.parse_log(log_text)
    actual = vtpm.replay_log(events)

    expected = vtpm.PcrBank()
    for index, (_, digest) in enumerate(golden_manifest):
        expected.extend(index, digest)
    for ip_num, bin_hash in history.deployments:
        expected.extend(DEPLOY_PCR, deployment_record_digest(ip_num, bin_hash))
    for digest in history.inputs:
        expected.extend(INPUT_PCR, digest)
    for digest in history.outputs:
        expected.extend(OUTPUT_PCR, digest)

    registers = []
    for index in range(vtpm.PCR_COUNT):
        want, got = expected.read(index), actual.read(index)
        registers.append(
            RegisterVerdict(
                pcr_index=index,
                verdict="Verified" if want == got else "Mismatch",
                expected=want,
                actual=got,
            )
        )
    return VerifierReport(registers=tuple(registers))


class UserNode:
    """The remote user: owns the vTPM, drives every runtime protocol."""

    def __init__(
        self,
        bundle: VtpmBundle,
        device_id: str,
        golden_manifest: list[tuple[str, bytes]],
        crp_store: CrpStore,
        rng: Rng | None = None,
        rekey_threshold: int = channel.DEFAULT_REKEY_THRESHOLD,
        auto_rekey: bool = True,
        recv_timeout: float | None = 5.0,
        trace: Trace | None = None,
    ):
        self.bundle = bundle
        self.device_id = device_id
        self.golden_manifest = golden_manifest
        self.crp_store = crp_store
        self.rng = rng or Rng()
        self.rekey_threshold = rekey_threshold
        self.auto_rekey = auto_rekey
        self.recv_timeout = recv_timeout
        self.trace = trace or Trace()
        self.vtpm = vtpm.Vtpm(rng=self.rng.child("vtpm-drbg"))
        self.vtpm.update_handler = self._handle_update
        self.vtpm.forward_handler = self._forward_to_tmm
        self.endpoint: channel.ChannelEndpoint | None = None
        self.deploy_key: bytes | None = None
        self.history = ExpectedHistory()
        self.handshakes_done = 0
        self.updates_done = 0

    # -- session establishment -------------------------------------------------

    def connect(self, transport, expect_boot_report: bool = True) -> None:
        """Run the handshake over ``transport`` and absorb the boot report."""
        handshake = channel.VtpmHandshake(
            sk_tpm=self.bundle.sk_tpm,
            cert=self.bundle.cert,
            device_id=self.device_id,
            crp_store=self.crp_store,
            rng=self.rng.child("handshake"),
            rekey_threshold=self.rekey_threshold,
        )
        transport.send_record(handshake.start())
        while handshake.session is None:
            try:
                record = transport.recv_record(self.recv_timeout)
            except _transport.ReceiveTimeout:
                raise channel.Timeout("handshake stalled") from None
            reply = handshake.on_message(record)
            if reply is not None:
                transport.send_record(reply)
        self.endpoint = channel.ChannelEndpoint(
            handshake.session, transport, recv_timeout=self.recv_timeout
        )
        self.deploy_key = channel.derive_deploy_key(handshake.session.sess_key)
        self.handshakes_done += 1
        if expect_boot_report:
            self._absorb_boot_report()

    def _absorb_boot_report(self) -> None:
        payload = self.endpoint.recv()
        measurements = messages.decode_boot_report(payload)
        for index, name, digest in measurements:
            self.vtpm.pcr_extend(index, digest, vtpm.EventKind.BOOT_COMPONENT, name)

    def _require_session(self) -> channel.ChannelEndpoint:
        if self.endpoint is None:
            raise NoSession("no established session with the device")
        return self.endpoint

    # -- deployment --------------------------------------------------------------

    def prepare_deploy(self, ip_num: int, image: device.IpImage) -> DeployTicket:
        """Encrypt a bitstream, upload it, and keep the local reference hash."""
        endpoint = self._require_session()
        plaintext = image.encode()
        encrypted = device.encrypt_bitstream(
            image, ip_num, self.deploy_key, self.rng.child(f"bitstream-{ip_num}")
        )
        name = device.blob_name(ip_num)
        reply = endpoint.request(messages.encode_store_blob(name, encrypted.encode()))
        if messages.kind_of(reply) != messages.STORE_OK:
            raise OrchestrationError("bitstream upload was not acknowledged")
        self._maybe_rekey()
        return DeployTicket(
            ip_num=ip_num, local_plaintext_hash=sha3_384(plaintext), blob_name=name
        )

    def user_deploy(self, ticket: DeployTicket) -> tuple[wire.DeployResp, str]:
        """Issue Deploy_CMD; verdict compares the returned and local hashes."""
        response_bytes = self.vtpm.dispatch(wire.encode(wire.DeployCmd(ip_num=ticket.ip_num)))
        response = wire.decode_response(response_bytes, wire.CC_DEPLOY)
        verdict = (
            "Verified"
            if response.response_code == 0
            and response.bin_hash == ticket.local_plaintext_hash
            else "Mismatch"
        )
        self._maybe_rekey()
        return response, verdict

    def _forward_to_tmm(self, command: wire.DeployCmd | wire.InvokeCmd, raw: bytes) -> bytes:
        """vTPM-side Deploy_CMD/Invoke_CMD hook: measure the input, forward the
        command bytes to the TMM, measure its result, return its response bytes."""
        try:
            endpoint = self._require_session()
        except NoSession as exc:
            self.trace.emit("user", "error", exc)
            return wire.encode(wire.failure_response(command))
        ip_num = command.ip_num
        invoke = isinstance(command, wire.InvokeCmd)
        if invoke:
            input_digest = sha384(command.input)
            self.vtpm.pcr_extend(
                INPUT_PCR, input_digest, vtpm.EventKind.IP_INPUT, f"invoke-ip{ip_num}-input"
            )
            self.history.inputs.append(input_digest)
        try:
            reply = endpoint.request(raw)
            response = wire.decode_response(reply, wire.CC_INVOKE if invoke else wire.CC_DEPLOY)
        except (channel.ChannelError, wire.WireError) as exc:
            self.trace.emit("user", "error", exc)
            return wire.encode(wire.failure_response(command))
        if response.response_code != 0:
            return reply
        if invoke:
            output_digest = sha384(response.output)
            self.vtpm.pcr_extend(
                OUTPUT_PCR, output_digest, vtpm.EventKind.IP_OUTPUT, f"invoke-ip{ip_num}-output"
            )
            self.history.outputs.append(output_digest)
        else:
            self.vtpm.pcr_extend(
                DEPLOY_PCR,
                deployment_record_digest(ip_num, response.bin_hash),
                vtpm.EventKind.IP_DEPLOY,
                f"deploy-ip{ip_num}",
            )
            self.history.deployments.append((ip_num, response.bin_hash))
        return reply

    # -- invocation ----------------------------------------------------------------

    def user_invoke(
        self, ip_num: int, data: bytes, flag: int = 0
    ) -> tuple[bytes, InvocationRecord]:
        """Issue Invoke_CMD and build the verification record from the log."""
        command = wire.encode(wire.InvokeCmd(ip_num=ip_num, input=data, flag=flag))
        mark = len(self.trace.events)
        response = wire.decode_response(self.vtpm.dispatch(command), wire.CC_INVOKE)
        if response.response_code != 0:
            cause = self.trace.first_error(mark)
            raise OrchestrationError(
                f"invocation of IP {ip_num} failed" + (f": {cause}" if cause else "")
            )
        # _forward_to_tmm measured both into PCR9/PCR10 a moment ago.
        input_digest, output_digest = self.history.inputs[-1], self.history.outputs[-1]
        verdict = "Verified" if self._replays_against_log(input_digest, output_digest) else "Mismatch"
        record = InvocationRecord(
            ip_num=ip_num,
            input_digest=input_digest,
            output_digest=output_digest,
            flag=flag,
            verdict=verdict,
        )
        self._maybe_rekey()
        return response.output, record

    def _replays_against_log(self, input_digest: bytes, output_digest: bytes) -> bool:
        inputs = [e for e in self.vtpm.log if e.kind is vtpm.EventKind.IP_INPUT]
        outputs = [e for e in self.vtpm.log if e.kind is vtpm.EventKind.IP_OUTPUT]
        return (
            bool(inputs)
            and bool(outputs)
            and inputs[-1].digest == input_digest
            and outputs[-1].digest == output_digest
        )

    # -- key update -------------------------------------------------------------

    def update_key(self, challenge: bytes | None = None) -> int:
        """Issue Update_CMD; with no challenge, pick the next unused CRP."""
        if challenge is None:
            challenge = self.crp_store.peek_unused_challenge()
        response_bytes = self.vtpm.dispatch(wire.encode(wire.UpdateCmd(challenge=challenge)))
        return wire.decode_response(response_bytes, wire.CC_UPDATE).return_code

    def _handle_update(self, challenge: bytes) -> int:
        """vTPM-side Update_CMD handler: the challenge must be a held, unused CRP."""
        try:
            endpoint = self._require_session()
            record = self.crp_store.take(challenge)
        except (NoSession, CrpExhausted) as exc:
            self.trace.emit("user", "error", exc)
            return 1
        try:
            channel.initiate_update(
                endpoint, record.challenge, record.response, self.vtpm.pcrs.state_hash()
            )
        except channel.ChannelError as exc:
            self.trace.emit("user", "error", exc)
            return 1
        self.updates_done += 1
        return 0

    def _maybe_rekey(self) -> None:
        if (
            self.auto_rekey
            and self.endpoint is not None
            and channel.counter_tick(self.endpoint.session)
        ):
            record = self.crp_store.take_unused()
            channel.initiate_update(
                self.endpoint, record.challenge, record.response, self.vtpm.pcrs.state_hash()
            )
            self.updates_done += 1

    # -- verification ----------------------------------------------------------

    def export_log(self) -> str:
        return self.vtpm.export_log()

    def verify(self) -> VerifierReport:
        return verify_attestation(self.export_log(), self.golden_manifest, self.history)

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.transport.close()
