"""Line-oriented scenario files and the runner that executes them.

Format (version header, then one step per line, ``#`` comments):

    trctee-scenario v1
    enroll-device id=dev1
    enroll-vtpm user=alice
    provision user=alice device=dev1
    boot
    handshake
    deploy ip=1 kernel=xor params=hex:0a0b0c
    invoke ip=1 input=hex:010203
    update-key
    verify expect=clean

Steps accept ``adversary=<action>`` (tamper-frame, replay-frame,
drop-frame, tamper-component, reuse-crp, swap-vtpm-cert, tamper-bitstream,
agent-deploy) and ``expect=<outcome>``; a step expecting a failure counts
as met when exactly that typed failure occurs.  Attacks are mounted by
wrapping transports or mutating at-rest state, never by changing the
honest endpoints.  After a frame-level attack the channel is
desynchronized, so only ``verify`` may follow.

Step ordering is validated up front: provisioning needs both enrollments,
the handshake needs provisioning and boot, runtime steps need the
handshake.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field

from . import channel, device, puf, runtime, transport, ttp, wire
from .crypto import Rng
from .trace import Trace

SCENARIO_HEADER = "trctee-scenario v1"

STEP_NAMES = (
    "enroll-device",
    "enroll-vtpm",
    "provision",
    "boot",
    "handshake",
    "deploy",
    "invoke",
    "update-key",
    "verify",
    "agent-deploy",
)

ADVERSARY_ACTIONS = (
    "tamper-frame",
    "replay-frame",
    "drop-frame",
    "tamper-component",
    "reuse-crp",
    "swap-vtpm-cert",
    "tamper-bitstream",
)

# Which prior steps each step needs before it may appear.
_REQUIRES = {
    "enroll-device": (),
    "enroll-vtpm": (),
    "provision": ("enroll-device", "enroll-vtpm"),
    "boot": ("enroll-device",),
    "handshake": ("provision", "boot"),
    "deploy": ("handshake",),
    "invoke": ("handshake",),
    "update-key": ("handshake",),
    "verify": ("handshake",),
    "agent-deploy": ("handshake",),
}


class ParseError(Exception):
    pass


class ExpectationFailed(Exception):
    pass


class OperationFailed(Exception):
    """An operation answered failure; its cause is the step's first traced error."""


@dataclass(frozen=True)
class Step:
    name: str
    args: dict[str, str]
    adversary: str | None = None
    expect: str = "ok"


@dataclass(frozen=True)
class Scenario:
    steps: tuple[Step, ...]


def parse_scenario(text: str) -> Scenario:
    lines = text.splitlines()
    body = [
        (i + 1, line.strip())
        for i, line in enumerate(lines)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not body or body[0][1] != SCENARIO_HEADER:
        raise ParseError(f"scenario must start with {SCENARIO_HEADER!r}")
    steps: list[Step] = []
    seen: set[str] = set()
    for lineno, line in body[1:]:
        parts = line.split()
        name = parts[0]
        if name not in STEP_NAMES:
            raise ParseError(f"line {lineno}: unknown step {name!r}")
        args: dict[str, str] = {}
        for part in parts[1:]:
            if "=" not in part:
                raise ParseError(f"line {lineno}: expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            args[key] = value
        adversary = args.pop("adversary", None)
        if adversary is not None and adversary not in ADVERSARY_ACTIONS:
            raise ParseError(f"line {lineno}: unknown adversary action {adversary!r}")
        expect = args.pop("expect", "ok")
        if expect == "clean":
            expect = "ok"
        missing = [req for req in _REQUIRES[name] if req not in seen]
        if missing:
            raise ParseError(
                f"line {lineno}: step {name!r} requires prior {', '.join(missing)}"
            )
        seen.add(name)
        steps.append(Step(name=name, args=args, adversary=adversary, expect=expect))
    return Scenario(steps=tuple(steps))


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _decode_bytes(value: str) -> bytes:
    if value.startswith("hex:"):
        return bytes.fromhex(value[4:])
    return value.encode()


@dataclass
class StepResult:
    step: Step
    outcome: str  # "ok" or a failure token
    met: bool
    detail: str = ""


@dataclass
class RunReport:
    results: list[StepResult] = field(default_factory=list)
    verifier_report: runtime.VerifierReport | None = None
    frame_transcript: list[tuple[str, bytes]] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 0 if all(r.met for r in self.results) else 1

    def text(self) -> str:
        lines = []
        for r in self.results:
            status = "ok" if r.met else "FAILED"
            expected = f" (expected {r.step.expect})" if r.step.expect != "ok" else ""
            lines.append(f"{status:6} {r.step.name:14} -> {r.outcome}{expected} {r.detail}".rstrip())
        return "\n".join(lines) + "\n"


# Failure tokens assigned to typed errors observed during a step.
_ERROR_TOKENS = {
    channel.BadCert: "bad-cert",
    channel.PufMismatch: "puf-mismatch",
    channel.AuthFailure: "auth-failure",
    channel.ReplayDetected: "replay-detected",
    channel.WrongEpoch: "wrong-epoch",
    channel.Timeout: "timeout",
    channel.ConfirmFailure: "confirm-failure",
    puf.CrpExhausted: "crp-exhausted",
    device.NotDeployed: "not-deployed",
    device.KernelFault: "kernel-fault",
    device.BadImage: "bad-image",
    device.NotFound: "not-found",
}


def _token_for(exc: Exception) -> str:
    for cls, token in _ERROR_TOKENS.items():
        if isinstance(exc, cls):
            return token
    return f"error:{type(exc).__name__}"


class ScenarioRunner:
    """Executes one scenario against an in-process or TCP-loopback world."""

    def __init__(
        self,
        scenario: Scenario,
        seed: int | None = None,
        tcp: bool = False,
        rekey_threshold: int = channel.DEFAULT_REKEY_THRESHOLD,
        crp_slice: int = ttp.DEFAULT_SLICE_SIZE,
        recv_timeout: float = 2.0,
    ):
        if rekey_threshold < 1:
            raise ParseError("rekey threshold must be at least 1")
        self.scenario = scenario
        self.master = Rng(seed)
        self.tcp = tcp
        self.rekey_threshold = rekey_threshold
        self.crp_slice = crp_slice
        self.recv_timeout = recv_timeout
        self.ttp: ttp.TtpService | None = None
        self.device: device.FpgaSocDevice | None = None
        self.user: runtime.UserNode | None = None
        self.tap: transport.AdversaryTap | None = None
        self.report = RunReport()
        self.trace = Trace()
        self._device_thread = None
        self._server_socket = None

    # -- world construction ------------------------------------------------------

    def _require(self, obj, what: str):
        if obj is None:
            raise ExpectationFailed(f"{what} not set up; scenario grammar should prevent this")
        return obj

    def _make_transports(self):
        """User-side transport (with recorder and adversary tap) plus device side."""
        if self.tcp:
            server = transport.listen("127.0.0.1", 0)
            self._server_socket = server
            port = server.getsockname()[1]
            results: dict[str, object] = {}

            def _accept():
                results["t"] = transport.accept_one(server, timeout=5.0)

            acceptor = threading.Thread(target=_accept, daemon=True)
            acceptor.start()
            user_side = transport.connect("127.0.0.1", port)
            acceptor.join(timeout=5.0)
            if "t" not in results:
                raise transport.BindError("loopback accept did not complete")
            device_side = results["t"]
        else:
            user_side, device_side = transport.pipe_pair()
        self.tap = transport.AdversaryTap(user_side)
        recorder = transport.RecordingTransport(
            self.tap, self.report.frame_transcript, "user->device", "device->user"
        )
        return recorder, device_side

    # -- step execution ----------------------------------------------------------

    def run(self) -> RunReport:
        try:
            for step in self.scenario.steps:
                outcome, detail = self._run_step(step)
                met = outcome == step.expect
                self.report.results.append(
                    StepResult(step=step, outcome=outcome, met=met, detail=detail)
                )
        finally:
            self._teardown()
        return self.report

    def _teardown(self) -> None:
        if self.tap is not None:
            self.tap.close()
        if self._device_thread is not None:
            self._device_thread.join(timeout=5.0)
        if self._server_socket is not None:
            self._server_socket.close()

    def _run_step(self, step: Step) -> tuple[str, str]:
        handler = getattr(self, "_step_" + step.name.replace("-", "_"))
        mark = len(self.trace.events)
        try:
            return "ok", handler(step) or ""
        except ExpectationFailed as exc:
            return "expectation-failed", str(exc)
        except Exception as exc:
            cause = self.trace.first_error(mark) or exc
            if isinstance(cause, OperationFailed):
                return "expectation-failed", f"{cause} without a typed cause"
            return _token_for(cause), str(cause)

    def _step_enroll_device(self, step: Step) -> str:
        device_id = step.args.get("id", "dev1")
        if self.ttp is None:
            self.ttp = ttp.TtpService(rng=self.master.child("ttp"))
        puf_device = puf.PufDevice(self.master.child(f"puf-{device_id}").bytes(32))
        image = device.BootImage.synthetic(device_id, self.ttp.pk_ttp)
        self.ttp.enroll_device(device_id, puf_device, image)
        self.device = device.FpgaSocDevice(
            device_id=device_id,
            puf=puf_device,
            boot_image=image,
            rng=self.master.child(f"device-{device_id}"),
            rekey_threshold=self.rekey_threshold,
            # The device waits until teardown closes the user's end: a device
            # that timed out first would close the session under a user still
            # waiting for a dropped frame, which must see its own timeout.
            recv_timeout=None,
            trace=self.trace,
        )
        return f"device {device_id} enrolled"

    def _step_enroll_vtpm(self, step: Step) -> str:
        user_id = step.args.get("user", "user1")
        if self.ttp is None:
            self.ttp = ttp.TtpService(rng=self.master.child("ttp"))
        self.ttp.register_user(user_id)
        self._bundle = self.ttp.enroll_vtpm(user_id)
        return f"vTPM enrolled for {user_id}"

    def _step_provision(self, step: Step) -> str:
        ttp_service = self._require(self.ttp, "TTP")
        user_id = step.args.get("user", "user1")
        device_id = step.args.get("device", self._require(self.device, "device").device_id)
        dev_id, manifest, crp_slice = ttp_service.provision_user(
            user_id, device_id, slice_size=self.crp_slice
        )
        self.user = runtime.UserNode(
            bundle=self._bundle,
            device_id=dev_id,
            golden_manifest=manifest,
            crp_store=crp_slice,
            rng=self.master.child("user"),
            rekey_threshold=self.rekey_threshold,
            recv_timeout=self.recv_timeout,
            trace=self.trace,
        )
        return f"user {user_id} provisioned for {dev_id} with {len(crp_slice)} CRPs"

    def _step_boot(self, step: Step) -> str:
        dev = self._require(self.device, "device")
        if step.adversary == "tamper-component":
            component = step.args.get("component", "optee")
            dev.boot_image.tamper(component)
            dev.boot()
            return f"boot with tampered {component}"
        dev.boot()
        return "boot measured 8 components"

    def _step_handshake(self, step: Step) -> str:
        dev = self._require(self.device, "device")
        user = self._require(self.user, "user node")
        if step.adversary == "swap-vtpm-cert":
            # A certificate for some other enrolled key: valid under the TTP
            # key, but not matching this vTPM's signing key.
            ttp_service = self._require(self.ttp, "TTP")
            ttp_service.register_user("mallory")
            other = ttp_service.enroll_vtpm("mallory")
            user.bundle = ttp.VtpmBundle(
                user_id=user.bundle.user_id,
                sk_tpm=user.bundle.sk_tpm,
                pk_tpm=user.bundle.pk_tpm,
                cert=other.cert,
                pk_ttp=user.bundle.pk_ttp,
            )
        user_transport, device_transport = self._make_transports()
        self._device_thread = device.serve_in_thread(dev, device_transport)
        # On a failed handshake the device traces its typed error before it
        # closes its end, so the step reports that error, not TransportClosed.
        user.connect(user_transport)
        return f"session established, epoch {user.endpoint.session.epoch}"

    def _step_deploy(self, step: Step) -> str:
        user = self._require(self.user, "user node")
        dev = self._require(self.device, "device")
        ip_num = int(step.args.get("ip", "1"))
        kernel = step.args.get("kernel", "xor")
        params = _decode_bytes(step.args.get("params", "hex:00"))
        image = device.IpImage(kernel_id=kernel, params=params)
        before = dev.tmm.config_memory.snapshot()
        ticket = user.prepare_deploy(ip_num, image)
        if step.adversary == "tamper-bitstream":
            blob = dev.file_store.get(ticket.blob_name)
            dev.file_store.put(ticket.blob_name, blob[:-1] + bytes([blob[-1] ^ 0x01]))
        if step.adversary in ("tamper-frame", "replay-frame", "drop-frame"):
            self.tap.arm(step.adversary.split("-")[0])
        response, verdict = user.user_deploy(ticket)
        if response.response_code != 0 or verdict != "Verified":
            if step.adversary not in ("tamper-frame", "replay-frame", "drop-frame"):
                # At-rest attacks must leave the device state untouched; frame
                # attacks happen after the TMM already acted on a clean request.
                after = dev.tmm.config_memory.snapshot()
                if after != before:
                    raise ExpectationFailed("config memory changed on a failed deploy")
            raise OperationFailed("deploy failed")
        self._ticket = ticket
        return f"ip {ip_num} deployed, hash {response.bin_hash.hex()[:16]}..., {verdict}"

    def _step_invoke(self, step: Step) -> str:
        user = self._require(self.user, "user node")
        ip_num = int(step.args.get("ip", "1"))
        data = _decode_bytes(step.args.get("input", "hex:00"))
        flag = int(step.args.get("flag", "0"))
        if step.adversary in ("tamper-frame", "replay-frame", "drop-frame"):
            self.tap.arm(step.adversary.split("-")[0])
        output, record = user.user_invoke(ip_num, data, flag)
        expected = step.args.get("expect-output")
        if expected is not None and output != _decode_bytes(expected):
            raise ExpectationFailed(
                f"output {output.hex()} != expected {_decode_bytes(expected).hex()}"
            )
        return f"ip {ip_num} invoked, {len(output)}B out, {record.verdict}"

    def _step_update_key(self, step: Step) -> str:
        user = self._require(self.user, "user node")
        challenge = None
        if step.adversary == "reuse-crp":
            used = [r for r in user.crp_store.records() if r.used]
            if not used:
                raise ExpectationFailed("no consumed CRP available to reuse")
            challenge = used[0].challenge
        epoch_before = user.endpoint.session.epoch
        rc = user.update_key(challenge)
        if rc != 0:
            if user.endpoint.session.epoch != epoch_before:
                raise ExpectationFailed("epoch changed on a failed key update")
            raise OperationFailed("key update failed")
        return f"key updated, epoch {user.endpoint.session.epoch}"

    def _step_agent_deploy(self, step: Step) -> str:
        """REE-resident adversary tries to drive a deployment itself."""
        user = self._require(self.user, "user node")
        dev = self._require(self.device, "device")
        agent = dev.agent
        for attr in dir(agent):
            if not attr.startswith("_") and any(
                word in attr.lower() for word in ("deploy", "invoke", "decrypt", "key")
            ):
                raise ExpectationFailed(f"agent exposes privileged capability {attr!r}")
        before = dev.tmm.config_memory.snapshot()
        # Best effort without keys: inject a forged plaintext request framed
        # as if it were sealed.  The TMM must reject it unopened.
        forged = wire.encode(wire.DeployCmd(int(step.args.get("ip", "1"))))
        fake_frame = struct.pack(">IQ", user.endpoint.session.epoch, 1 << 40) + bytes(12) + forged + bytes(16)
        mark = len(self.trace.events)
        user.endpoint.transport.send_record(fake_frame)
        self.trace.first_error(mark, timeout=1.0)
        if dev.tmm.config_memory.snapshot() != before:
            raise ExpectationFailed("config memory changed from an agent-forged request")
        raise OperationFailed("forged request")

    def _step_verify(self, step: Step) -> str:
        user = self._require(self.user, "user node")
        report = user.verify()
        self.report.verifier_report = report
        mismatched = report.mismatched_indices()
        expected_raw = step.args.get("expect-mismatch")
        if expected_raw is not None:
            expected_set = sorted(int(x) for x in expected_raw.split(","))
            if sorted(mismatched) != expected_set:
                raise ExpectationFailed(
                    f"mismatched PCRs {mismatched}, expected {expected_set}"
                )
            return f"verify: mismatch exactly at {expected_set}"
        if mismatched:
            raise ExpectationFailed(f"unexpected PCR mismatches at {mismatched}")
        return "verify: all 24 registers verified"
