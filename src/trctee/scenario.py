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

Every step accepts ``adversary=<action>`` and ``expect=<outcome>``, where an
outcome is ``ok`` (alias ``clean``), ``expectation-failed``, or the ``token``
of a :class:`TrcteeError` class, else ``error:<ClassName>``.  A step expecting
a failure counts as met when exactly that typed failure occurs.
Each step mounts only its own attacks (``STEPS``; PROTOCOL.md section 5.1
states each one, with the check that stops it).  A request that gets no
answer of its own ends the session: the user end closes on a reply it
rejects or waits out, and the device answers a record it refuses with an
abort record and closes, so a later step that needs the session reports
``error:NoSession``.

Everything is checked up front against ``STEPS``: step order (provisioning
needs both enrollments, the handshake needs provisioning and boot, runtime
steps need the handshake), keys, values, attacks and outcomes.  A step that
another step requires sets up the one world a run builds, so it appears at
most once.  A repeated set-up step, an unknown or repeated key, a value that
does not convert, an attack the step does not mount or an outcome no step
reports is a :class:`ParseError` naming its line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from . import channel, device, puf, runtime, transport, ttp, vtpm, wire
from .crypto import Rng
from .errors import TrcteeError
from .trace import Trace

SCENARIO_HEADER = "trctee-scenario v1"


class ParseError(TrcteeError):
    exit_code = 2


def _below(limit: int) -> Callable[[str], int]:
    """A converter to a decimal integer in 0..``limit`` - 1."""

    def convert(text: str) -> int:
        if not text.isdecimal() or int(text) >= limit:
            raise ValueError(f"not an integer in 0..{limit - 1}")
        return int(text)

    return convert


def _decode_bytes(value: str) -> bytes:
    if value.startswith("hex:"):
        return bytes.fromhex(value[4:])
    return value.encode()


def _pcr_indices(text: str) -> list[int]:
    """Distinct PCR indices, comma separated, in ascending order."""
    indices = sorted(map(_below(vtpm.PCR_COUNT), text.split(",")))
    if len(set(indices)) < len(indices):
        raise ValueError("a PCR index given twice")
    return indices


def _boot_component(name: str) -> str:
    if name not in device.BOOT_COMPONENTS:
        raise ValueError(f"not one of {', '.join(device.BOOT_COMPONENTS)}")
    return name


class StepSpec(NamedTuple):
    """A step: the prior steps it needs, its keys (each with the converter of
    its value and the value it takes when left out) and the attacks it mounts.
    ``adversary`` and ``expect`` are every step's keys."""

    requires: tuple[str, ...] = ()
    keys: dict[str, tuple[Callable, object]] = {}
    attacks: tuple[str, ...] = ()


STEPS = {
    "enroll-device": StepSpec(keys={"id": (str, "dev1")}),
    "enroll-vtpm": StepSpec(keys={"user": (str, "user1")}),
    "provision": StepSpec(
        ("enroll-device", "enroll-vtpm"), {"user": (str, "user1"), "device": (str, None)}
    ),
    "boot": StepSpec(
        ("enroll-device",), {"component": (_boot_component, "optee")}, ("tamper-component",)
    ),
    "handshake": StepSpec(("provision", "boot"), attacks=("swap-vtpm-cert",)),
    "deploy": StepSpec(
        ("handshake",),
        {"ip": (_below(1 << 16), 1), "kernel": (str, "xor"), "params": (_decode_bytes, b"\0")},
        (*transport.AdversaryTap.ACTIONS, "tamper-bitstream"),
    ),
    "invoke": StepSpec(
        ("handshake",),
        {"ip": (_below(1 << 16), 1), "input": (_decode_bytes, b"\0"), "flag": (_below(1 << 32), 0),
         "expect-output": (_decode_bytes, None)},
        transport.AdversaryTap.ACTIONS,
    ),
    "update-key": StepSpec(("handshake",), attacks=("reuse-crp",)),
    "verify": StepSpec(
        ("handshake",),
        {"expect-mismatch": (_pcr_indices, None)},
    ),
    "agent-deploy": StepSpec(("handshake",), {"ip": (_below(1 << 16), 1)}),
}

# The steps that set up what a later step requires: each runs at most once.
SET_UP = frozenset(req for spec in STEPS.values() for req in spec.requires)


class ExpectationFailed(TrcteeError):
    pass


class OperationFailed(TrcteeError):
    """An operation answered failure; its cause is the step's first traced error."""


def _outcomes(cls: type[TrcteeError]) -> set[str]:
    return {cls.token or f"error:{cls.__name__}"}.union(*map(_outcomes, cls.__subclasses__()))


# Every outcome a step reports; the modules imported above define every error class.
OUTCOMES = frozenset({"ok", "expectation-failed", *_outcomes(TrcteeError)})


@dataclass(frozen=True)
class Step:
    name: str
    args: dict[str, object]  # every key of STEPS[name].keys, converted
    adversary: str | None = None
    expect: str = "ok"


def parse_scenario(text: str) -> tuple[Step, ...]:
    stripped = (line.strip() for line in text.splitlines())
    body = [(no, line) for no, line in enumerate(stripped, 1) if line and line[0] != "#"]
    if not body or body[0][1] != SCENARIO_HEADER:
        raise ParseError(f"scenario must start with {SCENARIO_HEADER!r}")
    steps: list[Step] = []
    seen: set[str] = set()
    for lineno, line in body[1:]:
        name, *parts = line.split()
        if name not in STEPS:
            raise ParseError(f"line {lineno}: unknown step {name!r}")
        if name in SET_UP and name in seen:
            raise ParseError(f"line {lineno}: set-up step {name!r} given twice")
        spec = STEPS[name]
        args: dict[str, str] = {}
        for part in parts:
            if "=" not in part:
                raise ParseError(f"line {lineno}: expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            if key in args:
                raise ParseError(f"line {lineno}: key {key!r} given twice")
            args[key] = value
        adversary = args.pop("adversary", None)
        if adversary is not None and adversary not in spec.attacks:
            raise ParseError(f"line {lineno}: step {name!r} mounts no attack {adversary!r}")
        expect = args.pop("expect", "ok")
        if expect == "clean":
            expect = "ok"
        if expect not in OUTCOMES:
            raise ParseError(f"line {lineno}: no step reports the outcome {expect!r}")
        values = {key: default for key, (_, default) in spec.keys.items()}
        for key, value in args.items():
            if key not in spec.keys:
                raise ParseError(f"line {lineno}: step {name!r} takes no key {key!r}")
            try:
                values[key] = spec.keys[key][0](value)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {key}={value}: {exc}") from None
        missing = [req for req in spec.requires if req not in seen]
        if missing:
            raise ParseError(f"line {lineno}: step {name!r} requires prior {', '.join(missing)}")
        seen.add(name)
        steps.append(Step(name=name, args=values, adversary=adversary, expect=expect))
    return tuple(steps)


def load_scenario(path: str) -> tuple[Step, ...]:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


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


def _reported(cause: Exception) -> tuple[str, str]:
    """The outcome and detail of a step that failed with ``cause``.  No frame
    that a traceback keeps holds ``cause``, so a run leaves no reference cycle."""
    if isinstance(cause, OperationFailed):
        return "expectation-failed", f"{cause} without a typed cause"
    return getattr(cause, "token", None) or f"error:{type(cause).__name__}", str(cause)


class ScenarioRunner:
    """Executes one scenario against an in-process or TCP-loopback world."""

    def __init__(
        self,
        steps: tuple[Step, ...],
        seed: int | None = None,
        tcp: bool = False,
        rekey_threshold: int = runtime.DEFAULT_REKEY_THRESHOLD,
        crp_slice: int = ttp.DEFAULT_SLICE_SIZE,
        recv_timeout: float = 2.0,
    ):
        if rekey_threshold < 1:
            raise ParseError("rekey threshold must be at least 1")
        self.steps = steps
        self.master = Rng(seed)
        self.tcp = tcp
        self.rekey_threshold = rekey_threshold
        self.crp_slice = crp_slice
        self.recv_timeout = recv_timeout
        # Enroll only the CRPs a run can provision: challenges come in DRBG
        # order, so these are the same ones.  A pool above the default still fails.
        self.ttp = ttp.TtpService(
            rng=self.master.child("ttp"), enroll_crps=min(crp_slice, ttp.DEFAULT_ENROLL_CRPS)
        )
        self.device: device.FpgaSocDevice | None = None
        self.user: runtime.UserNode | None = None
        self.tap: transport.AdversaryTap | None = None
        self.report = RunReport()
        self.trace = Trace()
        self._device_thread = self._agent = None  # the agent: the device's relay

    # -- world construction ------------------------------------------------------

    def _require(self, obj, what: str):
        """``obj``, set up by an earlier step; the grammar orders the steps, but
        that step may have failed."""
        if obj is None:
            raise ExpectationFailed(f"{what} not set up: the step that sets it up failed")
        return obj

    # -- step execution ----------------------------------------------------------

    def run(self) -> RunReport:
        try:
            for step in self.steps:
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
            labels = {"send": "user->device", "recv": "device->user"}
            self.report.frame_transcript = [(labels[way], record) for way, record in self.tap.log]
        if self._device_thread is not None:
            self._device_thread.join(timeout=5.0)
        self.trace.events.clear()  # each traced error's traceback reaches the world

    def _run_step(self, step: Step) -> tuple[str, str]:
        handler = getattr(self, "_step_" + step.name.replace("-", "_"))
        mark = len(self.trace.events)
        try:
            return "ok", handler(step) or ""
        except ExpectationFailed as exc:
            return "expectation-failed", str(exc)
        except Exception as exc:
            return _reported(self.trace.first_error(mark) or exc)

    def _step_enroll_device(self, step: Step) -> str:
        device_id = step.args["id"]
        puf_device = puf.PufDevice(self.master.child(f"puf-{device_id}").bytes(32))
        image = device.BootImage.synthetic(device_id, self.ttp.pk_ttp)
        self.ttp.enroll_device(device_id, puf_device, image)
        self.device = device.FpgaSocDevice(
            device_id=device_id,
            puf=puf_device,
            boot_image=image,
            rng=self.master.child(f"device-{device_id}"),
            trace=self.trace,
        )
        return f"device {device_id} enrolled"

    def _step_enroll_vtpm(self, step: Step) -> str:
        user_id = step.args["user"]
        self.ttp.register_user(user_id)
        self._bundle = self.ttp.enroll_vtpm(user_id)
        return f"vTPM enrolled for {user_id}"

    def _step_provision(self, step: Step) -> str:
        user_id = step.args["user"]
        enrolled = self._require(self.device, "device").device_id
        device_id = step.args["device"] or enrolled
        dev_id, manifest, crp_slice = self.ttp.provision_user(
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
            dev.boot_image.tamper(step.args["component"])
        dev.boot()
        if step.adversary is None:
            return "boot measured 8 components"
        return f"boot with tampered {step.args['component']}"

    def _step_handshake(self, step: Step) -> str:
        dev = self._require(self.device, "device")
        user = self._require(self.user, "user node")
        if step.adversary == "swap-vtpm-cert":
            # A certificate for some other enrolled key: valid under the TTP
            # key, but not matching this vTPM's signing key.
            self.ttp.register_user("mallory")
            other = self.ttp.enroll_vtpm("mallory")
            user.bundle = replace(user.bundle, cert=other.cert)
        # The user's end is an adversary tap that logs the session's records:
        # over TCP to a device thread, in process over a direct pair.
        if self.tcp:
            # The kernel completes the connection into the backlog, so one
            # thread can connect first and accept after.
            with transport.listen("127.0.0.1", 0) as server:
                user_side = transport.connect("127.0.0.1", server.getsockname()[1])
                self._agent = transport.accept_one(server, timeout=5.0)
            self._device_thread = device.serve_in_thread(dev, self._agent)
        else:
            user_side = self._agent = device.DirectPair(dev)
        self.tap = transport.AdversaryTap(user_side)
        # On a failed handshake the device traces its typed error before it
        # sends its abort record and closes, so the step reports that error.
        user.connect(self.tap)
        return f"session established, epoch {user.endpoint.session.epoch}"

    def _step_deploy(self, step: Step) -> str:
        user = self._require(self.user, "user node")
        dev = self._require(self.device, "device")
        ip_num = step.args["ip"]
        image = device.IpImage(kernel_id=step.args["kernel"], params=step.args["params"])
        ticket = user.prepare_deploy(ip_num, image)
        tmm = dev.tmm  # the session's, dropped if the session ends in this step
        before = tmm.config_memory.snapshot()
        if step.adversary == "tamper-bitstream":
            blob = dev.file_store.get(ticket.blob_name)
            dev.file_store.put(ticket.blob_name, blob[:-1] + bytes([blob[-1] ^ 0x01]))
        if step.adversary in transport.AdversaryTap.ACTIONS:
            self.tap.schedule("recv", self.tap.received + 1, step.adversary)
        response, verdict = user.user_deploy(ticket)
        if response.response_code != 0 or verdict != "Verified":
            if step.adversary not in transport.AdversaryTap.ACTIONS:
                # At-rest attacks must leave the device state untouched; frame
                # attacks happen after the TMM already acted on a clean request.
                if tmm.config_memory.snapshot() != before:
                    raise ExpectationFailed("config memory changed on a failed deploy")
            raise OperationFailed("deploy failed")
        return f"ip {ip_num} deployed, hash {response.bin_hash.hex()[:16]}..., {verdict}"

    def _step_invoke(self, step: Step) -> str:
        user = self._require(self.user, "user node")
        ip_num = step.args["ip"]
        if step.adversary is not None:
            self.tap.schedule("recv", self.tap.received + 1, step.adversary)
        output, record = user.user_invoke(ip_num, step.args["input"], step.args["flag"])
        expected = step.args["expect-output"]
        if expected is not None and output != expected:
            raise ExpectationFailed(f"output {output.hex()} != expected {expected.hex()}")
        return f"ip {ip_num} invoked, {len(output)}B out, {record.verdict}"

    def _step_update_key(self, step: Step) -> str:
        user = self._require(self.user, "user node")
        session = user._require_session().session
        challenge = None
        if step.adversary == "reuse-crp":
            # The handshake that established the session consumed one.
            challenge = next(r.challenge for r in user.crp_store.records() if r.used)
        epoch_before = session.epoch
        rc = user.update_key(challenge)
        if rc != 0:
            if session.epoch != epoch_before:
                raise ExpectationFailed("epoch changed on a failed key update")
            raise OperationFailed("key update failed")
        return f"key updated, epoch {session.epoch}"

    def _step_agent_deploy(self, step: Step) -> str:
        """REE-resident adversary tries to drive a deployment itself."""
        endpoint = self._require(self.user, "user node")._require_session()
        dev = self._require(self.device, "device")
        for attr in dir(self._agent):
            if not attr.startswith("_") and any(
                word in attr.lower() for word in ("deploy", "invoke", "decrypt", "key")
            ):
                raise ExpectationFailed(f"agent exposes privileged capability {attr!r}")
        tmm = dev.tmm  # the session's, dropped when the abort ends it
        before = tmm.config_memory.snapshot()
        # Best effort without keys: inject a forged plaintext request framed
        # as if it were sealed.  The TMM must reject it unopened; it traces
        # why before the abort record that ends the session comes back.
        forged = wire.encode(wire.DeployCmd(step.args["ip"]))
        head = channel.FRAME_HEAD.pack(endpoint.session.epoch, 1 << 40)
        fake_frame = head + bytes(channel.NONCE_LEN) + forged + bytes(channel.TAG_LEN)
        endpoint.transport.send_record(fake_frame)
        endpoint.transport.recv_record(self.recv_timeout)
        if tmm.config_memory.snapshot() != before:
            raise ExpectationFailed("config memory changed from an agent-forged request")
        raise OperationFailed("forged request")

    def _step_verify(self, step: Step) -> str:
        user = self._require(self.user, "user node")
        report = user.verify()
        self.report.verifier_report = report
        mismatched = report.mismatched_indices()
        expected_set = step.args["expect-mismatch"]
        if expected_set is not None:
            if sorted(mismatched) != expected_set:
                raise ExpectationFailed(
                    f"mismatched PCRs {mismatched}, expected {expected_set}"
                )
            return f"verify: mismatch exactly at {expected_set}"
        if mismatched:
            raise ExpectationFailed(f"unexpected PCR mismatches at {mismatched}")
        return "verify: all 24 registers verified"
