import gc
import re
import threading
import time
import warnings
from pathlib import Path

import pytest

from oracles import ERROR_TOKENS
from trctee import cli, device, puf, scenario, ttp, wire

SCENARIOS = Path(__file__).parent.parent / "scenarios"
PROTOCOL = Path(__file__).parent.parent / "PROTOCOL.md"
# ``trctee --seed 5 run <file>`` output of each scenario file, as printed
# when in-process runs still served the device on a thread of its own.
GOLDEN = Path(__file__).parent / "golden"

ALL_STEPS = ["enroll-device", "enroll-vtpm", "provision", "boot", "handshake", "deploy",
             "invoke", "update-key", "verify", "agent-deploy"]
ALL_ATTACKS = ["tamper-frame", "replay-frame", "drop-frame", "tamper-component", "reuse-crp",
               "swap-vtpm-cert", "tamper-bitstream"]


def run_file(name, seed=5, tcp=False, timeout=0.6, **kwargs):
    scn = scenario.load_scenario(str(SCENARIOS / name))
    runner = scenario.ScenarioRunner(scn, seed=seed, tcp=tcp, recv_timeout=timeout, **kwargs)
    return runner.run()


def with_world(line):
    """The scenario of ``WORLD`` with ``line`` as the only step of its name,
    in place of the set-up step it names or else after them, and the line
    number of ``line``."""
    name = line.split()[0]
    steps = [line if step.split()[0] == name else step for step in WORLD]
    if line not in steps:
        steps.append(line)
    return "trctee-scenario v1\n" + "\n".join(steps) + "\n", steps.index(line) + 2


def assert_one_error_line(text, message, tmp_path, capsys):
    """``text`` is a ParseError with ``message``: ``trctee run`` prints that
    line alone and exits 2."""
    with pytest.raises(scenario.ParseError) as excinfo:
        scenario.parse_scenario(text)
    assert str(excinfo.value) == message
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ParseError: {message}\n"


class TestParser:
    def test_missing_header(self):
        with pytest.raises(scenario.ParseError):
            scenario.parse_scenario("enroll-device id=dev1\n")

    def test_unknown_step(self):
        with pytest.raises(scenario.ParseError):
            scenario.parse_scenario("trctee-scenario v1\nfly-to-moon\n")

    def test_unknown_adversary(self):
        with pytest.raises(scenario.ParseError):
            scenario.parse_scenario("trctee-scenario v1\nboot adversary=steal-keys\n")

    def test_bad_key_value(self):
        with pytest.raises(scenario.ParseError):
            scenario.parse_scenario("trctee-scenario v1\nenroll-device dev1\n")

    def test_ordering_grammar_no_handshake_before_provision(self):
        text = "trctee-scenario v1\nenroll-device id=d\nboot\nhandshake\n"
        with pytest.raises(scenario.ParseError) as excinfo:
            scenario.parse_scenario(text)
        assert "provision" in str(excinfo.value)

    def test_ordering_grammar_no_deploy_before_handshake(self):
        text = "trctee-scenario v1\ndeploy ip=1\n"
        with pytest.raises(scenario.ParseError):
            scenario.parse_scenario(text)

    def test_comments_and_blanks_ignored(self):
        text = "# c\n\ntrctee-scenario v1\n# c2\nenroll-device id=d\n"
        assert len(scenario.parse_scenario(text)) == 1

    def test_adversary_and_expect_extracted(self):
        text = (
            "trctee-scenario v1\nenroll-device id=d\nenroll-vtpm user=u\n"
            "provision user=u device=d\nboot\n"
            "handshake adversary=swap-vtpm-cert expect=bad-cert\n"
        )
        step = scenario.parse_scenario(text)[-1]
        assert step.adversary == "swap-vtpm-cert"
        assert step.expect == "bad-cert"
        assert "adversary" not in step.args


    @pytest.mark.parametrize(
        "line, reason",
        [
            ("deploy ip=70000", "ip=70000: not an integer in 0..65535"),
            ("deploy ip=1 params=hex:zz", "params=hex:zz: non-hexadecimal"),
            ("invoke ip=x", "ip=x: not an integer in 0..65535"),
            ("invoke ip=1 flag=4294967296", "flag=4294967296: not an integer in 0..4294967295"),
            ("invoke ip=1 inptu=hex:00", "step 'invoke' takes no key 'inptu'"),
            ("verify expect-mismatch=4,x", "expect-mismatch=4,x: not an integer in 0..23"),
        ],
        ids=["ip-too-large", "params-not-hex", "ip-not-a-number", "flag-too-large",
             "misspelt-key", "pcr-not-a-number"],
    )
    def test_a_bad_step_argument_is_refused_with_its_line(self, line, reason, tmp_path, capsys):
        text = f"trctee-scenario v1\n{SETUP}boot\nhandshake\n{line}\n"
        with pytest.raises(scenario.ParseError) as excinfo:
            scenario.parse_scenario(text)
        assert str(excinfo.value).startswith(f"line 7: {reason}")
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: ParseError: line 7: {reason}")

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("handshake adversary=drop-frame", "step 'handshake' mounts no attack 'drop-frame'"),
            ("verify adversary=tamper-frame", "step 'verify' mounts no attack 'tamper-frame'"),
            ("invoke ip=1 ip=2", "key 'ip' given twice"),
            ("invoke adversary=drop-frame adversary=drop-frame", "key 'adversary' given twice"),
            ("invoke expect=timeout expect=ok", "key 'expect' given twice"),
            ("boot adversary=tamper-component component=nope",
             "component=nope: not one of fsbl, puf_bitstream, pmu_fw, atf, optee, uboot, linux,"
             " rootfs"),
            *[(f"invoke ip=1 input=hex:010203 expect={token}",
               f"no step reports the outcome {token!r}")
              for token in ("auth-failur", "Timeout", "", "error:KeyError", "error:AuthFailure")],
            ("verify expect-mismatch=99", "expect-mismatch=99: not an integer in 0..23"),
            ("verify expect-mismatch=-1", "expect-mismatch=-1: not an integer in 0..23"),
            ("verify expect-mismatch=4,4", "expect-mismatch=4,4: a PCR index given twice"),
        ],
        ids=["attack-not-mounted-by-handshake", "attack-not-mounted-by-verify", "ip-twice",
             "adversary-twice", "expect-twice", "unknown-boot-component", "misspelt-outcome",
             "outcome-in-capitals", "empty-outcome", "error-outside-trctee",
             "error-of-a-class-with-a-token", "pcr-out-of-range", "pcr-negative", "pcr-twice"],
    )
    def test_a_line_no_step_runs_is_one_error_line(self, line, reason, tmp_path, capsys):
        text, lineno = with_world(line)
        assert_one_error_line(text, f"line {lineno}: {reason}", tmp_path, capsys)

    @pytest.mark.parametrize(
        "line",
        ["enroll-device id=dev2", "enroll-vtpm user=bob", "provision user=alice device=dev1",
         "boot adversary=tamper-component", "handshake"],
        ids=lambda line: line.split()[0],
    )
    def test_a_repeated_set_up_step_is_one_error_line(self, line, tmp_path, capsys):
        # A run builds one world: a second device, vTPM, user node, boot or
        # session would run over the first.
        text = f"trctee-scenario v1\n{SETUP}boot\nhandshake\n{line}\n"
        message = f"line 7: set-up step {line.split()[0]!r} given twice"
        assert_one_error_line(text, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "token",
        ["ok", "clean", "expectation-failed", *ERROR_TOKENS.values(), "error:ChannelError",
         "error:TransportClosed", "error:NoSession", "error:StaleNonce", "error:TrcteeError"],
    )
    def test_each_outcome_a_step_reports_parses(self, token):
        text = f"trctee-scenario v1\n{SETUP}boot\nhandshake\ninvoke expect={token}\n"
        assert scenario.parse_scenario(text)[-1].expect == ("ok" if token == "clean" else token)

    @pytest.mark.parametrize("attack", ALL_ATTACKS)
    @pytest.mark.parametrize("name", ALL_STEPS)
    def test_a_step_accepts_exactly_the_attacks_it_mounts(self, name, attack):
        text, lineno = with_world(f"{name} adversary={attack}")
        if attack in scenario.STEPS[name].attacks:
            assert scenario.parse_scenario(text)[lineno - 2].adversary == attack
        else:
            with pytest.raises(scenario.ParseError, match=f"^line {lineno}: step '{name}' mounts"):
                scenario.parse_scenario(text)

    def test_protocol_names_the_attacks_of_each_step(self):
        section = PROTOCOL.read_text(encoding="utf-8").split("## 5. Security considerations")[1]
        section = section.split("\n## ")[0]
        listed = {
            name: set(re.findall(r"`([a-z-]+)`", text)) & set(ALL_ATTACKS)
            for name, text in re.findall(r"^- `([a-z-]+)`: (.*(?:\n  .*)*)", section, re.M)
        }
        mounted = {name: set(spec.attacks) for name, spec in scenario.STEPS.items() if spec.attacks}
        assert listed == mounted

    def test_an_unknown_kernel_is_left_to_the_device(self):
        text = f"trctee-scenario v1\n{SETUP}boot\nhandshake\ndeploy kernel=nosuch\n"
        scn = scenario.parse_scenario(text)
        assert scn[-1].args == {"ip": 1, "kernel": "nosuch", "params": b"\0"}
        result = scenario.ScenarioRunner(scn, seed=5).run().results[-1]
        assert (result.outcome, result.detail) == ("bad-image", "unknown kernel 'nosuch'")


class TestBaseline:
    def test_baseline_exits_zero_all_verified(self):
        report = run_file("baseline.txt", timeout=2.0)
        assert report.exit_code == 0
        assert report.verifier_report is not None
        assert report.verifier_report.all_verified

    def test_a_default_run_enrolls_only_the_crps_it_can_provision(self, monkeypatch, capsys):
        # The TTP enrolls the 64 CRPs a default --crp-pool provisions, not 256;
        # the device answers one more challenge per handshake and key update.
        calls = []
        respond = puf.PufDevice.respond
        monkeypatch.setattr(
            puf.PufDevice, "respond", lambda self, c: calls.append(c) or respond(self, c)
        )
        assert cli.main(["--seed", "5", "run", str(SCENARIOS / "baseline.txt")]) == 0
        capsys.readouterr()
        assert len(calls) <= ttp.DEFAULT_SLICE_SIZE + 2

    def test_unmet_expectation_exits_nonzero(self):
        text = (
            "trctee-scenario v1\nenroll-device id=d\nenroll-vtpm user=u\n"
            "provision user=u device=d\nboot\nhandshake expect=bad-cert\n"
        )
        report = scenario.ScenarioRunner(
            scenario.parse_scenario(text), seed=5, recv_timeout=1.0
        ).run()
        assert report.exit_code == 1


class TestStepsAfterAFailedHandshake:
    # Each step that needs the session gets it through the user node, so a
    # failed handshake is reported as the typed NoSession, never untyped.
    @pytest.mark.parametrize("step", ["update-key", "agent-deploy", "deploy ip=1 kernel=xor"])
    def test_each_step_reports_no_session(self, step):
        text = (
            "trctee-scenario v1\nenroll-device id=dev1\nenroll-vtpm user=alice\n"
            "provision user=alice device=dev1\nboot\n"
            f"handshake adversary=swap-vtpm-cert expect=bad-cert\n{step}\n"
        )
        report = scenario.ScenarioRunner(scenario.parse_scenario(text), seed=5).run()
        result = report.results[-1]
        assert (result.outcome, result.detail) == (
            "error:NoSession", "no established session with the device"
        )
        assert report.exit_code == 1


WORLD = ["enroll-device id=dev1", "enroll-vtpm user=alice", "provision user=alice device=dev1",
         "boot", "handshake"]
SETUP = "".join(f"{step}\n" for step in WORLD[:3])
XOR = "deploy ip=1 kernel=xor params=hex:000102030405060708090a0b0c0d0e0f\n"

# (case, steps after the header, detail of the last step)
UNMET = [
    (
        "wrong expected output",
        SETUP + "boot\nhandshake\n" + XOR + "invoke ip=1 input=hex:" + "ff" * 16
        + " expect-output=hex:00\n",
        "output fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0 != expected 00",
    ),
    (
        "wrong expected mismatch",
        SETUP + "boot\nhandshake\nverify expect-mismatch=4\n",
        "mismatched PCRs [], expected [4]",
    ),
    (
        "clean verify of a tampered boot",
        SETUP + "boot adversary=tamper-component component=optee\nhandshake\n"
        "verify expect=clean\n",
        "unexpected PCR mismatches at [4]",
    ),
    (
        "device not set up",
        "enroll-device id=a/b expect=error:BadIdentifier\nenroll-vtpm user=alice\n"
        "provision user=alice device=dev1\n",
        "device not set up: the step that sets it up failed",
    ),
]


class TestUnmetExpectations:
    """A check the runner makes itself: when it does not hold, the step
    reports ``expectation-failed`` and the run exits 1."""

    @pytest.mark.parametrize(
        "steps, detail", [case[1:] for case in UNMET], ids=[case[0] for case in UNMET]
    )
    def test_reported_as_expectation_failed(self, steps, detail, tmp_path, capsys):
        text = "trctee-scenario v1\n" + steps
        report = scenario.ScenarioRunner(scenario.parse_scenario(text), seed=5).run()
        assert [r.met for r in report.results[:-1]] == [True] * (len(report.results) - 1)
        result = report.results[-1]
        assert (result.outcome, result.detail) == ("expectation-failed", detail)
        path = tmp_path / "unmet.txt"
        path.write_text(text)
        assert cli.main(["--seed", "5", "run", str(path)]) == 1
        capsys.readouterr()

    def test_a_device_that_answers_rc_1_and_traces_nothing(self, monkeypatch):
        monkeypatch.setattr(
            device.FpgaSocDevice, "_execute", lambda self, command: wire.failure_response(command)
        )
        text = "trctee-scenario v1\n" + SETUP + "boot\nhandshake\n" + XOR
        report = scenario.ScenarioRunner(scenario.parse_scenario(text), seed=5).run()
        result = report.results[-1]
        assert (result.outcome, result.detail) == (
            "expectation-failed", "deploy failed without a typed cause"
        )
        assert report.exit_code == 1

    def test_rekey_threshold_below_one_is_refused(self):
        empty = scenario.parse_scenario("trctee-scenario v1\n")
        with pytest.raises(scenario.ParseError, match="at least 1"):
            scenario.ScenarioRunner(empty, rekey_threshold=0)


ADVERSARY_CASES = [
    ("adversary_tamper_frame.txt", "auth-failure"),
    ("adversary_replay_frame.txt", "replay-detected"),
    ("adversary_drop_frame.txt", "timeout"),
    ("adversary_reuse_crp.txt", "crp-exhausted"),
    ("adversary_swap_cert.txt", "bad-cert"),
    ("adversary_tamper_component.txt", "ok"),
    ("adversary_tamper_bitstream.txt", "auth-failure"),
    ("adversary_agent_deploy.txt", "auth-failure"),
]


class TestAdversaries:
    @pytest.mark.parametrize("name,last_outcome", ADVERSARY_CASES)
    def test_expected_failure_scenarios_pass(self, name, last_outcome):
        report = run_file(name)
        assert report.exit_code == 0, report.text()
        assert report.results[-1].outcome == last_outcome

    def test_a_tampered_deploy_reply_reports_auth_failure(self):
        steps = SETUP + "boot\nhandshake\n" + XOR.rstrip() + " adversary=tamper-frame"
        text = f"trctee-scenario v1\n{steps} expect=auth-failure\n"
        report = scenario.ScenarioRunner(scenario.parse_scenario(text), seed=5).run()
        assert report.exit_code == 0, report.text()
        assert report.results[-1].outcome == "auth-failure"

    @pytest.mark.parametrize("tcp", [False, True], ids=["inproc", "tcp"])
    def test_a_request_after_a_replayed_reply_finds_the_session_gone(self, tcp):
        # The genuine reply to the replayed invoke was never read: were the
        # session kept, the next invoke would take it as its own answer.
        text = (
            f"trctee-scenario v1\n{SETUP}boot\nhandshake\n{XOR}"
            f"invoke input=hex:{'ff' * 16} adversary=replay-frame expect=replay-detected\n"
            f"invoke input=hex:{'00' * 16} expect-output=hex:{bytes(range(16)).hex()}\n"
            "verify\n"
        )
        report = scenario.ScenarioRunner(
            scenario.parse_scenario(text), seed=5, tcp=tcp, recv_timeout=0.6
        ).run()
        invoke, verify = report.results[-2:]
        assert (invoke.outcome, invoke.detail) == (
            "error:NoSession", "no established session with the device"
        )
        assert verify.met and report.verifier_report.all_verified
        assert report.exit_code == 1

    @pytest.mark.parametrize("tcp", [False, True], ids=["inproc", "tcp"])
    def test_a_reply_held_past_its_timeout_is_never_a_later_requests_answer(self, tcp):
        # The tap holds the first invoke's reply back for one receive, as a
        # slow network would, with no sleep: that invoke times out, and the
        # reply, handed over next, would be the second invoke's answer were
        # the session kept.
        class HeldReply(scenario.ScenarioRunner):
            held = False

            def _step_invoke(self, step):
                if not self.held:
                    self.held = True
                    self.tap.schedule("recv", self.tap.received + 1, "delay-frame")
                return super()._step_invoke(step)

        text = (
            f"trctee-scenario v1\n{SETUP}boot\nhandshake\n{XOR}"
            f"invoke input=hex:{'aa' * 16} expect=timeout\n"
            f"invoke input=hex:{'bb' * 16} expect=error:NoSession\n"
            "verify expect=clean\n"
        )
        report = HeldReply(scenario.parse_scenario(text), seed=5, tcp=tcp, recv_timeout=2.0).run()
        assert report.exit_code == 0, report.text()
        assert [r.outcome for r in report.results[-3:]] == ["timeout", "error:NoSession", "ok"]

    @pytest.mark.parametrize(
        "attack, outcome",
        [("tamper-frame", "auth-failure"), ("replay-frame", "replay-detected"),
         ("drop-frame", "timeout")],
    )
    @pytest.mark.parametrize("name", ["deploy", "invoke"])
    def test_each_frame_attack_fails_the_step_that_mounts_it(self, name, attack, outcome):
        line = XOR.rstrip() if name == "deploy" else XOR + "invoke ip=1 input=hex:" + "00" * 16
        text = f"trctee-scenario v1\n{SETUP}boot\nhandshake\n{line} adversary={attack}\n"
        report = scenario.ScenarioRunner(scenario.parse_scenario(text), seed=5).run()
        assert [r.outcome for r in report.results] == ["ok"] * (len(report.results) - 1) + [outcome]

    def test_a_value_without_hex_prefix_is_its_text(self):
        output = bytes(a ^ b for a, b in zip(b"abcdefghijklmnop", range(16)))
        text = (
            "trctee-scenario v1\n" + SETUP + "boot\nhandshake\n" + XOR
            + f"invoke ip=1 input=abcdefghijklmnop expect-output=hex:{output.hex()}\n"
        )
        report = scenario.ScenarioRunner(scenario.parse_scenario(text), seed=5).run()
        assert report.exit_code == 0, report.text()

    @pytest.mark.parametrize("tcp", [False, True], ids=["inproc", "tcp"])
    def test_swapped_cert_aborts_handshake_at_once(self, tcp):
        class TimedRunner(scenario.ScenarioRunner):
            def _step_handshake(self, step):
                start = time.perf_counter()
                try:
                    return super()._step_handshake(step)
                finally:
                    self.handshake_s = time.perf_counter() - start

        scn = scenario.load_scenario(str(SCENARIOS / "adversary_swap_cert.txt"))
        runner = TimedRunner(scn, seed=5, tcp=tcp, recv_timeout=2.0)
        report = runner.run()
        assert report.exit_code == 0, report.text()
        assert report.results[-1].outcome == "bad-cert"
        assert runner.handshake_s < 0.5

    @pytest.mark.parametrize(
        "tcp,timeout", [(False, 2.0), (True, 0.6)], ids=["inproc", "tcp"]
    )
    def test_dropped_frame_waits_on_the_clock_only_over_tcp(self, tcp, timeout):
        # In process the direct pair's inbox is empty and nothing can arrive
        # later, so the wait ends at once; over TCP it waits out its timer.
        class TimedRunner(scenario.ScenarioRunner):
            def _step_invoke(self, step):
                start = time.perf_counter()
                try:
                    return super()._step_invoke(step)
                finally:
                    self.invoke_s = time.perf_counter() - start

        scn = scenario.load_scenario(str(SCENARIOS / "adversary_drop_frame.txt"))
        runner = TimedRunner(scn, seed=5, tcp=tcp, recv_timeout=timeout)
        report = runner.run()
        assert report.exit_code == 0, report.text()
        assert report.results[-1].outcome == "timeout"
        if tcp:
            assert runner.invoke_s >= timeout
        else:
            assert runner.invoke_s < 0.5

    @pytest.mark.parametrize("tcp", [False, True], ids=["inproc", "tcp"])
    def test_failed_step_is_not_blamed_on_an_earlier_error(self, tcp):
        # The reuse-crp step leaves a traced crp-exhausted behind; the deploy
        # that follows must report its own cause.
        text = (
            "trctee-scenario v1\nenroll-device id=dev1\nenroll-vtpm user=alice\n"
            "provision user=alice device=dev1\nboot\nhandshake\n"
            "update-key adversary=reuse-crp expect=crp-exhausted\n"
            "deploy ip=1 kernel=xor params=hex:000102030405060708090a0b0c0d0e0f"
            " adversary=tamper-bitstream expect=auth-failure\n"
        )
        report = scenario.ScenarioRunner(
            scenario.parse_scenario(text), seed=5, tcp=tcp, recv_timeout=0.6
        ).run()
        assert report.exit_code == 0, report.text()
        assert [r.outcome for r in report.results[-2:]] == ["crp-exhausted", "auth-failure"]

    def test_tamper_component_leaves_other_registers_verified(self):
        report = run_file("adversary_tamper_component.txt")
        assert report.verifier_report.mismatched_indices() == [4]

    def test_state_unchanged_after_reuse_crp(self):
        scn = scenario.load_scenario(str(SCENARIOS / "adversary_reuse_crp.txt"))
        runner = scenario.ScenarioRunner(scn, seed=5, recv_timeout=0.6)
        report = runner.run()
        assert report.exit_code == 0
        assert runner.user.endpoint.session.epoch == 0

    def test_state_unchanged_after_agent_deploy(self):
        scn = scenario.load_scenario(str(SCENARIOS / "adversary_agent_deploy.txt"))
        runner = scenario.ScenarioRunner(scn, seed=5, recv_timeout=0.6)
        report = runner.run()
        assert report.exit_code == 0  # the step found config memory unchanged
        assert runner.device.tmm is None  # the abort ended the session and its TMM


class TestDeterminismAndTransport:
    def test_same_seed_identical_transcripts_and_logs(self):
        first = run_file("baseline.txt", timeout=2.0)
        second = run_file("baseline.txt", timeout=2.0)
        assert first.frame_transcript == second.frame_transcript
        assert first.verifier_report.machine_lines() == second.verifier_report.machine_lines()

    def test_different_seed_different_transcript(self):
        first = run_file("baseline.txt", timeout=2.0)
        second = run_file("baseline.txt", seed=6, timeout=2.0)
        assert first.frame_transcript != second.frame_transcript

    @pytest.mark.parametrize("name", sorted(path.name for path in SCENARIOS.glob("*.txt")))
    def test_tcp_loopback_matches_in_process(self, name):
        inproc = run_file(name)
        over_tcp = run_file(name, tcp=True)
        assert inproc.exit_code == 0, inproc.text()
        assert over_tcp.exit_code == 0, over_tcp.text()
        assert inproc.frame_transcript == over_tcp.frame_transcript
        assert inproc.text() == over_tcp.text()

    def test_no_plaintext_on_the_wire(self):
        # Markers that exist in sealed payloads of the baseline run.
        markers = [
            bytes.fromhex("000102030405060708090a0b0c0d0e0f"),  # xor params
            bytes.fromhex("00112233445566778899aabbccddeeff"),  # invoke input
            b"xor",  # kernel id inside the bitstream
            b"fsbl",  # boot component name inside the report
        ]
        report = run_file("baseline.txt", timeout=2.0)
        wire_bytes = b"".join(record for _, record in report.frame_transcript)
        for marker in markers:
            assert marker not in wire_bytes


class TestNoLeakedSockets:
    @pytest.mark.parametrize("name", ["baseline.txt", "adversary_swap_cert.txt"])
    def test_tcp_session_closes_both_ends(self, name):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            report = run_file(name, tcp=True)
            gc.collect()
        assert report.exit_code == 0, report.text()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestNoClockWaitsInProcess:
    def test_all_scenarios_through_the_cli_well_under_one_receive_timeout(self, capsys):
        # At the CLI's default 2 s receive timeout, one wait on the clock
        # anywhere in the suite would take the whole pass past 2 s.
        start = time.perf_counter()
        codes = {
            path.name: cli.main(["--seed", "5", "run", str(path)])
            for path in sorted(SCENARIOS.glob("*.txt"))
        }
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert len(codes) == 9
        assert codes == dict.fromkeys(codes, 0)
        assert elapsed < 2.0


class TestThreadFreeInProcess:
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.txt")), ids=lambda p: p.name)
    def test_cli_run_starts_no_thread_and_prints_the_golden_output(
        self, path, monkeypatch, capsys
    ):
        def no_thread(thread):
            raise AssertionError(f"an in-process run started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert cli.main(["--seed", "5", "run", str(path)]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{path.stem}.stdout").read_text()


class TestNoReferenceCycles:
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.txt")), ids=lambda p: p.name)
    def test_a_cli_run_leaves_nothing_for_the_cycle_collector(self, path, capsys):
        # A traced error's traceback reaches the world that raised it; the
        # runner drops the trace once its report is built, so the world goes
        # when the run ends, without waiting for the collector.
        cli._parser()  # built once per process: argparse's own garbage is not the run's
        gc.collect()
        gc.disable()
        try:
            assert cli.main(["--seed", "5", "run", str(path)]) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
