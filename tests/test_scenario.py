import gc
import time
import warnings
from pathlib import Path

import pytest

from trctee import scenario

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def run_file(name, seed=5, tcp=False, timeout=0.6, **kwargs):
    scn = scenario.load_scenario(str(SCENARIOS / name))
    runner = scenario.ScenarioRunner(scn, seed=seed, tcp=tcp, recv_timeout=timeout, **kwargs)
    return runner.run()


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
        assert len(scenario.parse_scenario(text).steps) == 1

    def test_adversary_and_expect_extracted(self):
        text = (
            "trctee-scenario v1\nenroll-device id=d\nenroll-vtpm user=u\n"
            "provision user=u device=d\nboot\n"
            "handshake adversary=swap-vtpm-cert expect=bad-cert\n"
        )
        step = scenario.parse_scenario(text).steps[-1]
        assert step.adversary == "swap-vtpm-cert"
        assert step.expect == "bad-cert"
        assert "adversary" not in step.args


class TestBaseline:
    def test_baseline_exits_zero_all_verified(self):
        report = run_file("baseline.txt", timeout=2.0)
        assert report.exit_code == 0
        assert report.verifier_report is not None
        assert report.verifier_report.all_verified

    def test_unmet_expectation_exits_nonzero(self):
        text = (
            "trctee-scenario v1\nenroll-device id=d\nenroll-vtpm user=u\n"
            "provision user=u device=d\nboot\nhandshake expect=bad-cert\n"
        )
        report = scenario.ScenarioRunner(
            scenario.parse_scenario(text), seed=5, recv_timeout=1.0
        ).run()
        assert report.exit_code == 1


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
        assert report.exit_code == 0
        assert runner.device.tmm.config_memory.snapshot() == {}


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
