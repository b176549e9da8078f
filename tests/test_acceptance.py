"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion; any assertion failure marks that criterion FAILED.
"""

import hashlib
import random
import struct
from pathlib import Path

import pytest

from conftest import build_world, connect_world
from oracles import brute_matmul8, pcr_chain, reference_hkdf
from test_wire import random_command, random_response
from trctee import channel, device, scenario, vtpm, wire
from trctee.crypto import Rng

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def _pass(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number} {name}: PASS")


class TestAcceptance:
    def test_c1_wire_exactness(self):
        # Fixed sizes, zero tolerance.
        assert len(wire.encode(wire.UpdateCmd(bytes(4)))) == 14
        assert len(wire.encode(wire.UpdateResp(0))) == 12
        assert len(wire.encode(wire.DeployCmd(0))) == 12
        assert len(wire.encode(wire.DeployResp(bytes(48)))) == 58
        # Command code bytes, literal wire order.
        assert wire.encode(wire.UpdateCmd(bytes(4)))[6:10] == bytes.fromhex("1f000000")
        assert wire.encode(wire.DeployCmd(0))[6:10] == bytes.fromhex("2f000000")
        assert wire.encode(wire.InvokeCmd(0, b"", 0))[6:10] == bytes.fromhex("3f000000")
        _pass(1, "wire exactness")

    def test_c2_codec_round_trip_and_fuzz(self):
        rng = random.Random(0xACC2)
        round_trips = 0
        for _ in range(6000):
            message = random_command(rng)
            assert wire.decode(wire.encode(message)) == message
            round_trips += 1
        for _ in range(6000):
            message, code = random_response(rng)
            assert wire.decode_response(wire.encode(message), code) == message
            round_trips += 1
        assert round_trips >= 10**4
        # Fuzzed byte strings; WireError is the only permitted outcome.
        fuzz_cases = 0
        for _ in range(65000):
            data = rng.randbytes(rng.randrange(0, 48))
            try:
                wire.decode(data)
            except wire.WireError:
                pass
            fuzz_cases += 1
        for _ in range(45000):
            data = bytearray(wire.encode(random_command(rng)))
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                wire.decode(bytes(data))
            except wire.WireError:
                pass
            fuzz_cases += 1
        assert fuzz_cases >= 10**5
        _pass(2, "codec round-trip and fuzz totality")

    def test_c3_boot_chain_oracle(self):
        world = build_world(seed=31)
        connect_world(world)
        # Independent replay: hash-chain over the golden manifest.
        for index in range(8):
            expected = pcr_chain([world.user.golden_manifest[index][1]])
            assert world.user.vtpm.pcr_read(index) == expected
        world.user.close()
        # Flipping one byte in component k changes PCR_k only, exactly.
        for position, name in enumerate(device.BOOT_COMPONENTS):
            tampered_world = build_world(seed=31)
            tampered_world.boot_image.tamper(name)
            connect_world(tampered_world)
            golden = tampered_world.user.golden_manifest
            for index in range(8):
                expected = pcr_chain([golden[index][1]])
                actual = tampered_world.user.vtpm.pcr_read(index)
                assert (actual != expected) == (index == position)
            tampered_world.user.close()
        _pass(3, "boot-chain oracle with per-component tamper localization")

    def test_c4_deployment_hash(self):
        world = build_world(seed=32)
        connect_world(world)
        user, dev = world.user, world.device
        image = device.IpImage(kernel_id="matmul8", params=Rng(1).bytes(64))
        ticket = user.prepare_deploy(1, image)
        response, verdict = user.user_deploy(ticket)
        # Reference hash implementation, straight from hashlib.
        assert response.bin_hash == hashlib.sha3_384(image.encode()).digest()
        assert verdict == "Verified" and response.response_code == 0
        # Failure path: tampered blob -> response code 1, config unchanged.
        ticket2 = user.prepare_deploy(2, device.IpImage(kernel_id="xor", params=bytes(8)))
        blob = dev.file_store.get(ticket2.blob_name)
        dev.file_store.put(ticket2.blob_name, blob[:-1] + bytes([blob[-1] ^ 1]))
        before = dev.tmm.config_memory.snapshot()
        response2, verdict2 = user.user_deploy(ticket2)
        assert response2.response_code == 1 and verdict2 == "Mismatch"
        assert dev.tmm.config_memory.snapshot() == before
        user.close()
        _pass(4, "deployment hash vs reference SHA3-384 and failure path")

    def test_c5_invocation_oracle(self):
        world = build_world(seed=33)
        connect_world(world)
        user = world.user
        rng = random.Random(0xACC5)
        a = rng.randbytes(64)
        ticket = user.prepare_deploy(1, device.IpImage(kernel_id="matmul8", params=a))
        user.user_deploy(ticket)
        for _ in range(100):
            b = rng.randbytes(64)
            output, record = user.user_invoke(1, b)
            assert output == brute_matmul8(a, b)
            assert record.verdict == "Verified"
        # PCR9/PCR10 replay exactly from the exported log.
        events = vtpm.parse_log(user.export_log())
        replayed = vtpm.replay_log(events)
        assert replayed.read(9) == user.vtpm.pcr_read(9)
        assert replayed.read(10) == user.vtpm.pcr_read(10)
        user.close()
        _pass(5, "matmul8 brute-force oracle and PCR9/PCR10 log replay")

    def test_c6_key_lifecycle(self):
        world = build_world(seed=34, crp_slice=16)
        connect_world(world)
        user, dev = world.user, world.device
        total = 16

        old_key = user.endpoint.session.sess_key
        state_hash = user.vtpm.pcrs.state_hash()
        challenge = user.crp_store.peek_unused_challenge()
        response = next(
            r.response for r in user.crp_store.records() if r.challenge == challenge
        )
        stale = channel.seal(user.endpoint.session, b"before-update")
        user.endpoint.session.send_counter -= 1  # keep counters as if never sent

        assert user.update_key(challenge) == 0

        # On the direct pair the device has switched, and traced it, before
        # update_key returns.
        assert dev.trace.first("rekey") is not None
        assert user.endpoint.session.sess_key == dev.session.sess_key
        # The derived key equals an independent extract-then-expand run.
        expected = reference_hkdf(
            ikm=response + old_key,
            salt=state_hash,
            info=b"trctee-rekey" + struct.pack(">I", 1),
            length=32,
        )
        assert user.endpoint.session.sess_key == expected
        # Any frame under the old epoch is rejected.
        with pytest.raises(channel.WrongEpoch):
            channel.open_frame(dev.session, stale.encode())
        # Single-use accounting: one CRP for the handshake, one per epoch since.
        assert user.update_key() == 0
        consumed = total - user.crp_store.unused_count()
        assert consumed == 1 + user.endpoint.session.epoch == 1 + 2
        user.close()
        _pass(6, "key lifecycle, KDF recomputation, epoch rejection, CRP count")

    def test_c7_adversary_suite(self):
        cases = [
            ("adversary_tamper_frame.txt", "auth-failure"),
            ("adversary_replay_frame.txt", "replay-detected"),
            ("adversary_drop_frame.txt", "timeout"),
            ("adversary_reuse_crp.txt", "crp-exhausted"),
            ("adversary_swap_cert.txt", "bad-cert"),
            ("adversary_tamper_component.txt", "ok"),
            ("adversary_tamper_bitstream.txt", "auth-failure"),
            ("adversary_agent_deploy.txt", "auth-failure"),
        ]
        passed = 0
        for name, designated in cases:
            scn = scenario.load_scenario(str(SCENARIOS / name))
            report = scenario.ScenarioRunner(scn, seed=5, recv_timeout=0.6).run()
            assert report.exit_code == 0, f"{name}: {report.text()}"
            assert report.results[-1].outcome == designated, name
            passed += 1
        assert passed == len(cases) >= 7
        _pass(7, f"adversary suite, {passed}/{passed} expected-failure scenarios")

    def test_c8_framing_overhead(self):
        key = Rng(40).bytes(32)
        session = channel.SessionState(sess_key=key, peer_role=channel.Role.TMM)
        for size in (0, 1, 2, 13, 64, 255, 1024, 65536):
            frame = channel.seal(session, bytes(size))
            assert len(frame.encode()) == size + 40
        _pass(8, "sealed-frame overhead is exactly 40 bytes")

    def test_c9_transport_equivalence(self):
        scn = scenario.load_scenario(str(SCENARIOS / "baseline.txt"))
        inproc = scenario.ScenarioRunner(scn, seed=5, recv_timeout=2.0).run()
        over_tcp = scenario.ScenarioRunner(scn, seed=5, tcp=True, recv_timeout=2.0).run()
        assert inproc.exit_code == 0 and over_tcp.exit_code == 0
        assert inproc.frame_transcript == over_tcp.frame_transcript
        assert len(inproc.frame_transcript) > 0
        _pass(9, "identical frame transcripts in-process and over TCP loopback")
