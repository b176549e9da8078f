import argparse
import contextlib
import errno
import hashlib
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import build_world, tapped
from trctee import cli, device, puf, scenario, transport, vtpm

SCENARIOS = Path(__file__).parent.parent / "scenarios"
real_listen = transport.listen


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def store(tmp_path):
    return str(tmp_path / "store")


class TestEnrollmentCommands:
    def test_enroll_provision_flow(self, store, capsys):
        assert run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1") == 0
        assert run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice") == 0
        assert run_cli("--store", store, "provision", "--user", "alice", "--device", "dev1") == 0
        out = capsys.readouterr().out
        assert "enrolled" in out and "provisioned" in out
        root = Path(store)
        assert (root / "registry.txt").exists()
        assert (root / "device_dev1.txt").exists()
        assert (root / "user_alice.txt").exists()
        assert (root / "crps_user_alice.txt").exists()

    def test_duplicate_device_enrollment_fails(self, store, capsys):
        assert_refused_writing_nothing(store, capsys, "enroll-device", "--id", "dev1")


class TestRunCommand:
    def test_baseline_scenario(self, store, capsys):
        rc = run_cli("--seed", "5", "run", str(SCENARIOS / "baseline.txt"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "all 24 registers verified" in out
        assert "overall: VERIFIED" in out

    def test_adversary_scenario(self, store):
        rc = run_cli("--seed", "5", "run", str(SCENARIOS / "adversary_swap_cert.txt"))
        assert rc == 0

    def test_parse_error_exit_2(self, store, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a scenario\n")
        assert run_cli("run", str(bad)) == 2

    def test_tcp_transport_flag(self, store):
        rc = run_cli("--seed", "5", "run", str(SCENARIOS / "baseline.txt"), "--transport", "tcp")
        assert rc == 0


class TestParserBuiltOnce:
    def test_two_runs_share_one_parser_and_no_option_values(self, monkeypatch, capsys):
        built, runs = [], []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        runner_init = scenario.ScenarioRunner.__init__

        def record(self, scn, seed=None, tcp=False, rekey_threshold=1024, **kwargs):
            runs.append((seed, tcp, rekey_threshold))
            runner_init(self, scn, seed=seed, tcp=tcp, rekey_threshold=rekey_threshold, **kwargs)

        monkeypatch.setattr(scenario.ScenarioRunner, "__init__", record)
        cli._parser.cache_clear()
        try:
            first = ["--seed", "5", "--rekey-threshold", "3", "run",
                     str(SCENARIOS / "adversary_swap_cert.txt"), "--transport", "tcp"]
            assert run_cli(*first) == 0
            assert run_cli("run", str(SCENARIOS / "baseline.txt")) == 0
        finally:
            cli._parser.cache_clear()  # drop the parser the counting build_parser built
        assert len(built) == 1
        assert runs == [(5, True, 3), (None, False, 1024)]


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestTransportErrors:
    def test_connect_to_closed_port(self):
        from trctee import transport

        with pytest.raises(transport.ConnectError):
            transport.connect("127.0.0.1", free_port(), timeout=0.5)


class TestServeConnectVerify:
    def test_two_endpoint_session_over_tcp(self, store, capsys, monkeypatch):
        exported = []
        real_export = vtpm.export_log

        def export_log(events):
            exported.append(real_export(events))
            return exported[-1]

        monkeypatch.setattr(vtpm, "export_log", export_log)
        run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1")
        run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice")
        run_cli("--store", store, "provision", "--user", "alice", "--device", "dev1")

        rc, _, _, out = serve_and_connect(
            store, capsys, monkeypatch, serve_flags=("--seed", "3"), connect_flags=("--seed", "4")
        )
        assert rc == 0
        assert "xor round-trip ok" in out
        assert "overall: VERIFIED" in out

        # The exported log verifies offline through the verify subcommand.
        log_path = Path(store) / "eventlog_alice.txt"
        assert log_path.exists()
        # Exported once; the file holds exactly the text that was verified.
        assert len(exported) == 1
        assert log_path.read_text(encoding="utf-8") == exported[0]
        assert run_cli("--store", store, "verify", str(log_path), "--user", "alice") == 0

    def test_malicious_boot_report_is_one_error_line(self, store, capsys, monkeypatch):
        # The device reports a boot measurement into PCR 30, outside 0..7.
        monkeypatch.setattr(
            device, "measure_boot_image", lambda image: [(30, "fsbl", bytes(48))]
        )
        run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1")
        run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice")
        run_cli("--store", store, "provision", "--user", "alice", "--device", "dev1")
        rc, err, _, _ = serve_and_connect(store, capsys, monkeypatch)
        assert rc == 1
        assert err.startswith("error: MessageError: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_connect_without_listener_is_a_typed_error(self, store, capsys):
        run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1")
        run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice")
        run_cli("--store", store, "provision", "--user", "alice", "--device", "dev1")
        capsys.readouterr()
        rc = run_cli(
            "--store", store, "connect", "--addr", f"127.0.0.1:{free_port()}", "--user", "alice"
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ConnectError: ")
        assert "Traceback" not in err

    def test_verify_detects_forged_log(self, store, capsys):
        run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1")
        run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice")
        run_cli("--store", store, "provision", "--user", "alice", "--device", "dev1")
        # Hand-build a log that disagrees with the golden manifest.
        log_path = Path(store) / "forged.txt"
        log_path.write_text("0, 0, BootComponent, fsbl, " + "ab" * 48 + "\n")
        rc = run_cli("--store", store, "verify", str(log_path), "--user", "alice")
        assert rc == 1
        assert "Mismatch" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content",
        [
            b"garbage\n",
            b"0, 30, Other, x, " + b"ab" * 48 + b"\n",
            b"0, 0, Other, x, ab\n",
            b"1, 0, Other, x, " + b"ab" * 48 + b"\n",
            b"0, 0, Other, \xff, " + b"ab" * 48 + b"\n",
            # Not UTF-8 far past the first read buffer: the verifier streams
            # the file, so a thousand events are replayed before it fails.
            pytest.param(
                b"".join(b"%d, 11, Other, x, %s\n" % (seq, b"ab" * 48) for seq in range(1000))
                + b"1000, 11, Other, \xff, " + b"ab" * 48 + b"\n",
                id="not-utf8-midway",
            ),
        ],
    )
    def test_verify_malformed_log_is_one_error_line(self, store, capsys, content):
        run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1")
        run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice")
        run_cli("--store", store, "provision", "--user", "alice", "--device", "dev1")
        capsys.readouterr()
        log_path = Path(store) / "bad.txt"
        log_path.write_bytes(content)
        rc = run_cli("--store", store, "verify", str(log_path), "--user", "alice")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_verify_streams_its_file_with_lines_ending_at_lf_only(self, store, capsys):
        enroll_and_provision(store)
        capsys.readouterr()
        log_path = Path(store) / "log.txt"
        digest = "ab" * 48
        # CRLF line ends, and a label holding a file separator, which
        # str.splitlines would take for a line break.
        log_path.write_bytes(
            f"0, 0, BootComponent, fsbl, {digest}\r\n1, 1, Other, a\x1cb, {digest}\r\n"
            .encode()
        )
        assert run_cli("--store", store, "verify", str(log_path), "--user", "alice") == 1
        # Both events replayed: the actual column of PCR 1 holds the second.
        pcr1 = capsys.readouterr().out.splitlines()[1].split(" ")
        assert pcr1[0] == "1"
        assert pcr1[3] == hashlib.sha384(bytes(48) + bytes.fromhex(digest)).hexdigest()

    def test_verify_error_names_its_line(self, store, capsys):
        enroll_and_provision(store)
        capsys.readouterr()
        log_path = Path(store) / "log.txt"
        log_path.write_text(
            f"0, 0, BootComponent, fsbl, {'ab' * 48}\n\n1, 0, Other, x, ab\n", encoding="utf-8"
        )
        assert run_cli("--store", store, "verify", str(log_path), "--user", "alice") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: LogFormatError: line 3: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "line", ["input zz", "output " + "ab" * 47, "deploy 1", "replay " + "ab" * 48]
    )
    def test_verify_malformed_history_is_one_error_line(self, store, capsys, line):
        run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1")
        run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice")
        run_cli("--store", store, "provision", "--user", "alice", "--device", "dev1")
        capsys.readouterr()
        log_path = Path(store) / "log.txt"
        log_path.write_text("0, 0, BootComponent, fsbl, " + "ab" * 48 + "\n")
        history_path = Path(store) / "h.txt"
        history_path.write_text(f"trctee-history v1\n{line}\n")
        rc = run_cli("--store", store, "verify", str(log_path), "--user", "alice",
                     "--history", str(history_path))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: HistoryFormatError: ")
        assert "line 2" in captured.err and captured.err.count("\n") == 1


class TestVerifyHistoryPath:
    def test_a_missing_explicit_history_is_one_error_line(self, store, tmp_path, capsys):
        enroll_and_provision(store)
        log_path = tmp_path / "log.txt"
        log_path.write_text("0, 0, BootComponent, fsbl, " + "ab" * 48 + "\n")
        # The default history file does not exist either: that is an empty history.
        default_rc = run_cli("--store", store, "verify", str(log_path), "--user", "alice")
        assert capsys.readouterr().err == ""
        missing = tmp_path / "nosuch.txt"
        rc = run_cli("--store", store, "verify", str(log_path), "--user", "alice",
                     "--history", str(missing))
        captured = capsys.readouterr()
        assert (default_rc, rc) == (1, 2)
        assert captured.out == ""
        assert captured.err.startswith(f"error: HistoryFormatError: {missing}: cannot read: ")
        assert captured.err.count("\n") == 1


def enroll_and_provision(store):
    assert run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1") == 0
    assert run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice") == 0
    assert run_cli("--store", store, "provision", "--user", "alice", "--device", "dev1") == 0


def serve_and_connect(store, capsys, monkeypatch, serve_flags=(), connect_flags=()):
    """One `serve` on port 0 in a thread and, once it is listening, one
    `connect` to the port it bound: connect's exit code and what it wrote to
    stderr, serve's exit code, and what both wrote to stdout."""
    bound, ports = threading.Event(), []

    def listen(host, port):
        server = real_listen(host, port)
        ports.append(server.getsockname()[1])
        bound.set()
        return server

    monkeypatch.setattr(transport, "listen", listen)
    served = []
    server = threading.Thread(
        target=lambda: served.append(run_cli(
            "--store", store, *serve_flags, "serve", "--listen", "127.0.0.1:0",
            "--device", "dev1", "--timeout", "10",
        )),
        daemon=True,
    )
    server.start()
    assert bound.wait(10)
    rc = run_cli(
        "--store", store, *connect_flags,
        "connect", "--addr", f"127.0.0.1:{ports[0]}", "--user", "alice",
    )
    server.join(timeout=10)
    assert not server.is_alive()
    captured = capsys.readouterr()
    assert f"listening on 127.0.0.1:{ports[0]}\n" in captured.out
    return rc, captured.err, served[0], captured.out


class TestCrpsAcrossRuns:
    def test_two_connect_runs_send_disjoint_challenges(self, store, capsys, monkeypatch):
        enroll_and_provision(store)
        sent = []
        respond = puf.PufDevice.respond
        monkeypatch.setattr(
            puf.PufDevice, "respond", lambda self, c: sent.append(c) or respond(self, c)
        )
        runs = []
        for _ in range(2):
            start = len(sent)
            assert serve_and_connect(store, capsys, monkeypatch)[0] == 0
            runs.append(set(sent[start:]))
        # Each run sends the handshake's challenge and the key update's.
        assert len(runs[0]) == len(runs[1]) == 2
        assert not runs[0] & runs[1]
        crps = puf.CrpStore.load(str(Path(store) / "crps_user_alice.txt"))
        assert {r.challenge for r in crps.records() if r.used} == runs[0] | runs[1]


class TestEventLogWrite:
    def test_the_log_is_replaced_durably_or_not_at_all(self, store, capsys, monkeypatch):
        enroll_and_provision(store)
        log_path = Path(store) / "eventlog_alice.txt"
        exported, real_export, real_fsync = [], vtpm.export_log, os.fsync

        def export_log(events):
            exported.append(real_export(events))
            return exported[-1]

        monkeypatch.setattr(vtpm, "export_log", export_log)
        assert serve_and_connect(store, capsys, monkeypatch)[0] == 0
        assert log_path.read_bytes() == exported[0].encode("utf-8")  # no header line

        def fsync(fd):  # every fsync after the second export fails
            if len(exported) > 1:
                raise OSError(errno.EIO, "simulated I/O error")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        log_path.write_bytes(b"the last session's log\n")
        rc, err, _, _ = serve_and_connect(store, capsys, monkeypatch)
        assert log_path.read_bytes() == b"the last session's log\n"
        assert (rc, err) == (
            2, f"error: StateFileError: {log_path}: cannot write: simulated I/O error\n"
        )


class TestConnectKeyUpdateFails:
    """`connect` exits 1 when its key update answers rc 1; the update's
    failure is the user's, so its log still verifies."""

    def test_a_spoiled_crp_is_exit_1(self, store, capsys, monkeypatch):
        enroll_and_provision(store)
        # The handshake takes the first CRP, the key update the second.
        path = Path(store) / "crps_user_alice.txt"
        header, *records = path.read_text(encoding="utf-8").splitlines()
        challenge, response, used = records[1].split()
        records[1] = f"{challenge} {'0' * len(response)} {used}"
        path.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
        rc, err, _, out = serve_and_connect(store, capsys, monkeypatch)
        assert (
            "update-key rc=1, session ended: ConfirmFailure: "
            "device confirmation of the updated key failed\n"
        ) in out
        assert "overall: VERIFIED" in out
        assert (rc, err) == (1, "")

    def test_an_exhausted_pool_is_exit_1(self, store, capsys, monkeypatch):
        assert run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1") == 0
        assert run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice") == 0
        assert run_cli(
            "--store", store, "--crp-pool", "1", "provision", "--user", "alice", "--device", "dev1"
        ) == 0
        # The handshake takes the one CRP.
        rc, err, _, out = serve_and_connect(store, capsys, monkeypatch)
        assert "update-key rc=1, epoch 0: CrpExhausted: no unused CRP left in user store\n" in out
        assert (rc, err) == (1, "")

    def test_a_device_that_closes_under_the_update_is_exit_1(self, tmp_path, capsys):
        world = build_world()
        world.device.boot()
        # The device receives HS1, HS3, HS8, the upload, the deploy, two
        # invokes, then the update request: it closes on that 8th record.
        conn = tapped(world.device, "send", 8, "close")
        args = argparse.Namespace(user="alice")
        assert cli._baseline_flow(world.user, conn, str(tmp_path), args) == 1
        out = capsys.readouterr().out
        assert "update-key rc=1, session ended: TransportClosed: peer closed the transport\n" in out
        assert "overall: VERIFIED" in out


class TestRejectedHandshake:
    def test_connect_names_the_device_side_cause(self, store, capsys, monkeypatch):
        # alice's user file carries mallory's certificate: valid under the
        # TTP key, but not for alice's signing key, so the device rejects it.
        enroll_and_provision(store)
        assert run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "mallory") == 0
        root = Path(store)
        (cert,) = [line for line in (root / "user_mallory.txt").read_text().splitlines()
                   if line.startswith("cert ")]
        alice = root / "user_alice.txt"
        alice.write_text(
            "".join(cert + "\n" if line.startswith("cert ") else line
                    for line in alice.read_text().splitlines(keepends=True))
        )
        rc, err, _, _ = serve_and_connect(store, capsys, monkeypatch)
        assert rc == 1
        assert err.startswith("error: PeerAborted: ") and err.count("\n") == 1
        assert "BadCert" in err and "Traceback" not in err

    def test_non_utf8_device_id_exits_1_and_is_named_to_the_device(self, store, capsys):
        # A device hello whose id is not UTF-8 is a StaleNonce: one error line,
        # exit 1, and an abort record naming it before the vTPM closes.
        enroll_and_provision(store)
        received = []
        with transport.listen("127.0.0.1", 0) as server:

            def fake_device():
                with contextlib.closing(transport.accept_one(server, timeout=5.0)) as conn:
                    received.append(bytes(conn.recv_record(5.0)))
                    conn.send_record(b"\x12" + bytes(16) + b"\x00\x02\xff\xfe")
                    received.append(bytes(conn.recv_record(5.0)))

            thread = threading.Thread(target=fake_device, daemon=True)
            thread.start()
            addr = f"127.0.0.1:{server.getsockname()[1]}"
            rc = run_cli("--store", store, "connect", "--addr", addr, "--user", "alice")
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: StaleNonce: ") and err.count("\n") == 1
        assert received[1:] == [b"\x1f\x02"]

    def test_serve_names_the_vtpm_side_cause(self, store, capsys, monkeypatch):
        # A device whose PUF seed is zeroed answers with the wrong PUF, so the
        # vTPM rejects it; serve reports that, not a clean session end.
        enroll_and_provision(store)
        path = Path(store) / "device_dev1.txt"
        path.write_text(
            "".join("seed " + "00" * 32 + "\n" if line.startswith("seed ") else line
                    for line in path.read_text().splitlines(keepends=True))
        )
        rc, err, serve_rc, out = serve_and_connect(store, capsys, monkeypatch)
        assert rc == 1
        assert err == "error: PufMismatch: device PUF response does not match the enrolled CRP\n"
        assert serve_rc == 1
        assert out.endswith(
            "session ended with PeerAborted: vTPM aborted the handshake: PufMismatch\n"
        )


def drop_provisioning(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:6]))


# (subcommand, state file it reads, how the file is broken)
BROKEN_STATE = [
    (["enroll-device", "--id", "dev2"], "registry.txt", "garbage"),
    (["enroll-vtpm", "--user", "bob"], "registry.txt", "garbage"),
    (["enroll-vtpm", "--user", "alice"], "user_alice.txt", "garbage"),
    (["provision", "--user", "alice", "--device", "dev1"], "registry.txt", "garbage"),
    (["provision", "--user", "alice", "--device", "dev1"], "registry.txt", "missing"),
    (["provision", "--user", "alice", "--device", "dev1"], "crps_ttp_dev1.txt", "garbage"),
    (["provision", "--user", "alice", "--device", "dev1"], "user_alice.txt", "garbage"),
    (["serve", "--listen", "127.0.0.1:0", "--device", "dev1"], "device_dev1.txt", "garbage"),
    (["serve", "--listen", "127.0.0.1:0", "--device", "dev1"], "device_dev1.txt", "missing"),
    (["connect", "--addr", "127.0.0.1:9", "--user", "alice"], "user_alice.txt", "garbage"),
    (["connect", "--addr", "127.0.0.1:9", "--user", "alice"], "user_alice.txt", "unprovisioned"),
    (["connect", "--addr", "127.0.0.1:9", "--user", "alice"], "crps_user_alice.txt", "garbage"),
    (["connect", "--addr", "127.0.0.1:9", "--user", "alice"], "crps_user_alice.txt", "missing"),
    (["verify", "log.txt", "--user", "alice"], "user_alice.txt", "garbage"),
    (["verify", "log.txt", "--user", "alice"], "user_alice.txt", "unprovisioned"),
]


class TestMalformedStateFiles:
    @pytest.mark.parametrize(
        "argv,name,how", BROKEN_STATE, ids=[f"{c[0][0]}-{c[1]}-{c[2]}" for c in BROKEN_STATE]
    )
    def test_exit_2_with_one_error_line(self, store, capsys, argv, name, how):
        enroll_and_provision(store)
        path = Path(store) / name
        if how == "garbage":
            lines = path.read_text().splitlines(keepends=True)
            path.write_text(lines[0] + "garbage\n" + "".join(lines[1:]))
        elif how == "missing":
            path.unlink()
        else:
            drop_provisioning(path)
        capsys.readouterr()
        rc = run_cli("--store", store, *argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: StateFileError: {path}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestSeededRegistry:
    def test_seeded_runs_write_identical_stores(self, tmp_path):
        stores = [tmp_path / "a", tmp_path / "b"]
        for root in stores:
            for argv in (
                ("enroll-device", "--id", "dev1"),
                ("enroll-vtpm", "--user", "alice"),
                ("enroll-vtpm", "--user", "bob"),
                ("provision", "--user", "alice", "--device", "dev1"),
            ):
                assert run_cli("--store", str(root), "--seed", "3", *argv) == 0
        files = sorted(path.name for path in stores[0].iterdir())
        assert files == sorted(path.name for path in stores[1].iterdir())
        for name in files:
            assert (stores[0] / name).read_bytes() == (stores[1] / name).read_bytes(), name
        alice, _, _ = cli._load_user(str(stores[0] / "user_alice.txt"))
        bob, _, _ = cli._load_user(str(stores[0] / "user_bob.txt"))
        assert alice.sk_tpm != bob.sk_tpm


def assert_refused_writing_nothing(store, capsys, *argv):
    """After enroll_and_provision, ``argv`` exits 1 with one error line and
    leaves every file in the store byte-identical."""
    enroll_and_provision(store)
    root = Path(store)
    before = {path.name: path.read_bytes() for path in root.iterdir()}
    capsys.readouterr()
    assert run_cli("--store", store, *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert {path.name: path.read_bytes() for path in root.iterdir()} == before


class TestProvisionOnce:
    def test_second_provision_is_refused(self, store, capsys):
        assert_refused_writing_nothing(
            store, capsys, "provision", "--user", "alice", "--device", "dev1"
        )


class TestEnrollVtpmOnceProvisioned:
    def test_re_enrolling_a_provisioned_user_is_refused(self, store, capsys):
        assert_refused_writing_nothing(
            store, capsys, "--seed", "3", "enroll-vtpm", "--user", "alice"
        )

    def test_unprovisioned_user_may_re_enroll(self, store):
        assert run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1") == 0
        assert run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice") == 0
        first = (Path(store) / "user_alice.txt").read_bytes()
        assert run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice") == 0
        assert (Path(store) / "user_alice.txt").read_bytes() != first


class TestEnrollmentFilesPinned:
    def test_seed_3_device_enrollment_bytes(self, store):
        assert run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1") == 0
        digests = {
            name: hashlib.sha256((Path(store) / name).read_bytes()).hexdigest()
            for name in ("crps_ttp_dev1.txt", "registry.txt")
        }
        assert digests == {
            "crps_ttp_dev1.txt": "fd42e312a8a561673b4e1781c55fb73d4df93b4b7746b8e33560111b297da091",
            "registry.txt": "81c1c888da2431e6433095fbf4d6ea42e116b4d36c10c720e569bc96a4aaab5e",
        }


# (extra set-up after enroll_and_provision, argv with {store} and {busy}
# filled in, the error's type, exit code)
FAILURES = [
    pytest.param([], ["enroll-device", "--id", "dev1"], "DuplicateDevice", 1,
                 id="enroll-device-again"),
    pytest.param([["enroll-vtpm", "--user", "bob"]],
                 ["provision", "--user", "bob", "--device", "nosuch"], "UnknownDevice", 1,
                 id="provision-unknown-device"),
    pytest.param([], ["enroll-device", "--id", "../x"], "BadIdentifier", 1,
                 id="enroll-device-bad-id"),
    pytest.param([["enroll-vtpm", "--user", "bob"]],
                 ["--crp-pool", "1000", "provision", "--user", "bob", "--device", "dev1"],
                 "CrpExhausted", 1, id="provision-beyond-pool"),
    pytest.param([], ["serve", "--listen", "127.0.0.1:{busy}", "--device", "dev1"],
                 "BindError", 1, id="serve-busy-port"),
    pytest.param([], ["serve", "--listen", "127.0.0.1:0", "--device", "dev1", "--timeout", "0.1"],
                 "ReceiveTimeout", 1, id="serve-no-peer"),
    pytest.param([], ["run", "{store}/nosuch.txt"], "FileNotFoundError", 2, id="run-missing"),
    pytest.param([], ["verify", "{store}/nosuch.log", "--user", "alice"],
                 "FileNotFoundError", 2, id="verify-missing"),
    pytest.param([], ["run", "{store}/registry.txt"], "ParseError", 2, id="run-not-a-scenario"),
]


class TestOneErrorLine:
    @pytest.mark.parametrize("setup,argv,name,code", FAILURES)
    def test_failure_is_one_error_line(self, store, capsys, setup, argv, name, code):
        enroll_and_provision(store)
        for extra in setup:
            assert run_cli("--store", store, "--seed", "3", *extra) == 0
        with socket.create_server(("127.0.0.1", 0)) as busy:
            port = busy.getsockname()[1]
            capsys.readouterr()
            rc = run_cli("--store", store, *(a.format(store=store, busy=port) for a in argv))
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith(f"error: {name}: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestPositiveCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--crp-pool", "-3", "provision", "--user", "bob", "--device", "dev1"],
            ["--crp-pool", "0", "provision", "--user", "bob", "--device", "dev1"],
            ["--rekey-threshold", "0", "connect", "--addr", "127.0.0.1:9", "--user", "alice"],
        ],
        ids=["crp-pool-negative", "crp-pool-zero", "rekey-threshold-zero"],
    )
    def test_usage_error_before_any_file_is_touched(self, store, capsys, argv):
        enroll_and_provision(store)
        assert run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "bob") == 0
        root = Path(store)
        before = {path.name: path.read_bytes() for path in root.iterdir()}
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            run_cli("--store", store, *argv)
        assert info.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in root.iterdir()} == before
        for name in ("crps_ttp_dev1.txt", "crps_user_alice.txt"):
            store_file = puf.CrpStore.load(str(root / name))
            assert not any(record.used for record in store_file.records())


class TestServeTimeout:
    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "1e300", "0", "ten"])
    def test_usage_error_before_the_store_is_read(self, store, capsys, value):
        with pytest.raises(SystemExit) as info:
            run_cli("--store", store, "serve", "--listen", "127.0.0.1:0", "--device", "dev1",
                    "--timeout", value)
        assert info.value.code == 2
        assert "--timeout: must be a number of seconds in (0, " in capsys.readouterr().err
        assert not os.path.exists(store)

    def test_the_largest_timeout_a_lock_takes_is_accepted(self):
        argv = ["serve", "--listen", "127.0.0.1:0", "--device", "dev1", "--timeout"]
        args = cli.build_parser().parse_args([*argv, repr(threading.TIMEOUT_MAX)])
        assert args.timeout == threading.TIMEOUT_MAX


class TestAddress:
    @pytest.mark.parametrize("port", ["65536", "99999"])
    def test_port_out_of_range_is_refused(self, store, port):
        assert run_cli("--store", store, "enroll-device", "--id", "dev1") == 0
        value = f"127.0.0.1:{port}"
        with pytest.raises(SystemExit) as info:
            run_cli("--store", store, "serve", "--listen", value, "--device", "dev1")
        assert info.value.code == f"error: address must be HOST:PORT, got {value!r}"

    @pytest.mark.parametrize(
        "argv",
        [["serve", "--listen", "{addr}", "--device", "dev1"],
         ["connect", "--addr", "{addr}", "--user", "alice"]],
        ids=["serve", "connect"],
    )
    def test_bad_address_is_refused_before_the_store_is_read(self, store, argv):
        # In an empty store: not a StateFileError (exit 2), and no store made.
        value = "127.0.0.1:65536"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-m", "trctee.cli", "--store", store,
             *(a.format(addr=value) for a in argv)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr == f"error: address must be HOST:PORT, got {value!r}\n"
        assert not Path(store).exists()

    def test_port_range_ends(self):
        assert cli._parse_addr("127.0.0.1:0") == ("127.0.0.1", 0)
        assert cli._parse_addr("127.0.0.1:65535") == ("127.0.0.1", 65535)
