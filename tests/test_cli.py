import socket
import threading
from pathlib import Path

import pytest

from trctee import cli, device, puf, vtpm

SCENARIOS = Path(__file__).parent.parent / "scenarios"


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

    def test_duplicate_device_enrollment_fails(self, store):
        run_cli("--store", store, "enroll-device", "--id", "dev1")
        from trctee import ttp

        with pytest.raises(ttp.DuplicateDevice):
            run_cli("--store", store, "enroll-device", "--id", "dev1")


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

        port = free_port()
        results = {}

        def serve():
            results["serve"] = run_cli(
                "--store", store, "--seed", "3",
                "serve", "--listen", f"127.0.0.1:{port}", "--device", "dev1",
                "--timeout", "10",
            )

        server = threading.Thread(target=serve, daemon=True)
        server.start()

        import time

        # Retry while the server is not yet listening.
        deadline = time.time() + 5
        rc, out = None, ""
        while time.time() < deadline:
            rc = run_cli(
                "--store", store, "--seed", "4",
                "connect", "--addr", f"127.0.0.1:{port}", "--user", "alice",
            )
            captured = capsys.readouterr()
            out += captured.out
            if "ConnectError" not in captured.err:
                break
            time.sleep(0.1)
        server.join(timeout=10)
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
        port = free_port()
        server = threading.Thread(
            target=run_cli,
            args=("--store", store, "serve", "--listen", f"127.0.0.1:{port}",
                  "--device", "dev1", "--timeout", "10"),
            daemon=True,
        )
        server.start()
        import time

        deadline = time.time() + 5
        while time.time() < deadline:
            capsys.readouterr()
            rc = run_cli("--store", store, "connect", "--addr", f"127.0.0.1:{port}",
                         "--user", "alice")
            err = capsys.readouterr().err
            if "ConnectError" not in err:
                break
            time.sleep(0.1)
        server.join(timeout=10)
        assert not server.is_alive()
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


def enroll_and_provision(store):
    assert run_cli("--store", store, "--seed", "3", "enroll-device", "--id", "dev1") == 0
    assert run_cli("--store", store, "--seed", "3", "enroll-vtpm", "--user", "alice") == 0
    assert run_cli("--store", store, "provision", "--user", "alice", "--device", "dev1") == 0


def serve_and_connect(store, capsys):
    """One `serve` in a thread and one `connect` against it; connect's exit code."""
    import time

    port = free_port()
    server = threading.Thread(
        target=run_cli,
        args=("--store", store, "serve", "--listen", f"127.0.0.1:{port}",
              "--device", "dev1", "--timeout", "10"),
        daemon=True,
    )
    server.start()
    deadline = time.time() + 5
    while True:  # retry while the server is not yet listening
        rc = run_cli("--store", store, "connect", "--addr", f"127.0.0.1:{port}", "--user", "alice")
        if "ConnectError" not in capsys.readouterr().err or time.time() > deadline:
            break
        time.sleep(0.1)
    server.join(timeout=10)
    assert not server.is_alive()
    return rc


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
            assert serve_and_connect(store, capsys) == 0
            runs.append(set(sent[start:]))
        # Each run sends the handshake's challenge and the key update's.
        assert len(runs[0]) == len(runs[1]) == 2
        assert not runs[0] & runs[1]
        crps = puf.CrpStore.load(str(Path(store) / "crps_user_alice.txt"))
        assert {r.challenge for r in crps.records() if r.used} == runs[0] | runs[1]


def drop_provisioning(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:6]))


# (subcommand, state file it reads, how the file is broken)
BROKEN_STATE = [
    (["enroll-device", "--id", "dev2"], "registry.txt", "garbage"),
    (["enroll-vtpm", "--user", "bob"], "registry.txt", "garbage"),
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
