"""Pin what each scenario run shows to the outside: one SHA-256 per run.

Each of the nine ``scenarios/*.txt`` runs in process at seed 5 and at three
rekey thresholds; the digest covers the step report, the exit code, the
verifier's register lines and every record on the wire, in order.  The
checked-in digests change only with a change that states a wire change;
then regenerate them with

    PYTHONPATH=src python3 tests/test_transcripts.py
"""

import hashlib
import struct
from pathlib import Path

from trctee import scenario

SCENARIOS = Path(__file__).parent.parent / "scenarios"
DIGESTS = Path(__file__).parent / "golden" / "transcripts.sha256"
SEED = 5
THRESHOLDS = (1024, 4, 2)


def _part(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def run_digest(name: str, threshold: int) -> str:
    scn = scenario.load_scenario(str(SCENARIOS / name))
    report = scenario.ScenarioRunner(scn, seed=SEED, rekey_threshold=threshold).run()
    verifier = report.verifier_report
    h = hashlib.sha256()
    h.update(_part(report.text().encode()))
    h.update(_part(str(report.exit_code).encode()))
    h.update(_part(verifier.machine_lines().encode() if verifier else b""))
    for direction, record in report.frame_transcript:
        h.update(_part(direction.encode()) + _part(bytes(record)))
    return h.hexdigest()


def runs() -> list[tuple[str, int]]:
    return [
        (path.name, threshold)
        for path in sorted(SCENARIOS.glob("*.txt"))
        for threshold in THRESHOLDS
    ]


def _line(name: str, threshold: int, digest: str) -> str:
    return f"{digest}  {name} threshold={threshold}"


def test_every_run_matches_its_pinned_digest():
    pinned = DIGESTS.read_text().splitlines()
    assert len(pinned) == 27
    assert [_line(n, t, run_digest(n, t)) for n, t in runs()] == pinned


if __name__ == "__main__":
    DIGESTS.write_text("".join(_line(n, t, run_digest(n, t)) + "\n" for n, t in runs()))
