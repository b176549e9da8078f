"""Run the whole single-fault sweep over TCP loopback and compare each case
with its in-process twin.

    PYTHONPATH=src python3 tools/tcp_sweep.py

Each fault of ``TestSingleFaultSweep.SINGLE_FAULTS`` (tests/test_runtime.py)
runs twice, on a direct pair and over TCP loopback, each at a user timeout
of 0.05 s.  A case agrees when both runs end with the same user error
classes, the same alive-or-gone session and the same tap log.  Every case
that disagrees, or whose run fails one of the sweep's own checks, is
printed; the exit status is 1 if there is any, else 0.  Tier-1 runs one
case of each fault kind each way (``TCP_TWINS``); this runs all 147, in a
few seconds.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_runtime import TestSingleFaultSweep  # noqa: E402


def describe(end) -> str:
    errors, alive, log = end
    names = ", ".join(cls.__name__ for cls in errors) or "no error"
    return f"{names}; session {'alive' if alive else 'gone'}; {len(log)} records logged"


def main() -> int:
    sweep = TestSingleFaultSweep()
    bad = 0
    for fault in sweep.SINGLE_FAULTS:
        case = "-".join(map(str, fault))
        with pytest.MonkeyPatch.context() as patch:
            try:
                in_process, over_tcp = sweep._twins(patch, fault)
            except AssertionError as exc:
                print(f"{case}: a check of the sweep failed: {exc}")
                bad += 1
                continue
        if over_tcp != in_process:
            print(f"{case}: in process {describe(in_process)}; over TCP {describe(over_tcp)}")
            bad += 1
    print(f"{len(sweep.SINGLE_FAULTS)} cases, {bad} disagree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
