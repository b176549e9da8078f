"""List the ``raise`` lines of ``src/trctee`` that the tier-1 tests never run.

    PYTHONPATH=src python3 tools/reach.py [pytest arguments, default: tests]

Runs pytest in this process under a ``sys.settrace`` line collector (and
``threading.settrace`` for the threads the tests start; a child process is
not seen), then prints each module's unreached ``raise`` lines.  Stdlib and
pytest only; the whole suite takes about a minute under the collector.  The
exit status is pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trctee"
PREFIX = f"{SRC}{os.sep}"


def main(args: list[str]) -> int:
    reached: set[tuple[str, int]] = set()

    def line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(PREFIX) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        raises = sorted({n.lineno for n in ast.walk(tree) if isinstance(n, ast.Raise)})
        missed = [no for no in raises if (str(path), no) not in reached]
        total += len(missed)
        if missed:
            print(f"{path.name}: {', '.join(map(str, missed))}")
    print(f"{total} raise lines not reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
