"""List the executable lines of ``src/trctee`` that the tier-1 tests never run.

    PYTHONPATH=src python3 tools/reach.py [pytest arguments, default: tests]

Runs pytest in this process under a ``sys.settrace`` line collector (and
``threading.settrace`` for the threads the tests start; a child process is
not seen), then prints each unreached line that ``tools/reach_allow.txt``
does not exempt.  That file names an exempt line by module and source text,
not by line number, which moves, and gives the reason it stays unreached.
An entry that matches no unreached line is printed too.  Stdlib and pytest
only; the whole suite takes under a minute under the collector.  The exit
status is pytest's when the tests fail, else 1 when a line is printed.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trctee"
PREFIX = f"{SRC}{os.sep}"
ALLOW = Path(__file__).resolve().parent / "reach_allow.txt"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold bytecode, in every code object it compiles to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # A function's first instruction sits on its ``def`` line and fires no line event.
        first = None if code.co_name == "<module>" else code.co_firstlineno
        lines.update(no for _, _, no in code.co_lines() if no and no != first)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def read_allowlist() -> dict[tuple[str, str], str]:
    """``(module, source text) -> reason`` from lines of ``module | text | reason``."""
    allowed = {}
    for line in ALLOW.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            module, text, reason = (part.strip() for part in line.split(" | "))
            allowed[module, text] = reason
    return allowed


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
    allowed, exempted, missed = read_allowlist(), set(), []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for no in sorted(executable_lines(path)):
            if (str(path), no) in reached:
                continue
            key = (path.name, source[no - 1].strip())
            if key in allowed:
                exempted.add(key)
            else:
                missed.append(f"{path.name}:{no}: {key[1]}")
    stale = [f"{module} | {text}" for module, text in allowed if (module, text) not in exempted]
    for entry in missed:
        print(entry)
    for entry in stale:
        print(f"allowlisted but reached or gone: {entry}")
    print(f"{len(missed)} lines not reached, {len(exempted)} allowlisted")
    return int(status) or int(bool(missed or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
