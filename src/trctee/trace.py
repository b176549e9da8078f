"""Append-only telemetry trace of one world's protocol events.

The user node and the device emit into a shared trace; the scenario runner
attributes a failed step to the first error traced during it.  This is
telemetry for operators, separate from the vTPM's TCG event log, which is
the verifier's evidence.

Emits and reads share one ``threading.Condition`` because the reader may
have to wait for another thread.  Over TCP the device serves on its own
thread, and the scenario runner's ``agent-deploy`` step waits up to 1 s in
``first(timeout=)`` for it to trace its rejection of a forged frame: the
device never answers that frame, so no reply can say when to look.  In
process the device runs on the caller's thread and the wait returns at once.
"""

from __future__ import annotations

import threading
import time
from typing import NamedTuple


class Event(NamedTuple):
    t_ns: int
    actor: str  # "user" | "device"
    kind: str  # "error" | "rekey"
    error: Exception | None = None


class Trace:
    def __init__(self) -> None:
        self.events: list[Event] = []
        self._changed = threading.Condition()

    def emit(self, actor: str, kind: str, error: Exception | None = None) -> None:
        with self._changed:
            self.events.append(Event(time.monotonic_ns(), actor, kind, error))
            self._changed.notify_all()

    def first(self, kind: str, start: int = 0, timeout: float = 0.0) -> Event | None:
        """The first ``kind`` event at index ``start`` or later, waiting up to
        ``timeout`` seconds for one to be emitted."""
        with self._changed:
            return self._changed.wait_for(
                lambda: next((e for e in self.events[start:] if e.kind == kind), None),
                timeout,
            )

    def first_error(self, start: int = 0, timeout: float = 0.0) -> Exception | None:
        event = self.first("error", start, timeout)
        return event.error if event else None
