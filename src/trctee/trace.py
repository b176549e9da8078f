"""Append-only telemetry trace of one world's protocol events.

The user node and the device emit into a shared trace; the scenario runner
attributes a failed step to the first error traced during it.  This is
telemetry for operators, separate from the vTPM's TCG event log, which is
the verifier's evidence.  Nothing waits on it: the device traces an error
before it sends the abort record that names it, so a reader that has
received the abort finds the error already here.
"""

from __future__ import annotations

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

    def emit(self, actor: str, kind: str, error: Exception | None = None) -> None:
        self.events.append(Event(time.monotonic_ns(), actor, kind, error))

    def first(self, kind: str, start: int = 0) -> Event | None:
        """The first ``kind`` event at index ``start`` or later."""
        return next((e for e in self.events[start:] if e.kind == kind), None)

    def first_error(self, start: int = 0) -> Exception | None:
        event = self.first("error", start)
        return event.error if event else None
