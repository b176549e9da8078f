"""Outside-in span tracing of trctee, done entirely from the benchmark.

``Tracer.install`` replaces public functions and methods of the trctee
modules with timing wrappers; ``uninstall`` puts the originals back.  This
works without touching ``src/`` because the program looks these names up
at call time: ``ChannelEndpoint.send`` calls the module-level ``seal``, the
device calls ``channel.open_frame`` and ``KERNELS[kernel_id]``, the runtime
calls ``wire.encode`` and ``vtpm.parse_log``.  Private helpers and the
``crypto`` functions imported by name are not wrapped, so their cost lands
in their caller's self time.

Each span records its name, start, end, same-thread parent (from a
per-thread stack), session id and, on the device thread, a link to the user
request that caused it.  The link is found through the sealed frame's
``(epoch, counter)``: the user-side ``seal`` remembers which request sealed
each frame, and the device-side ``open_frame`` looks the header up.  One
client runs at a time, so the session id is simply the number of
``UserNode.connect`` calls so far.

Spans live in per-thread columns (``array``), so two threads never append
to the same list and a span costs a few dozen bytes.
"""

from __future__ import annotations

import gzip
import json
import struct
import threading
import time
from array import array
from collections import defaultdict

_FRAME_HEAD = struct.Struct(">IQ")  # epoch, counter: the first 12 bytes of a sealed frame


class _ThreadLog:
    """Span columns and the open-span stack of one thread."""

    __slots__ = (
        "index", "label", "device", "link_now", "stack",
        "name", "start", "end", "parent", "session", "link", "items", "failed",
    )

    def __init__(self, index: int, label: str):
        self.index = index
        self.label = label
        self.device = False
        self.link_now = -1
        self.stack: list[int] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.session = array("i")
        self.link = array("q")
        self.items = array("q")
        self.failed = array("i")  # 0, or 1 + the name id of the exception raised


def self_times(start, end, parent, thread) -> list[int]:
    """Duration of each span minus the union of its same-thread children.

    ``parent[i]`` is the index of span ``i``'s parent or -1.  A child that
    ran on another thread overlaps its parent in time without taking time
    from it, so it is not subtracted.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0 and thread[p] == thread[i]:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        reach, covered = lo, 0
        for k in sorted(kids, key=start.__getitem__):
            s, e = max(start[k], reach), min(end[k], hi)
            if e > s:
                covered += e - s
            reach = max(reach, e)
        out[p] -= covered
    return out


class SpanTable:
    """All spans of one traced run, as global columns."""

    def __init__(self, names: list[str], logs: list[_ThreadLog]):
        self.names = names
        self.threads = [(log.label, log.device) for log in logs]
        self.name: list[int] = []
        self.thread: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.session: list[int] = []
        self.link: list[int] = []
        self.items: list[int] = []
        self.failed: list[int] = []
        offsets = {}
        total = 0
        for log in logs:
            offsets[log.index] = total
            total += len(log.start)
        for log in logs:
            base = offsets[log.index]
            n = len(log.start)
            self.name.extend(log.name)
            self.thread.extend([log.index] * n)
            self.start.extend(log.start)
            self.end.extend(log.end)
            self.parent.extend(p + base if p >= 0 else -1 for p in log.parent)
            self.session.extend(log.session)
            self.link.extend(
                offsets[ln >> 32] + (ln & 0xFFFFFFFF) if ln >= 0 else -1 for ln in log.link
            )
            self.items.extend(log.items)
            self.failed.extend(log.failed)
        self.self_ns = self_times(self.start, self.end, self.parent, self.thread)

    def __len__(self) -> int:
        return len(self.start)

    def by_name(self) -> dict[str, dict[str, int]]:
        """Per span name: calls (also those on device threads), total and self
        nanoseconds, items, failures."""
        agg: dict[str, dict[str, int]] = {}
        for i, name_id in enumerate(self.name):
            row = agg.get(self.names[name_id])
            if row is None:
                row = agg[self.names[name_id]] = {
                    "calls": 0, "device_calls": 0, "total_ns": 0, "self_ns": 0,
                    "items": 0, "failed": 0,
                }
            row["calls"] += 1
            row["device_calls"] += self.threads[self.thread[i]][1]
            row["total_ns"] += self.end[i] - self.start[i]
            row["self_ns"] += self.self_ns[i]
            row["items"] += self.items[i]
            row["failed"] += self.failed[i] > 0
        return agg

    def exceptions(self, span: str) -> dict[str, int]:
        """How often each exception class ended a span called ``span``."""
        counts: dict[str, int] = defaultdict(int)
        if span in self.names:
            want = self.names.index(span)
            for i, name_id in enumerate(self.name):
                if name_id == want and self.failed[i]:
                    counts[self.names[self.failed[i] - 1]] += 1
        return counts

    def self_by_side(self) -> dict[str, dict[str, int]]:
        """Self nanoseconds per span name, split into user and device threads."""
        out: dict[str, dict[str, int]] = {"user": defaultdict(int), "device": defaultdict(int)}
        for i, name_id in enumerate(self.name):
            side = "device" if self.threads[self.thread[i]][1] else "user"
            out[side][self.names[name_id]] += self.self_ns[i]
        return out

    def device_busy_by_cause(self) -> dict[str, int]:
        """Device-thread self time outside receive waits, summed per name of
        the user request span it is linked to ("unlinked" when none)."""
        out: dict[str, int] = defaultdict(int)
        for i, name_id in enumerate(self.name):
            if not self.threads[self.thread[i]][1] or self.names[name_id].endswith(".recv_record"):
                continue
            cause = self.link[i]
            out[self.names[self.name[cause]] if cause >= 0 else "unlinked"] += self.self_ns[i]
        return out

    def descendant_total(self, ancestor: str, descendant: str) -> tuple[int, int]:
        """(summed duration of ``ancestor`` spans, summed duration of their
        ``descendant`` spans), following same-thread parents."""
        want_a = self.names.index(ancestor) if ancestor in self.names else -1
        want_d = self.names.index(descendant) if descendant in self.names else -1
        a_total = sum(
            self.end[i] - self.start[i] for i, n in enumerate(self.name) if n == want_a
        )
        d_total = 0
        for i, n in enumerate(self.name):
            if n != want_d:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name[p] == want_a:
                    d_total += self.end[i] - self.start[i]
                    break
                p = self.parent[p]
        return a_total, d_total

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed JSON columns."""
        doc = {
            "names": self.names,
            "threads": [{"label": label, "device": dev} for label, dev in self.threads],
            "columns": {
                "name": self.name, "thread": self.thread, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, "session": self.session,
                "link": self.link, "items": self.items, "failed": self.failed,
                "self_ns": self.self_ns,
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class Tracer:
    """Installs timing wrappers on trctee and collects their spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._kernels: dict | None = None
        self.session = 0
        self.frame_cause: dict[tuple[int, int], int] = {}
        self.crp_stores: list = []

    # -- span recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _exception_id(self, exc: BaseException) -> int:
        with self._lock:
            return 1 + self._name(type(exc).__name__)

    def _log(self) -> _ThreadLog:
        log = self._local.__dict__.get("log")
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs), threading.current_thread().name)
                self._logs.append(log)
            self._local.log = log
        return log

    def _wrap(self, fn, name: str, device_name: str | None = None, pre=None, post=None):
        user_id = self._name(name)
        device_id = self._name(device_name) if device_name else user_id
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            log = tracer._local.__dict__.get("log") or tracer._log()
            if pre is not None:
                pre(log, args)
            idx = len(log.start)
            stack = log.stack
            log.name.append(device_id if log.device else user_id)
            log.parent.append(stack[-1] if stack else -1)
            log.session.append(tracer.session)
            log.link.append(log.link_now if log.device else -1)
            log.items.append(0)
            log.failed.append(0)
            log.end.append(0)
            stack.append(idx)
            log.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                log.failed[idx] = tracer._exception_id(exc)
                raise
            finally:
                log.end[idx] = clock()
                stack.pop()
            if post is not None:
                post(log, idx, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, **hooks))

    # -- hooks --------------------------------------------------------------------

    def _new_session(self, log, args) -> None:
        self.session += 1
        self.frame_cause.clear()
        self.crp_stores.append(args[0].crp_store)

    @staticmethod
    def _mark_device(log, args) -> None:
        log.device = True

    def _after_seal(self, log, idx, args, frame) -> None:
        log.items[idx] = len(args[1])
        if not log.device:
            root = log.stack[0] if log.stack else idx
            self.frame_cause[(frame.epoch, frame.counter)] = (log.index << 32) | root

    def _before_open(self, log, args) -> None:
        record = args[1]
        if log.device and isinstance(record, (bytes, bytearray)) and len(record) >= 12:
            key = _FRAME_HEAD.unpack_from(record)
            log.link_now = self.frame_cause.get(key, -1)

    @staticmethod
    def _bytes_arg(position: int):
        def post(log, idx, args, result):
            data = args[position]
            if not isinstance(data, (bytes, bytearray)):
                data = data.ciphertext  # an already decoded channel Frame
            log.items[idx] = len(data)
        return post

    @staticmethod
    def _bytes_result(log, idx, args, result) -> None:
        log.items[idx] = len(result)

    @staticmethod
    def _count_lines(log, idx, args, result) -> None:
        log.items[idx] = result.count("\n")

    @staticmethod
    def _count_unmet(log, idx, args, report) -> None:
        log.items[idx] = sum(1 for r in report.results if not r.met)

    # -- install / uninstall ---------------------------------------------------------

    def install(self) -> None:
        from trctee import (
            channel, cli, device, messages, puf, runtime, scenario, transport, ttp, vtpm, wire,
        )

        p = self._patch
        for attr in ("encode", "decode", "decode_response"):
            p(wire, attr, f"wire.{attr}")
        for attr in sorted(vars(messages)):
            if attr.startswith(("encode_", "decode_")) and callable(getattr(messages, attr)):
                p(messages, attr, f"messages.{attr}")

        p(channel, "seal", "channel.seal", post=self._after_seal)
        p(channel, "open_frame", "channel.open_frame",
          pre=self._before_open, post=self._bytes_arg(1))
        p(channel.VtpmHandshake, "start", "channel.handshake")
        p(channel.VtpmHandshake, "on_message", "channel.handshake")
        p(channel.DeviceHandshake, "on_message", "channel.handshake")
        p(channel, "initiate_update", "channel.initiate_update")
        p(channel, "respond_update", "channel.respond_update")

        for cls in (transport.InProcTransport, transport.TcpTransport):
            p(cls, "send_record", "transport.user.send_record",
              device_name="transport.device.send_record", post=self._bytes_arg(1))
            p(cls, "recv_record", "transport.user.recv_record",
              device_name="transport.device.recv_record", post=self._bytes_result)
        p(transport, "connect", "transport.connect")
        p(transport, "accept_one", "transport.accept_one")

        p(vtpm.Vtpm, "dispatch", "vtpm.dispatch")
        p(vtpm.Vtpm, "pcr_extend", "vtpm.pcr_extend")
        p(vtpm, "export_log", "vtpm.export_log", post=self._count_lines)
        p(vtpm, "parse_log", "vtpm.parse_log")
        p(vtpm, "replay_log", "vtpm.replay_log")

        p(device.Tmm, "deploy", "device.tmm.deploy")
        p(device.Tmm, "invoke", "device.tmm.invoke")
        p(device.FileStore, "put", "device.file_store.put", post=self._bytes_arg(2))
        p(device.FpgaSocDevice, "boot", "device.boot")
        p(device.FpgaSocDevice, "serve", "device.serve", pre=self._mark_device)
        self._kernels = dict(device.KERNELS)
        for kernel_id, fn in self._kernels.items():
            device.KERNELS[kernel_id] = self._wrap(
                fn, f"device.kernel.{kernel_id}", post=self._bytes_arg(1)
            )

        p(runtime.UserNode, "connect", "runtime.connect", pre=self._new_session)
        for attr in ("prepare_deploy", "user_deploy", "user_invoke", "update_key", "verify"):
            p(runtime.UserNode, attr, f"runtime.{attr}")
        p(runtime, "verify_attestation", "runtime.verify_attestation")

        p(puf.PufDevice, "respond", "puf.respond")
        p(puf.CrpStore, "take_unused", "puf.crp.take")
        p(puf.CrpStore, "take", "puf.crp.take")

        for attr in ("enroll_device", "enroll_vtpm", "provision_user", "register_user"):
            p(ttp.TtpService, attr, f"ttp.{attr}")
        p(ttp.Certificate, "verify", "ttp.cert_verify")

        p(scenario.ScenarioRunner, "run", "scenario.run", post=self._count_unmet)
        p(cli, "main", "cli.main")

    def uninstall(self) -> None:
        from trctee import device

        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._kernels is not None:
            device.KERNELS.update(self._kernels)
            self._kernels = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def table(self) -> SpanTable:
        with self._lock:
            logs = list(self._logs)
        return SpanTable(list(self.names), logs)
