"""The four benchmark workloads, driven through trctee's public API.

Every workload is one client in a closed loop: the user thread sends its
next command only after the previous reply.  The device answers from its
``serve_in_thread`` thread; TCP sessions add one transient acceptor thread.
Each workload names its unit operation, whose latencies feed the generic
end-to-end metrics, and also keeps named samples (handshake, deploy, ...)
for the detailed report.

Every output is checked: invoke outputs against the reference kernels
below, each deploy's ``Hash(Bin)`` against ``hashlib.sha3_384`` of the
encoded image, every ``verify`` for 24 verified registers, every scenario
file for exit code 0.  A miss counts as a failed operation.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import glob
import hashlib
import io
import os
import random
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from trctee import cli, device, puf, runtime, scenario, transport, ttp
from trctee.crypto import Rng

DEVICE_ID = "dev1"
# Timed set-up samples per measurement, each the mean of a batch of set-ups
# (one set-up takes ~5-12 ms in-process, too short to time alone).  The
# first batch's last world is the one the loop uses; the others are thrown
# away.  The other batches are taken between units of the loop, spread
# evenly over the run (with any left over after it), so that setup_s, their
# median, samples the host across the whole run and not at one moment.
SETUP_SAMPLES = 9
SETUP_BATCH = 4
CRP_POOL = 1024  # CRPs the TTP holds per enrollment or top-up
JOIN_TIMEOUT = 5.0
SOAK_INPUT = 16
SOAK_CRPS = 16  # per session: one handshake plus ~4 automatic rekeys
CHURN_INPUT = 16
CHURN_INVOKES = 4
CHURN_CRPS = 4  # one handshake, one explicit key update, two spare
BULK_CRPS = 64

# Host speed.  The CPU of the shared host this runs on changes speed by tens
# of percent over seconds to minutes (a fixed loop timed in 5 s windows read
# from 19 to 30 ms), and the process's CPU time changes with it; at times
# the hypervisor also withholds the virtual CPU (steal time) for 10-20% of
# wall time, which adds to wall time but not to CPU time.  Raw CPU-bound
# latencies of the same code so differ by up to a quarter between runs.  A
# fixed reference chunk, timed in thread CPU time every SPEED_EVERY_NS
# between units, tracks the speed, and the system's steal counter is read
# with it.  Each operation's busy part (its process CPU time, at most its
# wall time) is rescaled to the speed at which the chunk takes REFERENCE_NS;
# its waiting part (timers, sockets) is kept as measured, less the time
# stolen from the machine while it ran, estimated from the steal rate over
# at least STEAL_WINDOW_NS around it.
REFERENCE_NS = 360_000
SPEED_EVERY_NS = 10_000_000
SPEED_NEIGHBOURS = 6  # reference samples, nearest in time, whose median scales one op
STEAL_WINDOW_NS = 1_000_000_000
_REFERENCE_DATA = bytes(range(256)) * 128
_NS_PER_TICK = 1e9 / os.sysconf("SC_CLK_TCK")

ns = time.perf_counter_ns
cpu_ns = time.process_time_ns


def steal_ns() -> float:
    """Time stolen from all of this machine's virtual CPUs since boot, from
    ``/proc/stat``; 0 where it cannot be read."""
    try:
        with open("/proc/stat", "rb") as fh:
            fields = fh.readline().split()
        return int(fields[8]) * _NS_PER_TICK if fields[0] == b"cpu" else 0.0
    except (OSError, IndexError, ValueError):
        return 0.0


def reference_chunk() -> int:
    """Fixed work of the same kinds as the program's: interpreted bytecode
    and a C hash."""
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc ^ hashlib.sha384(_REFERENCE_DATA).digest()[0]


class HostSpeed:
    """Timed reference chunks and steal readings across a run, and the
    rescaling they give."""

    def __init__(self):
        self.times: list[int] = []
        self.refs: list[int] = []
        self.steal: list[float] = []
        self.spent_ns = self.spent_cpu_ns = 0
        self._last = 0

    def sample(self) -> None:
        c0, t0 = cpu_ns(), ns()
        r0 = time.thread_time_ns()
        reference_chunk()
        r1 = time.thread_time_ns()
        stolen = steal_ns()
        t1 = ns()
        self.times.append((t0 + t1) // 2)
        self.refs.append(r1 - r0)
        self.steal.append(stolen)
        self.spent_ns += t1 - t0
        self.spent_cpu_ns += cpu_ns() - c0
        self._last = t1

    def tick(self) -> None:
        """Sample if the last sample is older than ``SPEED_EVERY_NS``; call
        between operations, never inside a timed one."""
        if ns() - self._last >= SPEED_EVERY_NS:
            self.sample()

    def factor(self, t0: int, t1: int) -> float:
        """Reference speed over host speed around the interval [t0, t1]."""
        if not self.refs:
            return 1.0
        i = bisect.bisect(self.times, (t0 + t1) // 2)
        lo = max(0, i - SPEED_NEIGHBOURS // 2)
        hi = min(len(self.refs), lo + SPEED_NEIGHBOURS)
        lo = max(0, hi - SPEED_NEIGHBOURS)
        return REFERENCE_NS / statistics.median(self.refs[lo:hi])

    def steal_rate(self, t0: int, t1: int) -> float:
        """Stolen time per wall time, between the last sample before and the
        first after [t0, t1] widened to ``STEAL_WINDOW_NS``."""
        mid = (t0 + t1) // 2
        lo = bisect.bisect_right(self.times, min(t0, mid - STEAL_WINDOW_NS // 2)) - 1
        hi = bisect.bisect_left(self.times, max(t1, mid + STEAL_WINDOW_NS // 2))
        lo, hi = max(lo, 0), min(hi, len(self.times) - 1)
        if hi <= lo:
            return 0.0
        return (self.steal[hi] - self.steal[lo]) / (self.times[hi] - self.times[lo])

    def adjust(self, t0: int, wall: int, cpu: int) -> float:
        """Wall time of an operation at the reference speed, less time
        stolen from the machine."""
        busy = min(cpu, wall)
        wait = max(0.0, wall - busy - self.steal_rate(t0, t0 + wall) * wall)
        return wait + busy * self.factor(t0, t0 + wall)


def ref_xor(params: bytes, data: bytes) -> bytes:
    """Reference for the ``xor`` kernel, word-wide rather than per byte."""
    n = len(data)
    return (int.from_bytes(params, "big") ^ int.from_bytes(data, "big")).to_bytes(n, "big")


def ref_add_const(params: bytes, data: bytes) -> bytes:
    """Reference for the ``add_const`` kernel via a translation table."""
    table = bytes((b + params[0]) & 0xFF for b in range(256))
    return data.translate(table)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    soak_invokes: int = 4096
    bulk_bytes: int = 256 * 1024
    bulk_inputs: int = 4


@dataclass
class Measurement:
    """Everything one workload run observed."""

    workload: str
    op: str
    tail_q: float
    setup_s: list[float] = field(default_factory=list)
    setup_raw_s: list[float] = field(default_factory=list)
    op_ns: list[int] = field(default_factory=list)
    op_start: list[int] = field(default_factory=list)
    op_cpu: list[int] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    samples: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    session_invokes: list[list[int]] = field(default_factory=list)
    scenario_ns: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    payload_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add_op(self, t0: int, wall: int, cpu: int) -> None:
        self.op_start.append(t0)
        self.op_ns.append(wall)
        self.op_cpu.append(cpu)

    def adjusted_op_ns(self) -> list[float]:
        """Unit-op latencies at the reference host speed."""
        return [
            self.speed.adjust(t0, wall, cpu)
            for t0, wall, cpu in zip(self.op_start, self.op_ns, self.op_cpu)
        ]

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


class World:
    """TTP, one enrolled and booted device, and (for TCP) a listening socket."""

    def __init__(self, tag: str, tcp: bool):
        self.tag = tag
        self.rng = Rng(tag.encode())
        self.ttp = ttp.TtpService(rng=self.rng.child("ttp"), enroll_crps=CRP_POOL)
        self._puf = puf.PufDevice(self.rng.child("puf").bytes(32))
        image = device.BootImage.synthetic(DEVICE_ID, self.ttp.pk_ttp)
        record = self.ttp.enroll_device(DEVICE_ID, self._puf, image)
        self._pool = record.crp_store
        self._issued = record.crp_store.challenges()
        self._topups = 0
        self.device = device.FpgaSocDevice(
            device_id=DEVICE_ID, puf=self._puf, boot_image=image, rng=self.rng.child("device")
        )
        self.device.boot()
        self.server = transport.listen("127.0.0.1", 0) if tcp else None
        self.users = 0

    def ensure_crps(self, n: int) -> None:
        """Top the TTP's pool up with fresh CRPs; call between sessions."""
        while len(self._pool) < n:
            self._topups += 1
            fresh = puf.enroll(self._puf, CRP_POOL, self.rng.child(f"topup-{self._topups}"))
            for record in fresh.records():
                if record.challenge not in self._issued:
                    self._issued.add(record.challenge)
                    self._pool.add(record)

    def onboard(self, crps: int) -> runtime.UserNode:
        """TTP registration, vTPM enrollment and provisioning of a fresh user."""
        self.users += 1
        user_id = f"{self.tag}-u{self.users}"
        self.ttp.register_user(user_id)
        bundle = self.ttp.enroll_vtpm(user_id)
        device_id, manifest, crp_slice = self.ttp.provision_user(user_id, DEVICE_ID, crps)
        return runtime.UserNode(
            bundle=bundle,
            device_id=device_id,
            golden_manifest=manifest,
            crp_store=crp_slice,
            rng=self.rng.child(user_id),
        )

    def attach(self):
        """Open one session's transport and start the device serving it."""
        if self.server is None:
            user_side, device_side = transport.pipe_pair()
        else:
            accepted = []
            acceptor = threading.Thread(
                target=lambda: accepted.append(transport.accept_one(self.server, JOIN_TIMEOUT)),
                name="acceptor",
            )
            acceptor.start()
            user_side = transport.connect("127.0.0.1", self.server.getsockname()[1])
            acceptor.join(JOIN_TIMEOUT)
            if not accepted:
                user_side.close()
                raise transport.ConnectError("loopback accept did not complete")
            device_side = accepted[0]
        return user_side, device.serve_in_thread(self.device, device_side)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


def _finish(user: runtime.UserNode, thread: threading.Thread, m: Measurement) -> None:
    user.close()
    thread.join(JOIN_TIMEOUT)
    m.check(not thread.is_alive(), "device thread did not end after close")


def _deploy(user, ip_num: int, image: device.IpImage, m: Measurement) -> None:
    t0 = ns()
    ticket = user.prepare_deploy(ip_num, image)
    response, verdict = user.user_deploy(ticket)
    m.samples["deploy"].append(ns() - t0)
    m.check(
        response.response_code == 0
        and verdict == "Verified"
        and response.bin_hash == hashlib.sha3_384(image.encode()).digest(),
        f"deploy of ip {ip_num} returned a wrong Hash(Bin)",
    )


def _verify(user, m: Measurement) -> None:
    t0 = ns()
    report = user.verify()
    m.samples["verify"].append(ns() - t0)
    m.check(
        len(report.registers) == 24 and report.all_verified,
        f"verify mismatched PCRs {report.mismatched_indices()}",
    )


def _invoke(user, ip_num: int, data: bytes, expected: bytes, m: Measurement):
    """One checked invoke; returns its start, wall time and process CPU time."""
    c0, t0 = cpu_ns(), ns()
    output, record = user.user_invoke(ip_num, data)
    elapsed, cpu = ns() - t0, cpu_ns() - c0
    m.check(output == expected and record.verdict == "Verified", f"invoke of ip {ip_num} output")
    return t0, elapsed, cpu


class LoopClock:
    """Wall and CPU time of a measured loop, less the pauses taken between
    its units for ``between`` (the throwaway set-ups) and for host-speed
    samples."""

    def __init__(self, seconds: float, m: Measurement, between=None):
        self.seconds = seconds
        self.between = between
        self.speed = m.speed
        self.done = 0
        self.paused = self.paused_cpu = 0.0
        self.speed0 = (m.speed.spent_ns, m.speed.spent_cpu_ns)
        self.start, self.cpu0 = time.perf_counter(), time.process_time()

    def another(self) -> bool:
        """Count a finished unit; say whether the next one, at the mean unit
        time so far, still ends within ``seconds``."""
        self.done += 1
        self.speed.tick()
        elapsed = time.perf_counter() - self.start - self.paused
        if elapsed * (self.done + 1) / self.done > self.seconds:
            return False
        if self.between is not None:
            # Speed samples taken inside ``between`` are left to ``stop``.
            s0, sc0 = self.speed.spent_ns, self.speed.spent_cpu_ns
            t0, c0 = time.perf_counter(), time.process_time()
            self.between()
            self.paused += time.perf_counter() - t0 - (self.speed.spent_ns - s0) / 1e9
            self.paused_cpu += time.process_time() - c0 - (self.speed.spent_cpu_ns - sc0) / 1e9
        return True

    def stop(self, m: Measurement) -> None:
        speed_s = (self.speed.spent_ns - self.speed0[0]) / 1e9
        speed_cpu_s = (self.speed.spent_cpu_ns - self.speed0[1]) / 1e9
        m.wall_s = time.perf_counter() - self.start - self.paused - speed_s
        m.cpu_s = time.process_time() - self.cpu0 - self.paused_cpu - speed_cpu_s


def _warm_up(world: World) -> None:
    """One short untimed session, so first-call costs stay out of the loop."""
    world.ensure_crps(2)
    user = world.onboard(2)
    user_side, thread = world.attach()
    user.connect(user_side)
    params = bytes(16)
    ticket = user.prepare_deploy(1, device.IpImage("xor", params))
    user.user_deploy(ticket)
    user.user_invoke(1, bytes(16))
    user.close()
    thread.join(JOIN_TIMEOUT)


class Workload:
    """One named workload: set-up of a world, then a closed measured loop."""

    name = ""
    transport = ""
    op = ""
    tail_q = 0.99

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def measurement(self) -> Measurement:
        return Measurement(self.name, self.op, self.tail_q)

    def setup(self, index: int):
        world = World(f"{self.name}-s{self.seed}-w{index}", tcp=self.transport == "tcp")
        _warm_up(world)
        return world

    def close(self, world) -> None:
        world.close()

    def loop(self, world, seconds: float, m: Measurement, between=None) -> None:
        """Run whole units of work while the next one, at the mean unit time so
        far, still ends within ``seconds``; always at least one.  ``between``
        is called, untimed, between units."""
        clock = LoopClock(seconds, m, between)
        while True:
            unit = clock.done
            try:
                self.unit(world, unit, m)
            except Exception as exc:  # one broken session must not hide the others
                m.check(False, f"{self.name} unit {unit}: {type(exc).__name__}: {exc}")
            if not clock.another():
                break
        clock.stop(m)

    def unit(self, world, index: int, m: Measurement) -> None:
        raise NotImplementedError

    def input_size(self) -> str:
        raise NotImplementedError


class Soak(Workload):
    """In-process pipe, whole sessions of ~4k back-to-back 16-byte invokes."""

    name, transport, op, tail_q = "soak", "inproc", "invoke", 0.95

    def input_size(self) -> str:
        return f"{SOAK_INPUT} B inputs, {self.sizes.soak_invokes} invokes per session"

    def unit(self, world: World, index: int, m: Measurement) -> None:
        count = self.sizes.soak_invokes
        rnd = random.Random(f"soak/{self.seed}/{index}")
        params = rnd.randbytes(SOAK_INPUT)
        inputs = rnd.randbytes(SOAK_INPUT * count)
        world.ensure_crps(SOAK_CRPS)
        user = world.onboard(SOAK_CRPS)
        user_side, thread = world.attach()
        try:
            t0 = ns()
            user.connect(user_side)
            m.samples["handshake"].append(ns() - t0)
            _deploy(user, 1, device.IpImage("xor", params), m)
            latencies = []
            for i in range(count):
                data = inputs[i * SOAK_INPUT : (i + 1) * SOAK_INPUT]
                t0, elapsed, cpu = _invoke(user, 1, data, ref_xor(params, data), m)
                m.add_op(t0, elapsed, cpu)
                latencies.append(elapsed)
                m.speed.tick()
            m.session_invokes.append(latencies)
            m.samples["invoke"].extend(latencies)
            _verify(user, m)
        finally:
            _finish(user, thread, m)


class Churn(Workload):
    """TCP loopback, back-to-back short sessions, each onboarding a fresh user."""

    name, transport, op, tail_q = "churn", "tcp", "session", 0.95

    def input_size(self) -> str:
        return f"{CHURN_INPUT} B inputs, {CHURN_INVOKES} invokes per session"

    def unit(self, world: World, index: int, m: Measurement) -> None:
        rnd = random.Random(f"churn/{self.seed}/{index}")
        params = rnd.randbytes(CHURN_INPUT)
        world.ensure_crps(CHURN_CRPS)
        c_session, t_session = cpu_ns(), ns()
        user = world.onboard(CHURN_CRPS)
        user_side, thread = world.attach()
        try:
            t0 = ns()
            user.connect(user_side)
            m.samples["handshake"].append(ns() - t0)
            _deploy(user, 1, device.IpImage("xor", params), m)
            for _ in range(CHURN_INVOKES):
                data = rnd.randbytes(CHURN_INPUT)
                m.samples["invoke"].append(_invoke(user, 1, data, ref_xor(params, data), m)[1])
            t0 = ns()
            rc = user.update_key()
            m.samples["update_key"].append(ns() - t0)
            m.check(rc == 0 and user.endpoint.session.epoch == 1, "explicit key update")
            _verify(user, m)
        finally:
            _finish(user, thread, m)
        m.add_op(t_session, ns() - t_session, cpu_ns() - c_session)


class Bulk(Workload):
    """TCP loopback, one session alternating 256 KiB invokes on two kernels."""

    name, transport, op, tail_q = "bulk", "tcp", "invoke", 0.95

    def input_size(self) -> str:
        return f"{self.sizes.bulk_bytes} B inputs"

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        # Inputs and their reference outputs are made once, outside set-up.
        rnd = random.Random(f"bulk/{seed}")
        self.xor_params = rnd.randbytes(sizes.bulk_bytes)
        self.add_params = bytes([1 + rnd.randrange(255)])
        self.inputs = [rnd.randbytes(sizes.bulk_bytes) for _ in range(sizes.bulk_inputs)]
        self.expected = [
            (ref_xor(self.xor_params, data), ref_add_const(self.add_params, data))
            for data in self.inputs
        ]

    def loop(self, world, seconds: float, m: Measurement, between=None) -> None:
        # The whole run is one session, so the loop's unit is one invoke.
        world.ensure_crps(BULK_CRPS)
        user = world.onboard(BULK_CRPS)
        user_side, thread = world.attach()
        clock = LoopClock(seconds, m, between)
        try:
            t0 = ns()
            user.connect(user_side)
            m.samples["handshake"].append(ns() - t0)
            _deploy(user, 1, device.IpImage("xor", self.xor_params), m)
            _deploy(user, 2, device.IpImage("add_const", self.add_params), m)
            while True:
                i = clock.done
                ip_num = 1 + i % 2
                k = (i // 2) % len(self.inputs)
                data = self.inputs[k]
                t0, elapsed, cpu = _invoke(user, ip_num, data, self.expected[k][ip_num - 1], m)
                m.add_op(t0, elapsed, cpu)
                m.samples["invoke"].append(elapsed)
                m.payload_bytes += len(data)
                if not clock.another():
                    break
            _verify(user, m)
        except Exception as exc:
            m.check(False, f"bulk session: {type(exc).__name__}: {exc}")
        finally:
            _finish(user, thread, m)
        clock.stop(m)


class Adversary(Workload):
    """The checked-in scenario files, each run through the CLI in-process."""

    # The unit is one pass over all files: two of them wait out 2 s receive
    # timeouts, so per-file latencies form two clusters and their median is
    # unstable, while a pass is not.  The tail is the slowest pass.
    name, transport, op, tail_q = "adversary", "inproc", "suite", 1.0

    def input_size(self) -> str:
        return f"{len(self.files)} scenario files per pass"

    def __init__(self, seed: int, sizes: Sizes, scenario_dir: str):
        super().__init__(seed, sizes)
        self.files = sorted(glob.glob(os.path.join(scenario_dir, "*.txt")))
        if not self.files:
            raise FileNotFoundError(f"no scenario files under {scenario_dir}")

    def _run_file(self, path: str, seed: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--seed", str(seed), "run", path])

    def setup(self, index: int):
        for path in self.files:
            scenario.load_scenario(path)
        baseline = [p for p in self.files if os.path.basename(p) == "baseline.txt"]
        self._run_file((baseline or self.files)[0], self.seed)
        return None

    def close(self, world) -> None:
        pass

    def unit(self, world, index: int, m: Measurement) -> None:
        pass_cpu, pass_start = cpu_ns(), ns()
        for k, path in enumerate(self.files):
            stem = os.path.splitext(os.path.basename(path))[0]
            t0 = ns()
            rc = self._run_file(path, self.seed * 1000 + index * len(self.files) + k)
            elapsed = ns() - t0
            m.check(rc == 0, f"scenario {stem} exited {rc}")
            m.scenario_ns[stem].append(elapsed)
        m.add_op(pass_start, ns() - pass_start, cpu_ns() - pass_cpu)


WORKLOADS = ("soak", "churn", "bulk", "adversary")


def make(name: str, seed: int, sizes: Sizes, root: str) -> Workload:
    if name == "soak":
        return Soak(seed, sizes)
    if name == "churn":
        return Churn(seed, sizes)
    if name == "bulk":
        return Bulk(seed, sizes)
    if name == "adversary":
        return Adversary(seed, sizes, os.path.join(root, "scenarios"))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _timed_setup(workload: Workload, m: Measurement):
    """Build a batch of worlds, add their mean build time at the reference
    host speed to ``setup_s`` (and as measured to ``setup_raw_s``), close
    all but the last and return it.  Each batch starts from a collected
    heap, so that a collection of what the loop left behind is not timed."""
    gc.collect()
    for _ in range(SPEED_NEIGHBOURS // 2):
        m.speed.sample()
    world, timed = None, []
    for k in range(SETUP_BATCH):
        if world is not None:
            workload.close(world)
        c0, t0 = cpu_ns(), ns()
        world = workload.setup(len(m.setup_s) * SETUP_BATCH + k)
        timed.append((t0, ns() - t0, cpu_ns() - c0))
    for _ in range(SPEED_NEIGHBOURS // 2):
        m.speed.sample()
    m.setup_s.append(sum(m.speed.adjust(*t) for t in timed) / SETUP_BATCH / 1e9)
    m.setup_raw_s.append(sum(wall for _, wall, _ in timed) / SETUP_BATCH / 1e9)
    return world


def measure(workload: Workload, seconds: float) -> Measurement:
    """One measured loop of ``seconds``, with ``SETUP_SAMPLES`` timed set-up
    batches: the one that builds the loop's world, then throwaway ones spread
    over the loop and after it."""
    m = workload.measurement()
    interval = seconds / (SETUP_SAMPLES - 1)

    def spare() -> None:
        workload.close(_timed_setup(workload, m))

    def between() -> None:
        nonlocal last
        if len(m.setup_s) < SETUP_SAMPLES and time.perf_counter() - last >= interval:
            spare()
            last = time.perf_counter()

    world = _timed_setup(workload, m)
    last = time.perf_counter()
    try:
        workload.loop(world, seconds, m, between)
    finally:
        workload.close(world)
    while len(m.setup_s) < SETUP_SAMPLES:
        spare()
    return m
