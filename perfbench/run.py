"""trctee benchmark: one closed-loop workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload soak --seed 1 --seconds 15 --trace 0

Workloads: ``soak``, ``churn``, ``bulk``, ``adversary`` (see ``harness``
and ``README.md``).  With ``--trace 0`` the run measures with tracing off
and reports the end-to-end metrics; with ``--trace 1`` it measures half
the time untraced and half traced, and reports the per-layer metrics; the
tracing overhead is printed among the ``layer`` lines.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
is imported from ``src/`` of the checkout this file sits in; the run exits
2 without a result if that tree is missing.  A summary (and, when traced,
every span) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# (name, unit, better); the order is the report's.  Every workload reports
# every one of these, measured on its own unit operation (``harness``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics of the result line: those that read above 0 on every
# workload.  The traced run computes more (per kernel, per scenario file,
# key updates, failures and timeouts, which are 0 on some workloads, and the
# tracing overhead, which can be negative); those are printed as ``layer``
# lines and written to the summary but are not part of the result line.
PER_LAYER = (
    ("runtime.user_invoke.calls", "count", "higher"),
    ("runtime.user_invoke.self_ms", "ms", "lower"),
    ("runtime.connect.self_ms", "ms", "lower"),
    ("runtime.prepare_deploy.self_ms", "ms", "lower"),
    ("runtime.user_deploy.self_ms", "ms", "lower"),
    ("runtime.verify_attestation.self_ms", "ms", "lower"),
    ("vtpm.dispatch.calls", "count", "higher"),
    ("vtpm.dispatch.self_ms", "ms", "lower"),
    ("vtpm.pcr_extend.calls", "count", "higher"),
    ("vtpm.pcr_extend.self_ms", "ms", "lower"),
    ("vtpm.log_events", "count", "lower"),
    ("vtpm.export_log.self_ms", "ms", "lower"),
    ("vtpm.parse_log.self_ms", "ms", "lower"),
    ("vtpm.replay_log.self_ms", "ms", "lower"),
    ("wire.encode.calls", "count", "higher"),
    ("wire.encode.self_ms", "ms", "lower"),
    ("wire.decode.calls", "count", "higher"),
    ("wire.decode.self_ms", "ms", "lower"),
    ("wire.decode_response.self_ms", "ms", "lower"),
    ("messages.encode.calls", "count", "higher"),
    ("messages.encode.self_ms", "ms", "lower"),
    ("messages.decode.calls", "count", "higher"),
    ("messages.decode.self_ms", "ms", "lower"),
    ("channel.seal.calls", "count", "higher"),
    ("channel.seal.bytes", "B", "higher"),
    ("channel.seal.self_ms", "ms", "lower"),
    ("channel.open_frame.calls", "count", "higher"),
    ("channel.open_frame.bytes", "B", "higher"),
    ("channel.open_frame.self_ms", "ms", "lower"),
    ("channel.frame_efficiency", "ratio", "higher"),
    ("channel.handshake.self_ms", "ms", "lower"),
    ("transport.user.send_record.calls", "count", "higher"),
    ("transport.user.send_record.bytes", "B", "higher"),
    ("transport.user.send_record.self_ms", "ms", "lower"),
    ("transport.user.recv_record.wait_ms", "ms", "lower"),
    ("transport.device.send_record.self_ms", "ms", "lower"),
    ("transport.device.recv_record.wait_ms", "ms", "lower"),
    ("device.tmm.deploy.calls", "count", "higher"),
    ("device.tmm.deploy.self_ms", "ms", "lower"),
    ("device.tmm.invoke.calls", "count", "higher"),
    ("device.tmm.invoke.self_ms", "ms", "lower"),
    ("device.kernel.self_ms", "ms", "lower"),
    ("device.kernel.bytes", "B", "higher"),
    ("device.file_store.put.bytes", "B", "higher"),
    ("device.boot.self_ms", "ms", "lower"),
    ("puf.respond.calls", "count", "lower"),
    ("puf.crp.consumed", "count", "lower"),
    ("puf.crp.unused_end", "count", "higher"),
    ("ttp.enroll_device.self_ms", "ms", "lower"),
    ("ttp.enroll_vtpm.self_ms", "ms", "lower"),
    ("ttp.provision_user.self_ms", "ms", "lower"),
    ("ttp.cert_verify.self_ms", "ms", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.wall_s", "s", "lower"),
    ("process.cpu_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


# -- provenance ------------------------------------------------------------------


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    package = os.path.join(src, "trctee")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(workload, seed: int, seconds: float, trace: int) -> dict:
    import cryptography

    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(ROOT),
        "src_sha256": _source_digest(SRC),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": workload.name,
        "transport": workload.transport,
        "input_size": workload.input_size(),
        "transport_note": "tcp means 127.0.0.1 host loopback, not a real link",
        "loop": "closed loop, one client; the next command goes after the previous reply",
    }


# -- end-to-end metrics --------------------------------------------------------------


def end_to_end(m) -> dict[str, float]:
    """The result line's metrics; times are at the reference host speed
    (``harness.HostSpeed``), and the loop's wall time is rescaled by the
    ratio of its ops' adjusted to measured time."""
    adjusted = m.adjusted_op_ns()
    wall_s = m.wall_s * sum(adjusted) / sum(m.op_ns)
    return {
        "setup_s": statistics.median(m.setup_s),
        "ops_per_s": len(adjusted) / wall_s,
        "op_p50_ms": statistics.median(adjusted) / 1e6,
        "op_tail_ms": quantile(adjusted, m.tail_q) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }


def as_measured(m) -> list[tuple[str, float, str, int]]:
    """The result line's time metrics without the host-speed rescaling, and
    the host's median speed factor and share of stolen time over the run."""
    n = len(m.op_ns)
    speed = m.speed
    factors = [speed.factor(t0, t0 + wall) for t0, wall in zip(m.op_start, m.op_ns)]
    busy = sum(min(c, w) for c, w in zip(m.op_cpu, m.op_ns)) / sum(m.op_ns)
    stolen = (speed.steal[-1] - speed.steal[0]) / max(speed.times[-1] - speed.times[0], 1)
    return [
        ("setup_s", statistics.median(m.setup_raw_s), "s", len(m.setup_raw_s)),
        ("ops_per_s", n / m.wall_s, "1/s", n),
        ("op_p50_ms", statistics.median(m.op_ns) / 1e6, "ms", n),
        ("op_tail_ms", quantile(m.op_ns, m.tail_q) / 1e6, "ms", n),
        ("op_busy_share", busy, "ratio", n),
        ("host_speed_factor", statistics.median(factors), "x", len(speed.refs)),
        ("host_steal_share", stolen, "ratio", len(speed.steal)),
    ]


def detail(m) -> list[tuple[str, float, str, int]]:
    """The workload's own named metrics: (name, value, unit, samples)."""
    s = m.samples
    rows = [("setup_s", statistics.median(m.setup_s), "s", len(m.setup_s))]

    def med(key, scale):
        return statistics.median(s[key]) / scale

    if m.workload == "soak":
        growth = [
            statistics.median(lat[-512:]) / statistics.median(lat[:512])
            for lat in m.session_invokes
        ]
        rows += [
            ("invokes_per_s", len(s["invoke"]) / m.wall_s, "1/s", len(s["invoke"])),
            ("invoke_p50_us", med("invoke", 1e3), "us", len(s["invoke"])),
            ("invoke_p99_us", quantile(s["invoke"], 0.99) / 1e3, "us", len(s["invoke"])),
            ("invoke_growth_x", statistics.median(growth), "x", len(growth)),
            ("verify_ms", med("verify", 1e6), "ms", len(s["verify"])),
        ]
    elif m.workload == "churn":
        rows += [
            ("sessions_per_s", len(m.op_ns) / m.wall_s, "1/s", len(m.op_ns)),
            ("invoke_p50_us", med("invoke", 1e3), "us", len(s["invoke"])),
            ("handshake_p50_ms", med("handshake", 1e6), "ms", len(s["handshake"])),
            ("handshake_p95_ms", quantile(s["handshake"], 0.95) / 1e6, "ms",
             len(s["handshake"])),
            ("deploy_p50_ms", med("deploy", 1e6), "ms", len(s["deploy"])),
            ("update_key_p50_ms", med("update_key", 1e6), "ms", len(s["update_key"])),
            ("verify_ms", med("verify", 1e6), "ms", len(s["verify"])),
        ]
    elif m.workload == "bulk":
        rows += [
            ("invoke_p50_us", med("invoke", 1e3), "us", len(s["invoke"])),
            ("deploy_p50_ms", med("deploy", 1e6), "ms", len(s["deploy"])),
            ("payload_mb_per_s", m.payload_bytes / 1e6 / (sum(s["invoke"]) / 1e9), "MB/s",
             len(s["invoke"])),
        ]
    elif m.workload == "adversary":
        rows.append(
            ("scenario_suite_s", statistics.median(m.op_ns) / 1e9, "s", len(m.op_ns))
        )
        for stem, values in sorted(m.scenario_ns.items()):
            rows.append((f"{stem}.wall_ms", statistics.median(values) / 1e6, "ms", len(values)))
    rows += [
        ("error_rate", m.failed / max(m.attempted, 1), "ratio", m.attempted),
        ("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ]
    return rows


# -- per-layer metrics ----------------------------------------------------------------


def per_layer(table, tracer, plain, traced) -> dict[str, tuple[float, str]]:
    """Every per-layer number of the traced run, as name -> (value, unit)."""
    from trctee.channel import FRAME_OVERHEAD

    agg = table.by_name()

    def get(span: str, key: str) -> int:
        return agg.get(span, {}).get(key, 0)

    def summed(prefix: str, key: str) -> int:
        return sum(row[key] for name, row in agg.items() if name.startswith(prefix))

    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value, unit: str) -> None:
        out[name] = (value, unit)

    def timing(span: str) -> None:
        put(f"{span}.calls", get(span, "calls"), "count")
        put(f"{span}.self_ms", get(span, "self_ns") / 1e6, "ms")

    for op in ("user_invoke", "connect", "prepare_deploy", "user_deploy", "update_key",
               "verify", "verify_attestation"):
        timing(f"runtime.{op}")
    put("runtime.rekeys",
        get("channel.initiate_update", "calls") - get("channel.initiate_update", "failed"),
        "count")

    for op in ("dispatch", "pcr_extend", "export_log", "parse_log", "replay_log"):
        timing(f"vtpm.{op}")
    put("vtpm.log_events", get("vtpm.export_log", "items"), "count")

    for op in ("encode", "decode", "decode_response"):
        timing(f"wire.{op}")
    for op in ("encode", "decode"):
        put(f"messages.{op}.calls", summed(f"messages.{op}_", "calls"), "count")
        put(f"messages.{op}.self_ms", summed(f"messages.{op}_", "self_ns") / 1e6, "ms")

    for op in ("seal", "open_frame"):
        timing(f"channel.{op}")
        put(f"channel.{op}.bytes", get(f"channel.{op}", "items"), "B")
    put("channel.open_frame.failed", get("channel.open_frame", "failed"), "count")
    sealed = get("channel.seal", "items") + FRAME_OVERHEAD * get("channel.seal", "calls")
    put("channel.frame_efficiency", get("channel.seal", "items") / sealed if sealed else 0.0,
        "ratio")
    timing("channel.handshake")
    put("channel.handshake.failed", get("channel.handshake", "failed"), "count")
    timing("channel.initiate_update")
    timing("channel.respond_update")

    for side in ("user", "device"):
        send = f"transport.{side}.send_record"
        recv = f"transport.{side}.recv_record"
        timing(send)
        put(f"{send}.bytes", get(send, "items"), "B")
        put(f"{recv}.calls", get(recv, "calls"), "count")
        put(f"{recv}.wait_ms", get(recv, "total_ns") / 1e6, "ms")
        put(f"{recv}.timeouts", table.exceptions(recv).get("ReceiveTimeout", 0), "count")
    timing("transport.connect")

    for op in ("deploy", "invoke"):
        timing(f"device.tmm.{op}")
    put("device.kernel.self_ms", summed("device.kernel.", "self_ns") / 1e6, "ms")
    put("device.kernel.bytes", summed("device.kernel.", "items"), "B")
    for name in sorted(agg):
        if name.startswith("device.kernel."):
            put(f"{name}.self_ms", agg[name]["self_ns"] / 1e6, "ms")
            put(f"{name}.bytes", agg[name]["items"], "B")
    put("device.file_store.put.bytes", get("device.file_store.put", "items"), "B")
    timing("device.boot")

    # Enrollment evaluates the PUF on the user thread (the TTP's side); the
    # device evaluates it at run time for handshakes and key updates.
    put("puf.respond.calls", get("puf.respond", "device_calls"), "count")
    put("puf.enroll.calls", get("puf.respond", "calls") - get("puf.respond", "device_calls"),
        "count")
    put("puf.crp.consumed", get("puf.crp.take", "calls") - get("puf.crp.take", "failed"), "count")
    put("puf.crp.unused_end", sum(store.unused_count() for store in tracer.crp_stores), "count")

    for op in ("enroll_device", "enroll_vtpm", "provision_user", "cert_verify"):
        timing(f"ttp.{op}")

    put("scenario.steps_failed", get("scenario.run", "items"), "count")
    for stem, values in sorted(traced.scenario_ns.items()):
        put(f"scenario.{stem}.wall_ms", statistics.median(values) / 1e6, "ms")

    put("process.cpu_s", plain.cpu_s, "s")
    put("process.wall_s", plain.wall_s, "s")
    put("process.cpu_share", plain.cpu_s / plain.wall_s, "ratio")
    per_op_plain = plain.wall_s / len(plain.op_ns)
    per_op_traced = traced.wall_s / len(traced.op_ns)
    put("trace.overhead_pct", 100.0 * (per_op_traced / per_op_plain - 1.0), "%")
    put("trace.spans", len(table), "count")
    return out


def attribution(table) -> list[str]:
    """Where the traced run's time went: top self times per thread side and
    overall, device time per causing user request, and the user-side receive
    wait inside ``connect``."""
    lines = []
    by_side = table.self_by_side()
    for side, rows in by_side.items():
        total = sum(rows.values()) or 1
        top = sorted(rows.items(), key=lambda kv: -kv[1])[:6]
        lines.append(
            f"top {side}-thread self time: "
            + ", ".join(f"{name} {ns / 1e6:.1f} ms ({100 * ns / total:.0f}%)" for name, ns in top)
        )
    busy = defaultdict(int)
    for rows in by_side.values():
        for name, ns in rows.items():
            if not name.endswith(".recv_record"):
                busy[name] += ns
    total = sum(busy.values()) or 1
    top = sorted(busy.items(), key=lambda kv: -kv[1])[:6]
    lines.append(
        "top busy self time, both threads, receive waits excluded: "
        + ", ".join(f"{name} {ns / 1e6:.1f} ms ({100 * ns / total:.0f}%)" for name, ns in top)
    )
    linked = table.device_busy_by_cause()
    if linked:
        total = sum(linked.values()) or 1
        lines.append(
            "device busy self time by the user request that caused it: "
            + ", ".join(f"{name} {ns / 1e6:.1f} ms ({100 * ns / total:.0f}%)"
                        for name, ns in sorted(linked.items(), key=lambda kv: -kv[1]))
        )
    connect_ns, wait_ns = table.descendant_total("runtime.connect", "transport.user.recv_record")
    if connect_ns:
        lines.append(
            f"runtime.connect: {connect_ns / 1e6:.1f} ms, of which user-side "
            f"transport.recv_record wait {wait_ns / 1e6:.1f} ms ({100 * wait_ns / connect_ns:.0f}%)"
        )
    return lines


# -- command line --------------------------------------------------------------------


def _print_rows(prefix: str, rows) -> None:
    for name, value, unit, n in rows:
        print(f"{prefix} {name:<40} {value:>14.6g} {unit:<6} n={n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "trctee", "__init__.py")):
        print(f"error: trctee sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import trctee

    if os.path.dirname(os.path.abspath(trctee.__file__)) != os.path.join(SRC, "trctee"):
        print(f"error: imported trctee from {trctee.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    try:
        workload = harness.make(args.workload, args.seed, harness.Sizes(), ROOT)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = run(workload, args.seconds, args.trace)
    return 0 if result["correct"] else 1


def run(workload, seconds: float, trace: int) -> dict:
    """Measure one workload, print the report and the result line.

    Needs ``src`` and this directory on ``sys.path`` (``main`` sees to it).
    """
    import harness
    import tracer as tracing

    prov = provenance(workload, workload.seed, seconds, trace)
    print(f"# trctee benchmark: workload={workload.name} op={workload.op} "
          f"transport={workload.transport} input={workload.input_size()} "
          f"seed={workload.seed} seconds={seconds} trace={trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{workload.seed}-trace{trace}")
    summary = {"provenance": prov}

    if trace == 0:
        m = harness.measure(workload, seconds)
        rows = detail(m)
        values = end_to_end(m)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        _print_rows("detail", rows)
        raw = as_measured(m)
        _print_rows("measured", raw)
        counts = {"op_p50_ms": len(m.op_ns), "op_tail_ms": len(m.op_ns),
                  "ops_per_s": len(m.op_ns), "setup_s": len(m.setup_s), "peak_rss_mb": 1}
        _print_rows("e2e", [(n, values[n], u, counts[n]) for n, u, _ in END_TO_END])
        tail = "max" if m.tail_q == 1.0 else f"p{round(100 * m.tail_q)}"
        print(f"# op={m.op}: tail is {tail}, "
              f"{len(m.op_ns)} samples over {m.wall_s:.2f} s")
        measurements = [m]
        summary["detail"] = {name: [value, unit, n] for name, value, unit, n in rows}
        summary["measured"] = {name: [value, unit, n] for name, value, unit, n in raw}
    else:
        half = seconds / 2
        plain = harness.measure(workload, half)
        tracer = tracing.Tracer()
        with tracer:
            traced = workload.measurement()
            world = workload.setup(harness.SETUP_SAMPLES * harness.SETUP_BATCH)
            try:
                workload.loop(world, half, traced)
            finally:
                workload.close(world)
        table = tracer.table()
        layer = per_layer(table, tracer, plain, traced)
        metrics = {name: {"value": layer[name][0], "unit": unit} for name, unit, _ in PER_LAYER}
        _print_rows("layer", [(n, v, u, "-") for n, (v, u) in layer.items()])
        where = attribution(table)
        for line in where:
            print("# " + line)
        table.write(stem + ".spans.json.gz")
        measurements = [plain, traced]
        summary["per_layer"] = {name: list(vu) for name, vu in layer.items()}
        summary["attribution"] = where

    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    errors = [e for m in measurements for e in m.errors]
    for error in errors:
        print(f"# FAILED: {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    summary["result"] = result
    summary["errors"] = errors
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    sys.exit(main())
