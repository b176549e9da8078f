"""Command-line front end.

Subcommands: enroll-device, enroll-vtpm, provision, run, serve, connect,
verify.  Enrollment state persists under a store directory (``--store`` or
``$TRCTEE_STORE``, default ``./trctee-store``) so the device and user ends
can run in separate processes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import threading

from . import device, puf, runtime, scenario, statefile, transport, ttp
from .crypto import Rng
from .errors import TrcteeError

USER_HEADER = "trctee-user v1"
DEVICE_HEADER = "trctee-device v1"

_key = functools.partial(statefile.hex_bytes, length=32)
DEVICE_FIELDS = {"id": ttp.check_identifier, "seed": _key, "pkttp": _key}
USER_FIELDS = {
    "id": ttp.check_identifier,
    "sk": _key,
    "pk": _key,
    "cert": lambda text: ttp.Certificate.decode(statefile.hex_bytes(text)),
    "pkttp": _key,
}
PROVISIONED_FIELDS = {"device": ttp.check_identifier, "manifest": statefile.decode_manifest}


def _store_dir(args) -> str:
    root = args.store or os.environ.get("TRCTEE_STORE") or "./trctee-store"
    os.makedirs(root, exist_ok=True)
    return root


def _registry_path(root: str) -> str:
    return os.path.join(root, "registry.txt")


def _user_path(root: str, user_id: str) -> str:
    return os.path.join(root, f"user_{user_id}.txt")


def _user_crps_path(root: str, user_id: str) -> str:
    return os.path.join(root, f"crps_user_{user_id}.txt")


def _load_or_new_ttp(root: str, rng: Rng) -> ttp.TtpService:
    path = _registry_path(root)
    if os.path.exists(path):
        return ttp.TtpService.load(path, rng)
    return ttp.TtpService(rng=rng)


def _save_user(path: str, bundle: ttp.VtpmBundle, device_id=None, manifest=None) -> None:
    lines = [
        f"id {bundle.user_id}",
        f"sk {bundle.sk_tpm.hex()}",
        f"pk {bundle.pk_tpm.hex()}",
        f"cert {bundle.cert.encode().hex()}",
        f"pkttp {bundle.pk_ttp.hex()}",
    ]
    if device_id is not None:
        lines += [f"device {device_id}", f"manifest {statefile.encode_manifest(manifest)}"]
    statefile.write(path, USER_HEADER, lines)


def _load_user(path: str):
    """The user's vTPM bundle, then the device id and golden manifest once provisioned."""
    f = statefile.read_keys(path, USER_HEADER, USER_FIELDS, PROVISIONED_FIELDS)
    bundle = ttp.VtpmBundle(f["id"], f["sk"], f["pk"], f["cert"], f["pkttp"])
    return bundle, f.get("device"), f.get("manifest")


def _load_provisioned_user(root: str, user_id: str):
    path = _user_path(root, user_id)
    bundle, device_id, manifest = _load_user(path)
    if device_id is None:
        raise statefile.StateFileError(path, None, f"user {user_id} is not provisioned yet")
    return bundle, device_id, manifest


# -- enrollment subcommands -------------------------------------------------------


def cmd_enroll_device(args) -> int:
    root = _store_dir(args)
    rng = Rng(args.seed)
    ttp_service = _load_or_new_ttp(root, rng.child("ttp"))
    seed = rng.child(f"puf-{args.id}").bytes(32)
    puf_device = puf.PufDevice(seed)
    image = device.BootImage.synthetic(args.id, ttp_service.pk_ttp)
    ttp_service.enroll_device(args.id, puf_device, image)
    ttp_service.save(_registry_path(root))
    statefile.write(
        os.path.join(root, f"device_{args.id}.txt"),
        DEVICE_HEADER,
        [f"id {args.id}", f"seed {seed.hex()}", f"pkttp {ttp_service.pk_ttp.hex()}"],
    )
    print(f"device {args.id} enrolled; registry at {_registry_path(root)}")
    return 0


def cmd_enroll_vtpm(args) -> int:
    root = _store_dir(args)
    ttp_service = _load_or_new_ttp(root, Rng(args.seed).child("ttp"))
    user_path = _user_path(root, args.user)
    device_id = _load_user(user_path)[1] if os.path.exists(user_path) else None
    if device_id is not None or os.path.exists(_user_crps_path(root, args.user)):
        # A new key would drop the device and manifest while the CRP slice stays.
        raise ttp.TtpError(f"user {args.user} is already provisioned")
    ttp_service.register_user(args.user)
    bundle = ttp_service.enroll_vtpm(args.user)
    ttp_service.save(_registry_path(root))
    _save_user(user_path, bundle)
    print(f"vTPM enrolled for {args.user}")
    return 0


def cmd_provision(args) -> int:
    root = _store_dir(args)
    ttp_service = ttp.TtpService.load(_registry_path(root))
    bundle, _, _ = _load_user(_user_path(root, args.user))
    crps_path = _user_crps_path(root, args.user)
    if os.path.exists(crps_path):
        # A second slice would orphan the CRPs the first one handed out.
        raise ttp.TtpError(f"user {args.user} is already provisioned ({crps_path} exists)")
    device_id, manifest, crp_slice = ttp_service.provision_user(
        args.user, args.device, slice_size=args.crp_pool
    )
    ttp_service.save(_registry_path(root))
    _save_user(_user_path(root, args.user), bundle, device_id, manifest)
    crp_slice.save(crps_path)
    print(f"user {args.user} provisioned for {device_id} with {len(crp_slice)} CRPs")
    return 0


def _load_user_node(root: str, user_id: str, args) -> runtime.UserNode:
    bundle, device_id, manifest = _load_provisioned_user(root, user_id)
    crp_store = puf.CrpStore.load(_user_crps_path(root, user_id), owner="user")
    return runtime.UserNode(
        bundle=bundle,
        device_id=device_id,
        golden_manifest=manifest,
        crp_store=crp_store,
        rng=Rng(args.seed).child("user"),
        rekey_threshold=args.rekey_threshold,
    )


# -- scenario runner ----------------------------------------------------------------


def cmd_run(args) -> int:
    runner = scenario.ScenarioRunner(
        scenario.load_scenario(args.scenario),
        seed=args.seed,
        tcp=args.transport == "tcp",
        rekey_threshold=args.rekey_threshold,
        crp_slice=args.crp_pool,
    )
    report = runner.run()
    print(report.text(), end="")
    if report.verifier_report is not None:
        print(report.verifier_report.text(), end="")
    return report.exit_code


# -- networked endpoints ----------------------------------------------------------


def _parse_addr(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise SystemExit(f"error: address must be HOST:PORT, got {value!r}")
    return host, int(port)


def cmd_serve(args) -> int:
    host, port = _parse_addr(args.listen)
    root = _store_dir(args)
    fields = statefile.read_keys(
        os.path.join(root, f"device_{args.device}.txt"), DEVICE_HEADER, DEVICE_FIELDS
    )
    image = device.BootImage.synthetic(fields["id"], fields["pkttp"])
    dev = device.FpgaSocDevice(
        device_id=fields["id"],
        puf=puf.PufDevice(fields["seed"]),
        boot_image=image,
        rng=Rng(args.seed).child(f"device-{fields['id']}"),
        file_store=device.FileStore(os.path.join(root, "filestore")),
        recv_timeout=args.timeout,
    )
    dev.boot()
    server = transport.listen(host, port)
    print(f"device {fields['id']} booted, listening on {host}:{server.getsockname()[1]}")
    try:
        conn = transport.accept_one(server, timeout=args.timeout)
        try:
            dev.serve(conn)
        finally:
            conn.close()
    finally:
        server.close()
    error = dev.trace.first_error()
    if error is not None:
        print(f"session ended with {type(error).__name__}: {error}")
        return 1
    print("session ended")
    return 0


def cmd_connect(args) -> int:
    host, port = _parse_addr(args.addr)
    root = _store_dir(args)
    user = _load_user_node(root, args.user, args)
    conn = transport.connect(host, port)
    try:
        return _baseline_flow(user, conn, root, args)
    finally:
        conn.close()


def _baseline_flow(user: runtime.UserNode, conn, root: str, args) -> int:
    user.connect(conn)
    print(f"session established with {user.device_id}, epoch {user.endpoint.session.epoch}")

    # Baseline runtime flow: one deployment, two invocations, one key
    # update, then verification.
    params = bytes(range(16))
    ticket = user.prepare_deploy(1, device.IpImage(kernel_id="xor", params=params))
    response, verdict = user.user_deploy(ticket)
    print(f"deploy ip=1 rc={response.response_code} hash-verdict={verdict}")
    data = bytes(reversed(range(16)))
    output, record = user.user_invoke(1, data)
    print(f"invoke ip=1 -> {output.hex()} ({record.verdict})")
    output2, record2 = user.user_invoke(1, output)
    roundtrip = "ok" if output2 == data else "MISMATCH"
    print(f"invoke ip=1 again -> xor round-trip {roundtrip} ({record2.verdict})")
    mark = len(user.trace.events)
    rc = user.update_key()
    # Only a CrpExhausted refusal leaves the session up (runtime.UserNode._fail).
    state = f"epoch {user.endpoint.session.epoch}" if user.endpoint else "session ended"
    cause = user.trace.first_error(mark)
    print(f"update-key rc={rc}, {state}" + (f": {type(cause).__name__}: {cause}" if cause else ""))
    # Export once: the file written is exactly the text that was verified.
    log_text = user.export_log()
    report = runtime.verify_attestation(log_text, user.golden_manifest, user.history)
    log_path = os.path.join(root, f"eventlog_{args.user}.txt")
    statefile.replace(log_path, log_text.encode())
    user.history.save(os.path.join(root, f"history_{args.user}.txt"))
    print(f"event log exported to {log_path}")
    print(report.text(), end="")
    ok = report.all_verified and verdict == "Verified" and roundtrip == "ok" and rc == 0
    return 0 if ok else 1


def cmd_verify(args) -> int:
    root = _store_dir(args)
    _, _, manifest = _load_provisioned_user(root, args.user)
    history_path = args.history or os.path.join(root, f"history_{args.user}.txt")
    # Only the default file may be missing: a user with no runtime history yet.
    history = (
        runtime.ExpectedHistory.load(history_path)
        if args.history or os.path.exists(history_path)
        else runtime.ExpectedHistory()
    )
    # Lines end at "\n" only, as in the exported text; they stream into
    # the verifier, so a log of any length verifies in flat memory.
    with open(args.log, encoding="utf-8", newline="\n") as fh:
        report = runtime.verify_attestation(fh, manifest, history)
    print(report.machine_lines(), end="")
    print(report.text(), end="")
    return 0 if report.all_verified else 1


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _seconds(text: str) -> float:
    """A timeout that sockets and locks accept: finite, positive, at most ``TIMEOUT_MAX``."""
    try:
        if 0 < float(text) <= threading.TIMEOUT_MAX:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be a number of seconds in (0, {threading.TIMEOUT_MAX:.0f}], got {text!r}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trctee",
        description="Simulated FPGA-SoC TEE with a user-controllable vTPM",
    )
    parser.add_argument("--store", help="state directory (default $TRCTEE_STORE or ./trctee-store)")
    parser.add_argument("--seed", type=int, default=None, help="deterministic RNG seed")
    parser.add_argument(
        "--rekey-threshold",
        type=_positive_int,
        default=runtime.DEFAULT_REKEY_THRESHOLD,
        help="frames per epoch before an automatic key update, read by connect "
        "and run (default %(default)s)",
    )
    parser.add_argument(
        "--crp-pool",
        type=_positive_int,
        default=ttp.DEFAULT_SLICE_SIZE,
        help="CRPs provisioned to a user (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enroll-device", help="enroll an FPGA-SoC device with the TTP")
    p.add_argument("--id", required=True)
    p.set_defaults(func=cmd_enroll_device)

    p = sub.add_parser("enroll-vtpm", help="enroll a user's vTPM instance")
    p.add_argument("--user", required=True)
    p.set_defaults(func=cmd_enroll_vtpm)

    p = sub.add_parser("provision", help="hand device info and CRPs to a user")
    p.add_argument("--user", required=True)
    p.add_argument("--device", required=True)
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("scenario")
    p.add_argument("--transport", choices=("inproc", "tcp"), default="inproc")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("serve", help="serve one device session over TCP")
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.add_argument("--device", required=True)
    p.add_argument(
        "--timeout", type=_seconds, default=60.0, help="seconds bounding the accept and the handshake"
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("connect", help="connect a user node and run the baseline flow")
    p.add_argument("--addr", required=True, metavar="HOST:PORT")
    p.add_argument("--user", required=True)
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("verify", help="verify an exported event log offline")
    p.add_argument("log")
    p.add_argument("--user", required=True)
    p.add_argument("--history")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process: ``parse_args`` fills a
    fresh namespace on every call, so no option value outlives its run."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrcteeError, OSError, UnicodeDecodeError) as exc:
        # A file that cannot be read or decoded is operator input, as a state file is.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
