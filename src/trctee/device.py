"""Simulated FPGA-SoC device: measured boot, encrypted-bitstream store,
the privileged TMM, and IP kernels.

The boot ROM acts as the measurement root: it hashes the eight boot
components in their fixed order, one per PCR index 0..7.  Measurements
are queued at boot and reported to the vTPM over the secure channel once
a session exists.

Only the TMM can touch configuration memory.  Bitstreams arrive AEAD
encrypted under the per-session deployment key.  The REE file store and the
TPM-Agent, the REE relay of sealed records that is the transport the device
is attached to (:attr:`FpgaSocDevice.agent`), hold no keys and expose no
deploy or invoke capability.

Deploy and invoke reach the TMM as the vTPM's own TPM command bytes inside
the sealed channel and are answered with TPM response bytes (see
:mod:`trctee.wire`); everything else on the channel is a one-byte-typed
:mod:`trctee.messages` payload.  A record the device rejects (one that does
not open, a payload that fails to decode, a TPM command other than deploy or
invoke) is traced, named to the vTPM in an abort record, and ends the session.
"""

from __future__ import annotations

import os
import struct
import threading
from collections import deque
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import channel, messages, statefile, wire
from . import transport as _transport
from .crypto import NONCE_LEN, Rng, sha384, sha3_384
from .errors import TrcteeError
from .layout import REST, Layout, blob, exact, uint
from .puf import PufDevice
from .trace import Trace

BOOT_COMPONENTS = (
    "fsbl",
    "puf_bitstream",
    "pmu_fw",
    "atf",
    "optee",
    "uboot",
    "linux",
    "rootfs",
)

TPM_TAG_BYTE = wire.TAG_NO_SESSIONS >> 8  # 0x80, first byte of every TPM tag


class DeviceError(TrcteeError):
    pass


class NotFound(DeviceError):
    token = "not-found"


class BadImage(DeviceError):
    token = "bad-image"


class NotDeployed(DeviceError):
    token = "not-deployed"


class KernelFault(DeviceError):
    token = "kernel-fault"


# -- IP kernels -----------------------------------------------------------------


class XorKey(bytes):
    """``xor`` parameters that carry their big-endian integer, so the
    conversion runs once, when the IP is deployed, not on every invoke."""

    def __new__(cls, params: bytes) -> "XorKey":
        key = super().__new__(cls, params)
        key.word = int.from_bytes(params, "big")
        return key


def _kernel_xor(params: bytes, data: bytes) -> bytes:
    if len(data) != len(params):
        raise KernelFault(f"xor kernel needs input of {len(params)} bytes, got {len(data)}")
    word = params.word if isinstance(params, XorKey) else int.from_bytes(params, "big")
    return (int.from_bytes(data, "big") ^ word).to_bytes(len(data), "big")


def _kernel_add_const(params: bytes, data: bytes) -> bytes:
    if len(params) < 1:
        raise KernelFault("add-constant kernel needs a 1-byte constant parameter")
    constant = params[0]
    return data.translate(bytes(range(constant, 256)) + bytes(range(constant)))


def _kernel_matmul8(params: bytes, data: bytes) -> bytes:
    """8x8 byte matrix product (params x input), entries mod 256."""
    if len(params) != 64 or len(data) != 64:
        raise KernelFault("matmul8 kernel needs 64-byte matrices")
    out = bytearray(64)
    for i in range(8):
        row = params[8 * i : 8 * i + 8]
        for j in range(8):
            acc = 0
            for k in range(8):
                acc += row[k] * data[8 * k + j]
            out[8 * i + j] = acc & 0xFF
    return bytes(out)


KERNELS = {
    "xor": _kernel_xor,
    "add_const": _kernel_add_const,
    "matmul8": _kernel_matmul8,
}


# -- images and stores -----------------------------------------------------------


class BootImage:
    """The eight boot components in fixed order; FSBL embeds the TTP key."""

    def __init__(self, components: dict[str, bytes]):
        if tuple(components) != BOOT_COMPONENTS:
            raise ValueError(f"boot image must have exactly the components {BOOT_COMPONENTS}")
        self.components = dict(components)

    @classmethod
    def synthetic(cls, device_id: str, pk_ttp: bytes) -> "BootImage":
        """Deterministic stand-in blobs for one device's bootable image."""
        components = {}
        for name in BOOT_COMPONENTS:
            blob = f"{name}/{device_id}/".encode()
            blob += sha384(blob) * 4
            if name == "fsbl":
                blob += pk_ttp  # pre-stored TTP public key, readable at a fixed tail offset
            components[name] = blob
        return cls(components)

    def items(self) -> list[tuple[str, bytes]]:
        return [(name, self.components[name]) for name in BOOT_COMPONENTS]

    @property
    def embedded_pk_ttp(self) -> bytes:
        return self.components["fsbl"][-32:]

    def tamper(self, name: str, offset: int = 0) -> None:
        """Flip one byte of a component (adversary hook for tests)."""
        blob = bytearray(self.components[name])
        blob[offset] ^= 0x01
        self.components[name] = bytes(blob)


def measure_boot_image(image: BootImage) -> list[tuple[int, str, bytes]]:
    """CRTM measurement pass: (pcr index, component, SHA-384) in boot order."""
    return [(idx, name, sha384(blob)) for idx, (name, blob) in enumerate(image.items())]


_IP_IMAGE = Layout("IP image", BadImage, b"TRIP", blob(1, str), REST)
_BITSTREAM = Layout("encrypted bitstream", BadImage, b"TB01", uint(2), exact(NONCE_LEN), blob(4))


@dataclass(frozen=True)
class IpImage:
    """Plaintext bitstream: a kernel descriptor plus its parameters."""

    kernel_id: str
    params: bytes

    def encode(self) -> bytes:
        return _IP_IMAGE.encode(self.kernel_id, self.params)

    @classmethod
    def decode(cls, data: bytes) -> "IpImage":
        image = cls(*_IP_IMAGE.decode(data))
        if image.kernel_id not in KERNELS:
            raise BadImage(f"unknown kernel {image.kernel_id!r}")
        return image


@dataclass(frozen=True)
class EncryptedBitstream:
    """AEAD-wrapped bitstream file: magic, serial, nonce, ciphertext."""

    ip_num: int
    nonce: bytes
    ciphertext: bytes

    def encode(self) -> bytes:
        return _BITSTREAM.encode(self.ip_num, self.nonce, self.ciphertext)

    @classmethod
    def decode(cls, data: bytes) -> "EncryptedBitstream":
        return cls(*_BITSTREAM.decode(data))


def encrypt_bitstream(
    image: IpImage, ip_num: int, deploy_key: bytes, rng: Rng
) -> EncryptedBitstream:
    """User-side preparation: AEAD under the deployment key, serial as AD."""
    nonce = rng.bytes(NONCE_LEN)
    ciphertext = AESGCM(deploy_key).encrypt(nonce, image.encode(), struct.pack(">H", ip_num))
    return EncryptedBitstream(ip_num=ip_num, nonce=nonce, ciphertext=ciphertext)


def blob_name(ip_num: int) -> str:
    return f"ip_{ip_num}.bin"


class FileStore:
    """REE-side blob store, untrusted by design; optionally directory backed."""

    def __init__(self, root: str | None = None):
        self._root = root
        self._blobs: dict[str, bytes] = {}
        if root is not None:
            os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        """``name``, checked: its key in memory, or its file in a directory."""
        if not messages.BLOB_NAME.fullmatch(name):
            raise ValueError(f"unsafe blob name {name!r}")
        return name if self._root is None else os.path.join(self._root, name)

    def put(self, name: str, blob: bytes) -> None:
        path = self._path(name)
        if self._root is None:
            self._blobs[path] = blob
        else:
            statefile.replace(path, blob)

    def get(self, name: str) -> bytes:
        path = self._path(name)
        try:
            if self._root is None:
                return self._blobs[path]
            with open(path, "rb") as fh:
                return fh.read()
        except (KeyError, FileNotFoundError):
            raise NotFound(f"no blob named {name!r}") from None


class ConfigMemory:
    """Deployed-IP map; mutation is reachable only through the TMM."""

    def __init__(self):
        self._deployed: dict[int, tuple[IpImage, bytes]] = {}

    def install(self, ip_num: int, image: IpImage, bin_hash: bytes) -> None:
        self._deployed[ip_num] = (image, bin_hash)

    def lookup(self, ip_num: int) -> tuple[IpImage, bytes]:
        try:
            return self._deployed[ip_num]
        except KeyError:
            raise NotDeployed(f"no IP deployed under serial {ip_num}") from None

    def snapshot(self) -> dict[int, bytes]:
        return {num: bin_hash for num, (_, bin_hash) in self._deployed.items()}


class Tmm:
    """Trusted management module: the only holder of deploy/invoke privilege.
    One per session: built with the session's deploy key when the handshake
    completes, dropped with that key and every IP it deployed when it ends."""

    def __init__(self, file_store: FileStore, deploy_key: bytes):
        self.file_store = file_store
        self.config_memory = ConfigMemory()
        self._deploy_key = deploy_key

    def deploy(self, ip_num: int) -> bytes:
        """Decrypt, validate, install, and hash the bitstream for ``ip_num``."""
        blob = self.file_store.get(blob_name(ip_num))
        encrypted = EncryptedBitstream.decode(blob)
        if encrypted.ip_num != ip_num:
            raise BadImage(
                f"blob is for serial {encrypted.ip_num}, deployment asked for {ip_num}"
            )
        try:
            plaintext = AESGCM(self._deploy_key).decrypt(
                encrypted.nonce, encrypted.ciphertext, struct.pack(">H", ip_num)
            )
        except InvalidTag:
            raise channel.AuthFailure("bitstream failed authentication") from None
        image = IpImage.decode(plaintext)
        if image.kernel_id == "xor":
            image = IpImage(kernel_id="xor", params=XorKey(image.params))
        bin_hash = sha3_384(plaintext)
        # Simulated PCAP load: installation happens only after every check.
        self.config_memory.install(ip_num, image, bin_hash)
        return bin_hash

    def invoke(self, ip_num: int, data: bytes, flag: int) -> bytes:
        """Run the deployed kernel over the input region, return the output region."""
        image, _ = self.config_memory.lookup(ip_num)
        if flag != 0:
            raise KernelFault(f"unsupported execution flag {flag}")
        return KERNELS[image.kernel_id](image.params, data)


class FpgaSocDevice:
    """One simulated device serving one vTPM session at a time.  Its core,
    :meth:`feed`, goes idle -> handshaking (:meth:`attach`) -> established
    (``session``, ``tmm``) or awaiting UPDATE_CONFIRM_V (``_pending``) -> idle
    (:meth:`_close`): every key and deployed IP lasts one session.  It is fed:
    over TCP (and on the benchmark's threaded pipe), by the receive loop
    :meth:`serve` on a thread of its own; in process, by a
    :class:`DirectPair`, with no thread."""

    def __init__(
        self,
        device_id: str,
        puf: PufDevice,
        boot_image: BootImage,
        rng: Rng | None = None,
        file_store: FileStore | None = None,
        recv_timeout: float | None = 5.0,
        trace: Trace | None = None,
    ):
        self.device_id = device_id
        self.puf = puf
        self.boot_image = boot_image
        self.rng = rng or Rng()
        self.file_store = file_store or FileStore()
        self.recv_timeout = recv_timeout
        self.trace = trace or Trace()
        self._pending_measurements: list[tuple[int, str, bytes]] = []  # none until booted
        self.agent = None  # the TPM-Agent: the transport of the session
        self._handshake = self.session = self._pending = self.tmm = None  # idle

    def boot(self) -> None:
        """Measured boot: queue the component measurements for reporting."""
        self._pending_measurements = measure_boot_image(self.boot_image)

    def attach(self, transport) -> None:
        """Start a handshake whose records go out through ``transport``.  One
        session at a time: the session or handshake held before ends first."""
        if self._handshake is not None or self.session is not None:
            self._close(None)
        self.agent = transport
        pk_ttp = self.boot_image.embedded_pk_ttp  # the TTP key pre-stored in the FSBL
        self._handshake = channel.DeviceHandshake(
            pk_ttp=pk_ttp, device_id=self.device_id, puf=self.puf, rng=self.rng
        )

    def serve(self, transport) -> None:
        """The one receive loop, pipe or TCP: records go to :meth:`feed` until
        the peer closes or the core rejects one.  ``recv_timeout`` bounds each
        receive of the handshake only, so no device timer fires while the user
        waits on a request; over TCP, keepalive ends it on a cut link."""
        self.attach(transport)
        while True:
            try:
                record = transport.recv_record(self.recv_timeout if self.session is None else None)
            except (_transport.TransportClosed, _transport.ReceiveTimeout) as exc:
                self._peer_gone(exc)
                return
            except Exception as exc:  # the loop must not end the thread silently
                self._close(exc)
                return
            if not self.feed(record):
                return

    def feed(self, record: bytes | bytearray) -> bool:
        """Handle one received record, each reply sent to the agent while the
        plaintext it was sealed from is alive.  False once it has rejected a
        record, in the handshake or after, or raised: that ends the session
        (:meth:`_close`), as ``bad_record_mac`` does in TLS 1.3 (RFC 8446 6.2)."""
        try:
            if self.session is not None:
                self._dispatch(self._open(record))
            else:
                self.agent.send_record(self._handshake.on_message(record))
                session = self._handshake.session
                if session is not None:
                    self.session, self._handshake = session, None
                    self.tmm = Tmm(self.file_store, channel.derive_deploy_key(session.sess_key))
                    if self._pending_measurements:
                        self._send(messages.encode_boot_report(self._pending_measurements))
        except Exception as exc:
            self._close(exc)
            return False
        return True

    def _peer_gone(self, cause: Exception) -> None:
        """The peer closed or went quiet: an error only if the session never came up."""
        self._close(cause if self.session is None else None)

    def _close(self, error: Exception | None) -> None:
        """The device's one failure rule: trace ``error``, if any, and name it
        to the vTPM in an abort record when the protocol names it; then close
        the agent and drop the session's state."""
        if error is not None:
            self.trace.emit("device", "error", error)  # before the vTPM hears
            if isinstance(error, (channel.ChannelError, messages.MessageError, wire.WireError)):
                channel.send_abort(self.agent, error)
        self.agent.close()
        self._handshake = self.session = self._pending = self.tmm = None

    def _open(self, record: bytes | bytearray) -> memoryview:
        """Awaiting V, a next-epoch record means V was lost (the vTPM switches on
        sending it); if it authenticates, it confirms the pending key (RFC 8446, 4.6.3)."""
        epoch = self.session.epoch + 1
        if self._pending is None or int.from_bytes(record[:4], "big") != epoch:
            return channel.open_frame(self.session, record)
        ahead = channel.SessionState(self._pending[0], channel.Role.VTPM, epoch=epoch)
        payload = channel.open_frame(ahead, record)
        self.session, self._pending = ahead, None
        self.trace.emit("device", "rekey")
        return payload

    def _dispatch(self, payload: memoryview) -> None:
        """Awaiting V, only V is handled: the vTPM switched once it sent it,
        so any other record of the old epoch is refused."""
        kind = messages.kind_of(payload)
        if (kind == messages.UPDATE_CONFIRM_V) != (self._pending is not None):
            raise messages.MessageError(f"unexpected channel message type {kind}")
        if kind == TPM_TAG_BYTE:
            self._send(wire.encode(self._execute(wire.decode(payload))))
        elif kind == messages.UPDATE_REQ:
            confirm, self._pending = channel.respond_update(self.session, payload, self.puf)
            self._send(confirm)
        elif kind == messages.UPDATE_CONFIRM_V:
            channel.finish_update(self.session, payload, self._pending)
            self._pending = None
            self.trace.emit("device", "rekey")
        elif kind == messages.STORE_BLOB:
            name, blob = messages.decode_store_blob(payload)
            self.file_store.put(name, blob)
            self._send(messages.encode_store_ok())
        else:
            raise messages.MessageError(f"unexpected channel message type {kind}")

    def _send(self, payload: bytes) -> None:
        self.agent.send_record(channel.seal(self.session, payload).encode())

    def _execute(self, command) -> wire.DeployResp | wire.InvokeResp:
        """Run one Deploy_CMD or Invoke_CMD on the TMM; a failure answers rc 1."""
        try:
            if isinstance(command, wire.DeployCmd):
                return wire.DeployResp(bin_hash=self.tmm.deploy(command.ip_num))
            if isinstance(command, wire.InvokeCmd):
                return wire.InvokeResp(
                    output=self.tmm.invoke(command.ip_num, command.input, command.flag)
                )
        except (DeviceError, channel.AuthFailure) as exc:
            self.trace.emit("device", "error", exc)
            return wire.failure_response(command)
        raise messages.MessageError(
            f"the TMM does not execute {type(command).__name__} commands"
        )


def serve_in_thread(device: FpgaSocDevice, transport) -> threading.Thread:
    thread = threading.Thread(target=device.serve, args=(transport,), daemon=True)
    thread.start()
    return thread


class _DeviceEnd:
    """The device's end of a :class:`DirectPair`: what it sends waits in the
    user end's inbox."""

    def __init__(self, inbox: deque):
        self._inbox = inbox
        self.closed = False

    def send_record(self, record: bytes | bytearray) -> None:
        if self.closed:
            raise _transport.TransportClosed("transport is closed")
        self._inbox.append(record)

    def close(self) -> None:
        self.closed = True


class DirectPair:
    """The user's end of a thread-free pair with ``device``: a record sent runs
    the device core at once (:meth:`FpgaSocDevice.feed`), and its replies wait
    here for :meth:`recv_record`, handed over as the device built them.

    No other thread can send, so a receive on an empty inbox fails at once:
    :class:`~trctee.transport.TransportClosed` once the device end is closed,
    otherwise :class:`~trctee.transport.ReceiveTimeout`, whose text for a
    finite ``timeout`` is the one a receive that waited it out has.
    """

    def __init__(self, device: FpgaSocDevice):
        self._device = device
        self._inbox: deque = deque()
        self._device_end = _DeviceEnd(self._inbox)
        self._closed = False
        device.attach(self._device_end)

    def send_record(self, record: bytes | bytearray) -> None:
        if self._closed:
            raise _transport.TransportClosed("transport is closed")
        if not self._device_end.closed:  # otherwise lost, as on every transport
            self._device.feed(record)

    def recv_record(self, timeout: float | None = None) -> bytes | bytearray:
        if self._inbox:
            return self._inbox.popleft()
        if self._device_end.closed:
            raise _transport.TransportClosed("peer closed the transport")
        raise _transport.ReceiveTimeout(
            "no record waiting" if timeout is None else f"no record within {timeout}s"
        )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if not self._device_end.closed:
                self._device._peer_gone(_transport.TransportClosed("peer closed the transport"))
