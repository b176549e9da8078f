"""Simulated FPGA-SoC device: measured boot, encrypted-bitstream store,
the privileged TMM, the keyless REE forwarding agent, and IP kernels.

The boot ROM acts as the measurement root: it hashes the eight boot
components in their fixed order, one per PCR index 0..7.  Measurements
are queued at boot and reported to the vTPM over the secure channel once
a session exists.

Only the TMM can touch configuration memory.  Bitstreams arrive AEAD
encrypted under the per-session deployment key; the REE file store and
the TPM-Agent hold no keys and expose no deploy or invoke capability.

Deploy and invoke reach the TMM as the vTPM's own TPM command bytes inside
the sealed channel and are answered with TPM response bytes (see
:mod:`trctee.wire`); everything else on the channel is a one-byte-typed
:mod:`trctee.messages` payload.  A payload that fails to decode, and any
TPM command other than deploy or invoke, is dropped unanswered.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import channel, messages, wire
from .crypto import Rng, sha384, sha3_384
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

IP_MAGIC = b"TRIP"
BITSTREAM_MAGIC = b"TB01"
NONCE_LEN = 12
TPM_TAG_BYTE = wire.TAG_NO_SESSIONS >> 8  # 0x80, first byte of every TPM tag


class DeviceError(Exception):
    pass


class NotFound(DeviceError):
    pass


class BadImage(DeviceError):
    pass


class NotDeployed(DeviceError):
    pass


class KernelFault(DeviceError):
    pass


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


@dataclass(frozen=True)
class IpImage:
    """Plaintext bitstream: a kernel descriptor plus its parameters."""

    kernel_id: str
    params: bytes

    def encode(self) -> bytes:
        encoded = self.kernel_id.encode()
        if len(encoded) > 0xFF:
            raise ValueError("kernel id too long")
        return IP_MAGIC + bytes([len(encoded)]) + encoded + self.params

    @classmethod
    def decode(cls, data: bytes) -> "IpImage":
        if len(data) < 5 or data[:4] != IP_MAGIC:
            raise BadImage("bitstream magic mismatch")
        id_len = data[4]
        if len(data) < 5 + id_len:
            raise BadImage("bitstream truncated")
        kernel_id = data[5 : 5 + id_len].decode()
        if kernel_id not in KERNELS:
            raise BadImage(f"unknown kernel {kernel_id!r}")
        return cls(kernel_id=kernel_id, params=data[5 + id_len :])


@dataclass(frozen=True)
class EncryptedBitstream:
    """AEAD-wrapped bitstream file: magic, serial, nonce, ciphertext."""

    ip_num: int
    nonce: bytes
    ciphertext: bytes

    def encode(self) -> bytes:
        return (
            BITSTREAM_MAGIC
            + struct.pack(">H", self.ip_num)
            + self.nonce
            + struct.pack(">I", len(self.ciphertext))
            + self.ciphertext
        )

    @classmethod
    def decode(cls, data: bytes) -> "EncryptedBitstream":
        if len(data) < 4 + 2 + NONCE_LEN + 4 or data[:4] != BITSTREAM_MAGIC:
            raise BadImage("encrypted bitstream header mismatch")
        (ip_num,) = struct.unpack_from(">H", data, 4)
        nonce = data[6 : 6 + NONCE_LEN]
        (ct_len,) = struct.unpack_from(">I", data, 6 + NONCE_LEN)
        ciphertext = data[6 + NONCE_LEN + 4 :]
        if len(ciphertext) != ct_len:
            raise BadImage("encrypted bitstream length mismatch")
        return cls(ip_num=ip_num, nonce=nonce, ciphertext=ciphertext)


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
        if not messages.BLOB_NAME.fullmatch(name):
            raise ValueError(f"unsafe blob name {name!r}")
        return os.path.join(self._root, name)

    def put(self, name: str, blob: bytes) -> None:
        if self._root is None:
            if not messages.BLOB_NAME.fullmatch(name):
                raise ValueError(f"unsafe blob name {name!r}")
            self._blobs[name] = blob
            return
        tmp = self._path(name) + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, self._path(name))

    def get(self, name: str) -> bytes:
        if self._root is None:
            try:
                return self._blobs[name]
            except KeyError:
                raise NotFound(f"no blob named {name!r}") from None
        try:
            with open(self._path(name), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
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
    """Trusted management module: the only holder of deploy/invoke privilege."""

    def __init__(self, file_store: FileStore):
        self.file_store = file_store
        self.config_memory = ConfigMemory()
        self.endpoint: channel.ChannelEndpoint | None = None
        self._deploy_key: bytes | None = None

    def attach_session(self, endpoint: channel.ChannelEndpoint) -> None:
        self.endpoint = endpoint
        self._deploy_key = channel.derive_deploy_key(endpoint.session.sess_key)

    def deploy(self, ip_num: int) -> bytes:
        """Decrypt, validate, install, and hash the bitstream for ``ip_num``."""
        if self._deploy_key is None:
            raise DeviceError("no session; deployment key unavailable")
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


class TpmAgent:
    """REE forwarder: relays opaque records in both directions, holds no keys.

    It is the device's transport: every record the TMM sends or receives
    passes through it unchanged.
    """

    def __init__(self, transport):
        self._transport = transport

    def send_record(self, record: bytes) -> None:
        self._transport.send_record(record)

    def recv_record(self, timeout: float | None = None) -> bytes:
        return self._transport.recv_record(timeout)

    def close(self) -> None:
        self._transport.close()


class FpgaSocDevice:
    """One simulated device serving one vTPM session at a time."""

    def __init__(
        self,
        device_id: str,
        puf: PufDevice,
        boot_image: BootImage,
        rng: Rng | None = None,
        file_store: FileStore | None = None,
        rekey_threshold: int = channel.DEFAULT_REKEY_THRESHOLD,
        recv_timeout: float | None = 5.0,
        trace: Trace | None = None,
    ):
        self.device_id = device_id
        self.puf = puf
        self.boot_image = boot_image
        self.rng = rng or Rng()
        self.file_store = file_store or FileStore()
        self.rekey_threshold = rekey_threshold
        self.recv_timeout = recv_timeout
        self.trace = trace or Trace()
        self.tmm = Tmm(self.file_store)
        self.booted = False
        self._pending_measurements: list[tuple[int, str, bytes]] = []
        self.agent: TpmAgent | None = None

    @property
    def pk_ttp(self) -> bytes:
        """The TTP key pre-stored in the FSBL image."""
        return self.boot_image.embedded_pk_ttp

    def boot(self) -> list[tuple[int, str, bytes]]:
        """Measured boot: queue the component measurements for reporting."""
        self._pending_measurements = measure_boot_image(self.boot_image)
        self.booted = True
        return list(self._pending_measurements)

    def serve(self, transport) -> None:
        """Blocking service loop: handshake, boot report, then request handling."""
        self.agent = TpmAgent(transport)
        try:
            self._serve(self.agent)
        except Exception as exc:  # endpoint loop must not kill the thread silently
            self.trace.emit("device", "error", exc)
        finally:
            self.agent.close()

    def _serve(self, agent: TpmAgent) -> None:
        from . import transport as _transport

        handshake = channel.DeviceHandshake(
            pk_ttp=self.pk_ttp,
            device_id=self.device_id,
            puf=self.puf,
            rng=self.rng,
            rekey_threshold=self.rekey_threshold,
        )
        while handshake.session is None:
            try:
                record = agent.recv_record(self.recv_timeout)
            except _transport.TransportClosed:
                return
            try:
                reply = handshake.on_message(record)
            except channel.ChannelError as exc:
                # serve() closes, so the vTPM learns of the abort at once.
                self.trace.emit("device", "error", exc)
                return
            if reply is not None:
                agent.send_record(reply)
        endpoint = channel.ChannelEndpoint(
            handshake.session, agent, recv_timeout=self.recv_timeout
        )
        self.tmm.attach_session(endpoint)
        if self.booted:
            endpoint.send(messages.encode_boot_report(self._pending_measurements))
        self._request_loop(endpoint)

    def _request_loop(self, endpoint: channel.ChannelEndpoint) -> None:
        from . import transport as _transport

        while True:
            try:
                record = endpoint.transport.recv_record(self.recv_timeout)
            except (_transport.TransportClosed, _transport.ReceiveTimeout):
                return
            try:
                payload = channel.open_frame(endpoint.session, record)
            except channel.ChannelError as exc:
                # Unauthenticated traffic is dropped, never answered.
                self.trace.emit("device", "error", exc)
                continue
            try:
                self._handle(endpoint, payload)
            except (channel.ChannelError, messages.MessageError, wire.WireError) as exc:
                self.trace.emit("device", "error", exc)

    def _handle(self, endpoint: channel.ChannelEndpoint, payload: bytes) -> None:
        kind = messages.kind_of(payload)
        if kind == TPM_TAG_BYTE:
            endpoint.send(wire.encode(self._execute(wire.decode(payload))))
            return
        if kind == messages.UPDATE_REQ:
            channel.respond_update(endpoint, payload, self.puf)
            self.trace.emit("device", "rekey")
            return
        if kind == messages.STORE_BLOB:
            name, blob = messages.decode_store_blob(payload)
            self.file_store.put(name, blob)
            endpoint.send(messages.encode_store_ok())
            return
        raise messages.MessageError(f"unexpected channel message type {kind}")

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
