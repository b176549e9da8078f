"""Trusted third party: device registry with golden boot manifests and
CRPs, vTPM enrollment with certificate issuance, and user provisioning.

Certificates are a fixed-layout binary record signed with Ed25519:

    version(1) || uid_len(2) || uid || pk_tpm(32) || signature(64)

The signature covers everything before it.  The signing key never leaves
this module; callers only see the 32-byte public key.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

from typing import TYPE_CHECKING

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import puf, statefile
from .crypto import Rng, sha384

if TYPE_CHECKING:
    from .device import BootImage

CERT_VERSION = 1
DEFAULT_ENROLL_CRPS = 256
DEFAULT_SLICE_SIZE = 64
REGISTRY_HEADER = "trctee-registry v1"


class TtpError(Exception):
    pass


class DuplicateDevice(TtpError):
    pass


class UnknownUser(TtpError):
    pass


class UnknownDevice(TtpError):
    pass


class NotFound(TtpError):
    pass


@dataclass(frozen=True)
class Certificate:
    """Binding of a vTPM public key to a user id, signed by the TTP."""

    user_id: str
    pk_tpm: bytes
    signature: bytes

    @staticmethod
    def signed_payload(user_id: str, pk_tpm: bytes) -> bytes:
        uid = user_id.encode()
        return struct.pack(">BH", CERT_VERSION, len(uid)) + uid + pk_tpm

    def encode(self) -> bytes:
        return self.signed_payload(self.user_id, self.pk_tpm) + self.signature

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        if len(data) < 3:
            raise ValueError("certificate too short")
        version, uid_len = struct.unpack_from(">BH", data)
        if version != CERT_VERSION:
            raise ValueError(f"unsupported certificate version {version}")
        if len(data) != 3 + uid_len + 32 + 64:
            raise ValueError("certificate length mismatch")
        uid = data[3 : 3 + uid_len].decode()
        pk = data[3 + uid_len : 3 + uid_len + 32]
        sig = data[3 + uid_len + 32 :]
        return cls(user_id=uid, pk_tpm=pk, signature=sig)

    def verify(self, pk_ttp: bytes) -> bool:
        try:
            Ed25519PublicKey.from_public_bytes(pk_ttp).verify(
                self.signature, self.signed_payload(self.user_id, self.pk_tpm)
            )
            return True
        except InvalidSignature:
            return False


def check_identifier(name: str) -> str:
    """``name`` if it can name a user or device, and so a file in the store."""
    if not name or not name.isprintable() or any(c.isspace() or c in "/\\" for c in name):
        raise ValueError(f"identifier must be non-empty, without whitespace or '/': {name!r}")
    return name


@dataclass
class DeviceRecord:
    device_id: str
    crp_store: puf.CrpStore
    golden_manifest: list[tuple[str, bytes]]


@dataclass(frozen=True)
class VtpmBundle:
    """Everything the TTP hands a user at vTPM enrollment."""

    user_id: str
    sk_tpm: bytes  # 32-byte Ed25519 seed; the user keeps this secret
    pk_tpm: bytes
    cert: Certificate
    pk_ttp: bytes


class TtpService:
    """Enrollment and certification authority backed by one registry."""

    def __init__(self, rng: Rng | None = None, enroll_crps: int = DEFAULT_ENROLL_CRPS):
        self._rng = rng or Rng()
        self._enroll_crps = enroll_crps
        self._sk = Ed25519PrivateKey.from_private_bytes(self._rng.bytes(32))
        self._users: set[str] = set()
        self._devices: dict[str, DeviceRecord] = {}
        self._certs: dict[bytes, Certificate] = {}  # security database, by PK_TPM

    @property
    def pk_ttp(self) -> bytes:
        return self._sk.public_key().public_bytes_raw()

    def register_user(self, user_id: str) -> None:
        self._users.add(check_identifier(user_id))

    def enroll_device(
        self, device_id: str, device: puf.PufDevice, boot_image: "BootImage"
    ) -> DeviceRecord:
        """Register a device: measure its golden boot chain, collect CRPs."""
        check_identifier(device_id)
        if device_id in self._devices:
            raise DuplicateDevice(f"device {device_id} already enrolled")
        manifest = [(name, sha384(blob)) for name, blob in boot_image.items()]
        record = DeviceRecord(
            device_id=device_id,
            crp_store=puf.enroll(device, self._enroll_crps, self._rng),
            golden_manifest=manifest,
        )
        self._devices[device_id] = record
        return record

    def enroll_vtpm(self, user_id: str) -> VtpmBundle:
        """Generate the vTPM keypair and certificate for a registered user."""
        if user_id not in self._users:
            raise UnknownUser(f"user {user_id} is not registered")
        seed = self._rng.bytes(32)
        pk = Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
        signature = self._sk.sign(Certificate.signed_payload(user_id, pk))
        cert = Certificate(user_id=user_id, pk_tpm=pk, signature=signature)
        self._certs[pk] = cert
        return VtpmBundle(
            user_id=user_id, sk_tpm=seed, pk_tpm=pk, cert=cert, pk_ttp=self.pk_ttp
        )

    def provision_user(
        self, user_id: str, device_id: str, slice_size: int = DEFAULT_SLICE_SIZE
    ) -> tuple[str, list[tuple[str, bytes]], puf.CrpStore]:
        """Hand a user the device info plus a disjoint slice of unused CRPs."""
        if user_id not in self._users:
            raise UnknownUser(f"user {user_id} is not registered")
        record = self._devices.get(device_id)
        if record is None:
            raise UnknownDevice(f"device {device_id} is not enrolled")
        crp_slice = record.crp_store.split(slice_size, owner="user")
        return device_id, list(record.golden_manifest), crp_slice

    def lookup_cert(self, pk_tpm: bytes) -> Certificate:
        cert = self._certs.get(pk_tpm)
        if cert is None:
            raise NotFound("no certificate for that public key")
        return cert

    def device_record(self, device_id: str) -> DeviceRecord:
        record = self._devices.get(device_id)
        if record is None:
            raise UnknownDevice(f"device {device_id} is not enrolled")
        return record

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the registry; per-device CRP stores land in sibling files."""
        directory = os.path.dirname(os.path.abspath(path))
        lines = [f"ttpkey {self._sk.private_bytes_raw().hex()}"]
        lines += [f"user {user}" for user in sorted(self._users)]
        for device_id, record in self._devices.items():
            lines.append(f"device {device_id} {statefile.encode_manifest(record.golden_manifest)}")
            record.crp_store.save(os.path.join(directory, f"crps_ttp_{device_id}.txt"))
        lines += [f"cert {cert.encode().hex()}" for cert in self._certs.values()]
        statefile.write(path, REGISTRY_HEADER, lines)

    @classmethod
    def load(cls, path: str) -> "TtpService":
        """Inverse of :meth:`save`; exactly one ``ttpkey`` record."""
        directory = os.path.dirname(os.path.abspath(path))
        records, end = statefile.read(path, REGISTRY_HEADER)
        ttp = cls.__new__(cls)
        ttp._rng = Rng()
        ttp._enroll_crps = DEFAULT_ENROLL_CRPS
        ttp._sk, ttp._users, ttp._devices, ttp._certs = None, set(), {}, {}
        for no, (kind, *values) in records:
            with statefile.located(path, no):
                if kind == "ttpkey" and ttp._sk is None:
                    (key,) = values
                    ttp._sk = Ed25519PrivateKey.from_private_bytes(statefile.hex_bytes(key, 32))
                elif kind == "user":
                    (user,) = values
                    ttp._users.add(check_identifier(user))
                elif kind == "device":
                    device_id, manifest = values
                    if device_id in ttp._devices:
                        raise ValueError(f"second record for device {device_id}")
                    ttp._devices[device_id] = DeviceRecord(
                        device_id=check_identifier(device_id),
                        golden_manifest=statefile.decode_manifest(manifest),
                        crp_store=puf.CrpStore.load(
                            os.path.join(directory, f"crps_ttp_{device_id}.txt"), owner="ttp"
                        ),
                    )
                elif kind == "cert":
                    (cert_hex,) = values
                    cert = Certificate.decode(statefile.hex_bytes(cert_hex))
                    ttp._certs[cert.pk_tpm] = cert
                else:
                    raise ValueError(f"unexpected registry record {kind!r}")
        if ttp._sk is None:
            raise statefile.StateFileError(path, end, "no ttpkey record")
        return ttp
