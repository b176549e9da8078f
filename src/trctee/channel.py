"""Secure channel between the vTPM and the device TMM.

Three pieces live here:

* AEAD framing: AES-256-GCM frames carrying an epoch, a per-direction
  counter (anti-replay) and a nonce derived from (direction, epoch,
  counter).  Frame overhead over the plaintext is exactly 40 bytes:
  4 (epoch) + 8 (counter) + 12 (nonce) + 16 (tag).

* The 9-step mutual authentication and session-key agreement.  The vTPM
  authenticates the device through one consumed CRP; the device
  authenticates the vTPM through its TTP-issued certificate.  Messages
  1, 2, 3, 5, 8 and 9 go over the wire; steps 4, 6 and 7 are local
  computations.

* The 9-step dynamic key update.  The new key binds the current platform
  state (hash over all 24 PCRs) and a fresh CRP response; PROTOCOL.md
  section 3 gives every derivation.  Its messages ride inside the channel.
  Each end's half is two pure steps that do no I/O: the vTPM's
  :func:`start_update` makes UPDATE_REQ and its :func:`confirm_update`
  checks UPDATE_CONFIRM_D, seals UPDATE_CONFIRM_V in the old epoch and
  switches; the device's :func:`respond_update` makes D and its
  :func:`finish_update` checks V and switches, or, if V was lost, the
  vTPM's next frame, of the new epoch, confirms.  :func:`initiate_update`
  drives the vTPM's steps over an endpoint; ``runtime.UserNode`` alone
  counts frames against the rekey threshold, and the device never refuses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import messages, wire
from . import transport as _transport
from .crypto import KEY_LEN, MAC_LEN, NONCE_LEN
from .crypto import Rng, constant_time_eq, hkdf_sha384, hmac_sha384, sha384
from .errors import TrcteeError
from .layout import REST, Layout, blob, exact, uint
from .puf import CHALLENGE_LEN, CrpStore, PufDevice
from .ttp import Certificate

TAG_LEN = 16
FRAME_HEAD = struct.Struct(">IQ")  # epoch, counter: the first 12 bytes of a frame
FRAME_OVERHEAD = FRAME_HEAD.size + NONCE_LEN + TAG_LEN  # 40
HS_NONCE_LEN = 16
Pending = tuple[bytes, bytes]  # a key update's new session key and its confirmation key

_SESS_INFO = b"trctee-sess"
_CONFIRM_INFO = b"trctee-confirm"
_WRAP_INFO = b"trctee-kd-wrap"
_REKEY_INFO = b"trctee-rekey"
_DEPLOY_INFO = b"trctee-deploy"


class ChannelError(TrcteeError):
    pass


class BadCert(ChannelError):
    token = "bad-cert"


class PufMismatch(ChannelError):
    token = "puf-mismatch"


class StaleNonce(ChannelError):
    pass


class RekeyRequired(ChannelError):
    pass


class AuthFailure(ChannelError):
    token = "auth-failure"


class ReplayDetected(ChannelError):
    token = "replay-detected"


class WrongEpoch(ChannelError):
    token = "wrong-epoch"


class ConfirmFailure(ChannelError):
    token = "confirm-failure"


class PeerAborted(ChannelError):
    """The peer sent an abort record naming the error it hit."""


class Role(Enum):
    VTPM = "vtpm"
    TMM = "tmm"


@dataclass
class SessionState:
    """One endpoint's view of an established channel."""

    sess_key: bytes
    peer_role: Role
    epoch: int = 0
    send_counter: int = 0  # last counter used for sending
    recv_counter: int = 0  # last counter accepted

    def __post_init__(self):
        if len(self.sess_key) != KEY_LEN:
            raise ValueError("session key must be 32 bytes")

    @property
    def my_role(self) -> Role:
        return Role.TMM if self.peer_role is Role.VTPM else Role.VTPM

    def switch_epoch(self, new_key: bytes) -> None:
        self.sess_key = new_key
        self.epoch += 1
        self.send_counter = 0
        self.recv_counter = 0


_CIPHERTEXT_AT = FRAME_HEAD.size + NONCE_LEN  # 24


@dataclass(frozen=True)
class Frame:
    """One sealed record: epoch, counter, nonce, then ciphertext and tag.

    The record is built in one buffer; ``encode`` hands that buffer out.
    """

    epoch: int
    counter: int
    record: bytearray

    @property
    def ciphertext(self) -> bytes:
        """The ciphertext followed by the 16-byte GCM tag."""
        return bytes(self.record[_CIPHERTEXT_AT:])

    def encode(self) -> bytearray:
        return self.record


def _nonce(direction: Role, epoch: int, counter: int) -> bytes:
    lead = 0 if direction is Role.VTPM else 1
    return bytes([lead]) + (epoch & 0xFFFFFF).to_bytes(3, "big") + counter.to_bytes(8, "big")


def seal(session: SessionState, plaintext: bytes) -> Frame:
    """Encrypt one payload as the session's next frame.  Every record that can
    be large is sealed, so one over ``transport.MAX_RECORD`` is refused here."""
    size = FRAME_OVERHEAD + len(plaintext)
    if size > _transport.MAX_RECORD:
        cap = _transport.MAX_RECORD
        raise _transport.RecordTooLarge(f"record of {size} bytes exceeds the {cap} cap")
    counter = session.send_counter + 1
    nonce = _nonce(session.my_role, session.epoch, counter)
    head = FRAME_HEAD.pack(session.epoch, counter)
    record = bytearray(size)
    record[: FRAME_HEAD.size] = head
    record[FRAME_HEAD.size : _CIPHERTEXT_AT] = nonce
    with memoryview(record) as view:
        AESGCM(session.sess_key).encrypt_into(nonce, plaintext, head, view[_CIPHERTEXT_AT:])
    session.send_counter = counter
    return Frame(epoch=session.epoch, counter=counter, record=record)


def open_frame(session: SessionState, record: bytes | bytearray) -> memoryview:
    """Authenticate and decrypt one record, enforcing epoch and anti-replay.
    The peer's abort record raises :class:`PeerAborted` naming its reason.

    The record is consumed: a ``bytearray`` is decrypted where it sits and
    the plaintext comes back as a view of it, so the caller must not use the
    record again.  A ``bytes`` record is decrypted into one fresh buffer."""
    if len(record) < FRAME_OVERHEAD:
        if len(record) == 2 and record[:1] == _ABORT_TYPE:
            peer = "device" if session.peer_role is Role.TMM else "vTPM"
            raise _peer_aborted(record, f"{peer} aborted the session")
        raise AuthFailure("frame shorter than its fixed fields")
    epoch, counter = FRAME_HEAD.unpack_from(record)
    if epoch != session.epoch:
        raise WrongEpoch(f"frame epoch {epoch}, session epoch {session.epoch}")
    if counter <= session.recv_counter:
        raise ReplayDetected(
            f"counter {counter} not above last accepted {session.recv_counter}"
        )
    nonce = _nonce(session.peer_role, epoch, counter)
    view = memoryview(record)
    if view[FRAME_HEAD.size : _CIPHERTEXT_AT] != nonce:
        raise AuthFailure("frame nonce does not match its header fields")
    if view.readonly:
        plaintext = memoryview(bytearray(len(view) - FRAME_OVERHEAD))
    else:
        plaintext = view[_CIPHERTEXT_AT:-TAG_LEN]
    try:
        AESGCM(session.sess_key).decrypt_into(
            nonce, view[_CIPHERTEXT_AT:], view[: FRAME_HEAD.size], plaintext
        )
    except InvalidTag:
        raise AuthFailure("frame failed authentication") from None
    session.recv_counter = counter
    return plaintext


def derive_deploy_key(sess_key: bytes) -> bytes:
    """Bitstream-encryption key, fixed at the epoch-0 session key."""
    return hkdf_sha384(sess_key, info=_DEPLOY_INFO, length=KEY_LEN)


def derive_updated_key(
    state_hash: bytes, response: bytes, old_key: bytes, new_epoch: int
) -> Pending:
    """The pending keys of the update to ``new_epoch``."""
    info = _REKEY_INFO + struct.pack(">I", new_epoch)
    ikm = response + old_key
    new_key = hkdf_sha384(ikm, salt=state_hash, info=info, length=KEY_LEN)
    confirm = hkdf_sha384(ikm, salt=state_hash, info=info + b"/confirm", length=KEY_LEN)
    return new_key, confirm


# -- handshake -------------------------------------------------------------------

# The wire messages, each after its type byte: HS1, HS2, HS3, HS5, HS8, HS9
# and the abort record.  Each handshake state expects one of them, so a
# message of any other shape is a StaleNonce.  A confirmation MAC of any
# length is read, and then fails to match.
_VTPM_HELLO = Layout("vTPM hello", StaleNonce, b"\x11", exact(HS_NONCE_LEN), blob(2))
_DEVICE_HELLO = Layout("device hello", StaleNonce, b"\x12", exact(HS_NONCE_LEN), blob(2, str))
_CHALLENGE = Layout("challenge", StaleNonce, b"\x13", exact(CHALLENGE_LEN), exact(32), exact(64))
_KEY_SHARE = Layout(
    "key share", StaleNonce, b"\x15", exact(32), exact(KEY_LEN + TAG_LEN), exact(MAC_LEN)
)
_VTPM_CONFIRM = Layout("vTPM confirmation", StaleNonce, b"\x18", REST)
_DEVICE_CONFIRM = Layout("device confirmation", StaleNonce, b"\x19", REST)
_ABORT_TYPE = b"\x1f"
_ABORT = Layout("abort record", StaleNonce, _ABORT_TYPE, uint(1))

# The errors an abort record may name, by reason code; 0 stands for any other
# error, and MessageError for any refused payload, every WireError included.
ABORT_REASONS = (ChannelError, BadCert, StaleNonce, ConfirmFailure, PufMismatch,
                 AuthFailure, ReplayDetected, WrongEpoch, messages.MessageError)


def abort_record(exc: Exception) -> bytes:
    """The unsealed record an end sends before it closes on a record it
    rejects: a handshake message, or the device's sealed record or its
    payload.  It is unauthenticated, so it only names the cause to report."""
    cause = messages.MessageError if isinstance(exc, wire.WireError) else type(exc)
    return _ABORT.encode(ABORT_REASONS.index(cause) if cause in ABORT_REASONS else 0)


def send_abort(transport, exc: Exception) -> None:
    """Name ``exc`` to the peer in an abort record, unless it is the peer's own
    abort, which is never answered.  A failed send is ignored: the peer may
    already be gone."""
    if isinstance(exc, PeerAborted):
        return
    try:
        transport.send_record(abort_record(exc))
    except _transport.TransportError:
        pass


def _peer_aborted(data: bytes, aborted: str) -> PeerAborted:
    (code,) = _ABORT.decode(data)
    if code >= len(ABORT_REASONS):
        return PeerAborted(f"{aborted}: unknown reason code {code}")
    return PeerAborted(f"{aborted}: {ABORT_REASONS[code].__name__}")


class _Transcript:
    """Running hash binding every prior handshake message."""

    def __init__(self):
        self._parts: list[bytes] = [b"trctee-hs-v1"]

    def absorb(self, data: bytes) -> None:
        self._parts.append(struct.pack(">I", len(data)) + data)

    def digest(self) -> bytes:
        return sha384(b"".join(self._parts))

    def fork(self, data: bytes) -> bytes:
        """Digest as if ``data`` were absorbed, without mutating the transcript."""
        return sha384(b"".join(self._parts) + struct.pack(">I", len(data)) + data)


def _wrap_key(shared: bytes) -> bytes:
    return hkdf_sha384(shared, info=_WRAP_INFO, length=KEY_LEN)


# What each role's confirmation MAC (steps 8 and 9) binds before the transcript.
_CONFIRM_LABELS = {Role.VTPM: b"vtpm-confirm", Role.TMM: b"device-confirm"}


class _Handshake:
    """What both roles share: ``on_message``'s abort check and its dispatch
    to the handler of the message the state awaits; absorbing a sent message
    and advancing (:meth:`_send`); the PUF-keyed key-share MAC of steps 5-6;
    the session-key derivation of step 7; the confirmation MACs of steps 8-9.

    Each role binds ``on_message`` in its own class body, where
    ``perfbench/tracer.py`` wraps it."""

    _peer: str  # how an abort or a failed confirmation names the other end
    _peer_role: Role

    def __init__(self, rng: Rng, state: str):
        self._rng = rng
        self._transcript = _Transcript()
        self._state = state  # the message awaited, e.g. "hs2"; then "done"
        self._nonce_v = b""
        self._nonce_d = b""
        self._confirm_key = b""
        self._sess_key = b""
        self.session: SessionState | None = None

    def on_message(self, data: bytes | bytearray) -> bytes | None:
        if data[:1] == _ABORT_TYPE:
            raise _peer_aborted(data, f"{self._peer} aborted the handshake")
        handle = getattr(self, f"_handle_{self._state}", None)
        if handle is None:
            raise StaleNonce(f"no handshake message expected in state {self._state}")
        return handle(data)

    def _send(self, msg: bytes, state: str) -> bytes:
        """``msg``, the message this role sends, absorbed; then await ``state``."""
        self._transcript.absorb(msg)
        self._state = state
        return msg

    def _key_share_mac(self, response: bytes, eph_pub: bytes, wrapped: bytes) -> bytes:
        return hmac_sha384(response, self._transcript.fork(_KEY_SHARE.encode(eph_pub, wrapped)))

    def _derive(self, response: bytes, k_d: bytes) -> None:
        ikm = response + k_d + self._nonce_v + self._nonce_d
        self._sess_key, self._confirm_key = (
            hkdf_sha384(ikm, salt=b"trctee-handshake", info=info, length=KEY_LEN)
            for info in (_SESS_INFO, _CONFIRM_INFO)
        )

    def _confirm_mac(self, role: Role) -> bytes:
        """The confirmation MAC ``role`` sends over the transcript so far."""
        return hmac_sha384(self._confirm_key, _CONFIRM_LABELS[role] + self._transcript.digest())

    def _check_confirm(self, mac: bytes) -> None:
        if not constant_time_eq(mac, self._confirm_mac(self._peer_role)):
            raise ConfirmFailure(f"{self._peer} key confirmation failed")

    def _establish(self) -> None:
        self.session = SessionState(sess_key=self._sess_key, peer_role=self._peer_role)
        self._state = "done"


class VtpmHandshake(_Handshake):
    """Initiator side.  Call start(), then feed every reply to on_message().

    Inputs: the vTPM identity (signing seed and certificate), the
    provisioned device id and the user-held CRP slice.  One CRP is consumed
    per handshake.
    """

    _peer = "device"
    _peer_role = Role.TMM

    def __init__(
        self,
        *,
        sk_tpm: bytes,
        cert: Certificate,
        device_id: str,
        crp_store: CrpStore,
        rng: Rng,
    ):
        super().__init__(rng, "start")
        self._sk = Ed25519PrivateKey.from_private_bytes(sk_tpm)
        self._cert = cert
        self._device_id = device_id
        self._crps = crp_store
        self._crp = None
        self._eph: X25519PrivateKey | None = None

    def start(self) -> bytes:
        if self._state != "start":
            raise StaleNonce("handshake already started")
        self._nonce_v = self._rng.bytes(HS_NONCE_LEN)
        return self._send(_VTPM_HELLO.encode(self._nonce_v, self._cert.encode()), "hs2")

    on_message = _Handshake.on_message

    def _handle_hs2(self, data: bytes) -> bytes:
        self._nonce_d, device_id = _DEVICE_HELLO.decode(data)
        if device_id != self._device_id:
            raise ChannelError(
                f"device identifies as {device_id!r}, provisioned for {self._device_id!r}"
            )
        self._transcript.absorb(data)
        # Step 3: consume one CRP, send its challenge plus a signed ephemeral
        # key so the device can return its key share for our eyes only.
        self._crp = self._crps.take_unused()
        self._eph = X25519PrivateKey.from_private_bytes(self._rng.bytes(32))
        eph_pub = self._eph.public_key().public_bytes_raw()
        head = _CHALLENGE.encode(self._crp.challenge, eph_pub)
        sig = self._sk.sign(self._transcript.digest() + head)
        return self._send(_CHALLENGE.encode(self._crp.challenge, eph_pub, sig), "hs5")

    def _handle_hs5(self, data: bytes) -> bytes:
        eph_d, wrapped, mac = _KEY_SHARE.decode(data)
        # Step 6: the MAC keyed by the PUF response authenticates the device.
        if not constant_time_eq(mac, self._key_share_mac(self._crp.response, eph_d, wrapped)):
            raise PufMismatch("device PUF response does not match the enrolled CRP")
        shared = self._eph.exchange(X25519PublicKey.from_public_bytes(eph_d))
        try:
            k_d = AESGCM(_wrap_key(shared)).decrypt(bytes(NONCE_LEN), wrapped, b"")
        except InvalidTag:
            raise AuthFailure("key share failed to unwrap") from None
        self._transcript.absorb(data)
        # Step 7: derive; step 8: prove key possession.
        self._derive(self._crp.response, k_d)
        return self._send(_VTPM_CONFIRM.encode(self._confirm_mac(Role.VTPM)), "hs9")

    def _handle_hs9(self, data: bytes) -> None:
        (mac_d,) = _DEVICE_CONFIRM.decode(data)
        self._check_confirm(mac_d)
        self._establish()


class DeviceHandshake(_Handshake):
    """Responder side, driven entirely by on_message()."""

    _peer = "vTPM"
    _peer_role = Role.VTPM

    def __init__(self, *, pk_ttp: bytes, device_id: str, puf: PufDevice, rng: Rng):
        super().__init__(rng, "hs1")
        self._pk_ttp = pk_ttp
        self._device_id = device_id
        self._puf = puf
        self._pk_tpm = b""

    on_message = _Handshake.on_message

    def _handle_hs1(self, data: bytes) -> bytes:
        self._nonce_v, cert_bytes = _VTPM_HELLO.decode(data)
        try:
            cert = Certificate.decode(cert_bytes)
        except ValueError as exc:
            raise BadCert(f"unparseable certificate: {exc}") from None
        # Step 2: the pre-stored TTP public key decides certificate validity.
        if not cert.verify(self._pk_ttp):
            raise BadCert("vTPM certificate does not verify under the TTP key")
        self._pk_tpm = cert.pk_tpm
        self._transcript.absorb(data)
        self._nonce_d = self._rng.bytes(HS_NONCE_LEN)
        return self._send(_DEVICE_HELLO.encode(self._nonce_d, self._device_id), "hs3")

    def _handle_hs3(self, data: bytes) -> bytes:
        challenge, eph_v, sig = _CHALLENGE.decode(data)
        # Step 4: only the certified vTPM can have signed this transcript.
        try:
            Ed25519PublicKey.from_public_bytes(self._pk_tpm).verify(
                sig, self._transcript.digest() + _CHALLENGE.encode(challenge, eph_v)
            )
        except InvalidSignature:
            raise BadCert("transcript signature does not verify under the certified key") from None
        self._transcript.absorb(data)
        response = self._puf.respond(challenge)
        # Step 5: fresh key share, wrapped for the signed ephemeral key, plus
        # the PUF-keyed transcript MAC that authenticates this device.
        k_d = self._rng.bytes(KEY_LEN)
        eph = X25519PrivateKey.from_private_bytes(self._rng.bytes(32))
        shared = eph.exchange(X25519PublicKey.from_public_bytes(eph_v))
        wrapped = AESGCM(_wrap_key(shared)).encrypt(bytes(NONCE_LEN), k_d, b"")
        eph_pub = eph.public_key().public_bytes_raw()
        mac = self._key_share_mac(response, eph_pub, wrapped)
        msg = self._send(_KEY_SHARE.encode(eph_pub, wrapped, mac), "hs8")
        self._derive(response, k_d)
        return msg

    def _handle_hs8(self, data: bytes) -> bytes:
        (mac_v,) = _VTPM_CONFIRM.decode(data)
        self._check_confirm(mac_v)
        self._transcript.absorb(data)
        msg = _DEVICE_CONFIRM.encode(self._confirm_mac(Role.TMM))
        self._establish()
        return msg


class ChannelEndpoint:
    """A session bound to a transport: sealed request/response plumbing."""

    def __init__(self, session: SessionState, transport, recv_timeout: float | None = 5.0):
        self.session = session
        self.transport = transport
        self.recv_timeout = recv_timeout

    def recv(self) -> memoryview:
        return open_frame(self.session, self.transport.recv_record(self.recv_timeout))

    def request(self, payload: bytes) -> memoryview:
        self.transport.send_record(seal(self.session, payload).encode())
        return self.recv()


def _update_mac(confirm_key: bytes, side: bytes, new_epoch: int) -> bytes:
    return hmac_sha384(confirm_key, b"update-confirm-" + side + struct.pack(">I", new_epoch))


def start_update(
    session: SessionState, challenge: bytes, response: bytes, state_hash: bytes
) -> tuple[bytes, Pending]:
    """vTPM side, first: the UPDATE_REQ payload and the pending keys."""
    new_epoch = session.epoch + 1
    pending = derive_updated_key(state_hash, response, session.sess_key, new_epoch)
    return messages.encode_update_req(challenge, state_hash, new_epoch), pending


def confirm_update(session: SessionState, payload: bytes, pending: Pending) -> bytearray:
    """vTPM side, on UPDATE_CONFIRM_D: the sealed UPDATE_CONFIRM_V record."""
    new_key, confirm_key = pending
    mac_d = messages.decode_update_confirm(payload, messages.UPDATE_CONFIRM_D)
    if not constant_time_eq(mac_d, _update_mac(confirm_key, b"d", session.epoch + 1)):
        raise ConfirmFailure("device confirmation of the updated key failed")
    mac_v = _update_mac(confirm_key, b"v", session.epoch + 1)
    frame = seal(session, messages.encode_update_confirm(messages.UPDATE_CONFIRM_V, mac_v))
    session.switch_epoch(new_key)
    return frame.encode()


def initiate_update(
    endpoint: ChannelEndpoint, challenge: bytes, response: bytes, state_hash: bytes
) -> None:
    """The vTPM's two update steps, driven over ``endpoint``."""
    payload, pending = start_update(endpoint.session, challenge, response, state_hash)
    reply = endpoint.request(payload)
    endpoint.transport.send_record(confirm_update(endpoint.session, reply, pending))


def respond_update(session: SessionState, payload: bytes, puf: PufDevice) -> tuple[bytes, Pending]:
    """Device side, on UPDATE_REQ: the UPDATE_CONFIRM_D payload and the pending keys."""
    challenge, state_hash, new_epoch = messages.decode_update_req(payload)
    if new_epoch != session.epoch + 1:
        raise ConfirmFailure(f"update proposes epoch {new_epoch}, expected {session.epoch + 1}")
    response = puf.respond(challenge)
    pending = derive_updated_key(state_hash, response, session.sess_key, new_epoch)
    mac_d = _update_mac(pending[1], b"d", new_epoch)
    return messages.encode_update_confirm(messages.UPDATE_CONFIRM_D, mac_d), pending


def finish_update(session: SessionState, payload: bytes, pending: Pending) -> None:
    """Device side, on UPDATE_CONFIRM_V: check it and switch to the pending key."""
    new_key, confirm_key = pending
    mac_v = messages.decode_update_confirm(payload, messages.UPDATE_CONFIRM_V)
    if not constant_time_eq(mac_v, _update_mac(confirm_key, b"v", session.epoch + 1)):
        raise ConfirmFailure("vTPM confirmation of the updated key failed")
    session.switch_epoch(new_key)
