"""Deterministic SRAM-PUF simulation and single-use CRP bookkeeping.

The physical PUF is modeled as a keyed PRF over the challenge (noiseless:
no fuzzy extraction).  Challenge-response pairs are enrolled into stores
that enforce the single-use rule and can be persisted to disk.  A store
loaded from disk writes itself back before any CRP it hands out leaves
the process, so a CRP is used once even across processes.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from . import statefile
from .crypto import Rng
from .errors import TrcteeError

CHALLENGE_LEN = 4
RESPONSE_LEN = 32
CRP_HEADER = "trctee-crps v1"


class CrpExhausted(TrcteeError):
    """No unused challenge-response pair is available."""

    token = "crp-exhausted"


class PufDevice:
    """A device's PUF: a fixed 32-byte fabrication secret keying the PRF,
    HMAC-SHA256.  The pad states are hashed once; each response resumes
    copies of them."""

    def __init__(self, device_seed: bytes):
        if len(device_seed) != 32:
            raise ValueError("device seed must be 32 bytes")
        key = device_seed.ljust(hashlib.sha256().block_size, b"\0")
        self._inner = hashlib.sha256(key.translate(hmac.trans_36))
        self._outer = hashlib.sha256(key.translate(hmac.trans_5C))

    def respond(self, challenge: bytes) -> bytes:
        if len(challenge) != CHALLENGE_LEN:
            raise ValueError("challenge must be exactly 4 bytes")
        inner = self._inner.copy()
        inner.update(challenge)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


@dataclass
class CrpRecord:
    challenge: bytes
    response: bytes
    used: bool = False


class CrpStore:
    """Challenge-keyed set of CRPs with single-use take semantics."""

    def __init__(self, owner: str = "ttp"):
        self.owner = owner
        self.path: str | None = None  # set by load(): every take is written here
        self._records: dict[bytes, CrpRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def add(self, record: CrpRecord) -> None:
        if record.challenge in self._records:
            raise ValueError(f"duplicate challenge {record.challenge.hex()}")
        self._records[record.challenge] = record

    def records(self) -> list[CrpRecord]:
        return list(self._records.values())

    def challenges(self) -> set[bytes]:
        return set(self._records)

    def unused_count(self) -> int:
        return sum(1 for r in self._records.values() if not r.used)

    def take_unused(self) -> CrpRecord:
        """Return the next unused record, atomically marking it used."""
        return self.take(self.peek_unused_challenge())

    def take(self, challenge: bytes) -> CrpRecord:
        """Consume the record for a specific challenge; it must be unused."""
        record = self._records.get(challenge)
        if record is None or record.used:
            raise CrpExhausted(f"challenge {challenge.hex()} unknown or already used")
        return self._consume(record)

    def _consume(self, record: CrpRecord) -> CrpRecord:
        """Mark ``record`` used; a store loaded from disk is written back
        before the caller can send the challenge (write-ahead)."""
        record.used = True
        if self.path is not None:
            self.save(self.path)
        return record

    def peek_unused_challenge(self) -> bytes:
        """Challenge of the next unused record, without consuming it."""
        for record in self._records.values():
            if not record.used:
                return record.challenge
        raise CrpExhausted(f"no unused CRP left in {self.owner} store")

    def split(self, n: int, owner: str) -> "CrpStore":
        """Move ``n`` unused records out into a new store (provisioning)."""
        if n < 1:
            raise ValueError("slice size must be at least 1")
        unused = [r for r in self._records.values() if not r.used]
        if len(unused) < n:
            raise CrpExhausted(f"need {n} unused CRPs, have {len(unused)}")
        out = CrpStore(owner=owner)
        for record in unused[:n]:
            del self._records[record.challenge]
            out.add(record)
        return out

    def save(self, path: str) -> None:
        """Persist as `hex(challenge) hex(response) used_flag` records."""
        lines = (f"{r.challenge.hex()} {r.response.hex()} {int(r.used)}" for r in self.records())
        statefile.write(path, CRP_HEADER, lines)

    @classmethod
    def load(cls, path: str, owner: str = "ttp") -> "CrpStore":
        store = cls(owner=owner)
        records, _ = statefile.read(path, CRP_HEADER)
        for no, fields in records:
            with statefile.located(path, no):
                challenge, response, used = fields
                if used not in ("0", "1"):
                    raise ValueError(f"used flag must be 0 or 1, got {used!r}")
                store.add(
                    CrpRecord(
                        challenge=statefile.hex_bytes(challenge, CHALLENGE_LEN),
                        response=statefile.hex_bytes(response, RESPONSE_LEN),
                        used=used == "1",
                    )
                )
        store.path = path
        return store


def enroll(device: PufDevice, n: int, rng: Rng | None = None) -> CrpStore:
    """Collect ``n`` CRPs with distinct challenges drawn without replacement.

    Each draw is the head of one DRBG block; a draw that repeats an enrolled
    challenge is skipped.
    """
    if n < 1:
        raise ValueError("enrollment count must be at least 1")
    if n > 2 ** (8 * CHALLENGE_LEN):
        raise ValueError("challenge space exhausted")
    store = CrpStore(owner="ttp")
    records = store._records
    for block in (rng or Rng()).blocks():
        challenge = block[:CHALLENGE_LEN]
        if challenge not in records:
            records[challenge] = CrpRecord(challenge, device.respond(challenge))
            if len(records) == n:
                return store
