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

CHALLENGE_LEN = 4
RESPONSE_LEN = 32
CRP_HEADER = "trctee-crps v1"


class CrpExhausted(Exception):
    """No unused challenge-response pair is available."""


class PufDevice:
    """A device's PUF: a fixed 32-byte fabrication secret keying the PRF."""

    def __init__(self, device_seed: bytes):
        if len(device_seed) != 32:
            raise ValueError("device seed must be 32 bytes")
        self._seed = device_seed

    def respond(self, challenge: bytes) -> bytes:
        if len(challenge) != CHALLENGE_LEN:
            raise ValueError("challenge must be exactly 4 bytes")
        return hmac.new(self._seed, challenge, hashlib.sha256).digest()


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
        for record in self._records.values():
            if not record.used:
                return self._consume(record)
        raise CrpExhausted(f"no unused CRP left in {self.owner} store")

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
    """Collect ``n`` CRPs with distinct challenges drawn without replacement."""
    if n < 1:
        raise ValueError("enrollment count must be at least 1")
    if n > 2 ** (8 * CHALLENGE_LEN):
        raise ValueError("challenge space exhausted")
    rng = rng or Rng()
    store = CrpStore(owner="ttp")
    seen: set[bytes] = set()
    while len(seen) < n:
        challenge = rng.bytes(CHALLENGE_LEN)
        if challenge in seen:
            continue
        seen.add(challenge)
        store.add(CrpRecord(challenge=challenge, response=device.respond(challenge)))
    return store
