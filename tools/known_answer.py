"""Write the known-answer session: one whole baseline run, field by field.

    PYTHONPATH=src python3 tools/known_answer.py

Runs ``scenarios/baseline.txt`` in process at seed 5 and writes
``tests/golden/baseline_session.txt`` (PROTOCOL.md, Appendix A).  The file
lists each HKDF derivation of the run where it happens, with its inputs and
output, and each record the user's tap logged, in order, with its direction
and its layout, each field named with its hex.  Sealed frames are opened
with the derived keys, and their plaintexts are split in turn.

Fields are named and sized by the grammars of PROTOCOL.md section 1.5 alone,
so the file is that text applied to the bytes of a real run.  The script
stops with an error if a grammar does not use up its record exactly, or if
a MAC does not recompute from the labels of section 3.  It reads public
names only, and records the derivations by wrapping ``channel.hkdf_sha384``.
"""

import re
import struct
import sys
from pathlib import Path
from unittest import mock

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from trctee import channel, messages, scenario, ttp, wire
from trctee.crypto import constant_time_eq, hmac_sha384, sha3_384, sha384

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = ROOT / "PROTOCOL.md"
SCENARIO = ROOT / "scenarios" / "baseline.txt"
GOLDEN = ROOT / "tests" / "golden" / "baseline_session.txt"
SEED = 5

# "  - `name` ...: `grammar`", as tests/test_messages.py reads them.
ENTRY = re.compile(r"^ +- `([^`]+)`[^`\n]*: `([^`]+)`", re.M)
HANDSHAKE = {0x11: "HS1", 0x12: "HS2", 0x13: "HS3", 0x15: "HS5", 0x18: "HS8", 0x19: "HS9"}
MESSAGES = {
    messages.BOOT_REPORT: "boot report",
    messages.UPDATE_REQ: "update request",
    messages.UPDATE_CONFIRM_D: "update confirmation D",
    messages.UPDATE_CONFIRM_V: "update confirmation V",
    messages.STORE_BLOB: "store blob",
    messages.STORE_OK: "store ok",
}
# A field that holds a record of its own layout.
NESTED = {"cert": "certificate", "blob": "encrypted bitstream"}
TEXT = {"device_id", "user_id", "name", "kernel_id"}
HEX_WIDTH = 64


def grammars() -> dict[str, list[str]]:
    section = PROTOCOL.read_text(encoding="utf-8").split("## 1. Message flow")[1]
    section = section.split("\n## ")[0]
    return {name: grammar.split(" || ") for name, grammar in ENTRY.findall(section)}


def constant(token: str) -> bytes | None:
    if re.fullmatch(r"0x(?:[0-9A-F]{2})+", token):
        return bytes.fromhex(token[2:])
    if magic := re.fullmatch(r'"(\w+)"', token):
        return magic[1].encode()
    return None


def _bytes(n: int) -> str:
    return f"{n} byte" + "s" * (n != 1)


def size(token: str) -> int | None:
    sized = re.fullmatch(r"\w+\((\d+)\)", token)
    return int(sized[1]) if sized else None


class Session:
    """The run's records, written out one layout at a time."""

    def __init__(self):
        self.grammars = grammars()
        self.lines: list[str] = []
        # (ikm, salt, info, length, okm, records logged before it), each derivation once
        self.derived: list[tuple[bytes, bytes, bytes, int, bytes, int]] = []
        self.shown = 0  # the derivations written out so far
        self.transcript = [b"trctee-hs-v1"]
        self.to_device = self.to_user = None  # the device's and the user's view of the session
        self.last_command = 0
        self.pk_tpm = b""  # the certified key, from HS1

    def out(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def field(self, depth: int, name: str, data: bytes, note: str = "") -> None:
        hexed = data.hex() or "(empty)"
        rows = [hexed[i : i + HEX_WIDTH] for i in range(0, len(hexed), HEX_WIDTH)]
        self.out(depth, f"{name:<24} {rows[0]}{note}")
        for row in rows[1:]:
            self.out(depth, f"{'':<24} {row}")

    def split(self, depth: int, layout: str, data: bytes, whole: bool = True) -> tuple[dict, int]:
        """Name every field of ``data`` by ``layout``'s grammar: the fields by
        name, and the bytes they take, which are all of ``data`` when ``whole``."""
        tokens, at, values = self.grammars[layout], 0, {}
        for i, token in enumerate(tokens):
            const, n = constant(token), size(token)
            name = token if const is not None else token.split("(")[0]
            if const is not None:
                n = len(const)
                if data[at : at + n] != const:
                    sys.exit(f"{layout}: expected {token} at byte {at}")
            elif n is None and i and tokens[i - 1].endswith("_len", 0, tokens[i - 1].find("(")):
                n = int.from_bytes(values[tokens[i - 1].split("(")[0]], "big")
            elif n is None:  # runs to the end, less the fixed fields after it
                n = len(data) - at - sum(size(t) or len(constant(t) or b"") for t in tokens[i + 1 :])
            value = data[at : at + n]
            if len(value) != n or n < 0:
                sys.exit(f"{layout}: {token} runs past the end of {len(data)} bytes")
            values[name], at = value, at + n
            if name == "measurements":
                count = int.from_bytes(values["count"], "big")
                self.out(depth, f"{name:<24} {count} records of boot measurement")
                for _ in range(count):
                    value = value[self.split(depth + 1, "boot measurement", value, False)[1] :]
                if value:
                    sys.exit(f"{layout}: {len(value)} bytes after the last measurement")
            elif name in NESTED:
                self.out(depth, f"{name:<24} {NESTED[name]}, {_bytes(n)}")
                self.split(depth + 1, NESTED[name], value)
            else:
                text = f'  "{value.decode()}"' if name in TEXT else ""
                self.field(depth, name, value, text)
        if whole and at != len(data):
            sys.exit(f"{layout}: {len(data) - at} bytes left after the last field")
        if layout == "encrypted bitstream":
            self.bitstream(depth, values)
        return values, at

    def bitstream(self, depth: int, values: dict[str, bytes]) -> None:
        """The image the TMM decrypts under the deploy key, and its ``Hash(Bin)``."""
        image = AESGCM(self.key(b"trctee-deploy")).decrypt(
            values["nonce"], values["ciphertext"], values["ip_num"]
        )
        self.out(depth, f"decrypted under the deploy key: IP image, {_bytes(len(image))}")
        self.split(depth + 1, "IP image", image)
        self.field(depth + 1, "Hash(Bin), SHA3-384", sha3_384(image))

    # -- the key schedule --------------------------------------------------------

    def derivations(self, upto: int) -> None:
        """The derivations made before record ``upto`` was logged, each once."""
        for ikm, salt, info, length, okm, logged in self.derived[self.shown :]:
            if logged > upto:
                return
            self.shown += 1
            label = "".join(chr(b) if 32 <= b < 127 else f"\\x{b:02x}" for b in info)
            self.out(0, f'hkdf-sha384 "{label}"')
            self.field(1, "salt", salt)
            self.field(1, "ikm", ikm)
            self.field(1, "info", info)
            self.out(1, f"{'length':<24} {length}")
            self.field(1, "okm", okm)
            self.out(0, "")

    def key(self, info: bytes) -> bytes:
        return next(okm for _, _, i, _, okm, _ in self.derived if i == info)

    # -- records ---------------------------------------------------------------------

    def record(self, no: int, direction: str, data: bytes) -> None:
        if self.to_device is None and data[0] in HANDSHAKE:
            layout = HANDSHAKE[data[0]]
        elif len(data) == 2 and data[0] == 0x1F:
            layout = "abort"
        else:
            layout = "sealed frame"
        self.out(0, f"record {no}  {direction}  {layout}, {_bytes(len(data))}")
        values, _ = self.split(1, layout, data)
        if layout in HANDSHAKE.values():
            self.handshake(layout, data, values)
        elif layout == "sealed frame":
            self.sealed(direction, data)
        self.out(0, "")

    def handshake(self, layout: str, data: bytes, values: dict[str, bytes]) -> None:
        """Check the signature or MAC of ``data`` as section 3 states it, then absorb it."""
        digest = sha384(b"".join(self.transcript))
        if layout == "HS1":
            self.pk_tpm = ttp.Certificate.decode(values["cert"]).pk_tpm
        elif layout == "HS3":
            try:
                Ed25519PublicKey.from_public_bytes(self.pk_tpm).verify(values["sig"], digest + data[:37])
            except InvalidSignature:
                sys.exit("HS3: the signature does not cover what PROTOCOL.md states")
        elif layout == "HS5":
            response = next(ikm for ikm, _, info, *_ in self.derived if info == b"trctee-sess")[:32]
            forked = sha384(b"".join(self.transcript) + struct.pack(">I", 81) + data[:81])
            self.check(layout, values["mac"], hmac_sha384(response, forked))
        elif layout in ("HS8", "HS9"):
            label = b"vtpm-confirm" if layout == "HS8" else b"device-confirm"
            self.check(layout, values["mac"], hmac_sha384(self.key(b"trctee-confirm"), label + digest))
        self.transcript.append(struct.pack(">I", len(data)) + data)
        self.field(1, "transcript digest", sha384(b"".join(self.transcript)))
        if layout == "HS9":
            key = self.key(b"trctee-sess")
            self.to_device = channel.SessionState(key, channel.Role.VTPM)
            self.to_user = channel.SessionState(key, channel.Role.TMM)

    def sealed(self, direction: str, data: bytes) -> None:
        session = self.to_device if direction == "user->device" else self.to_user
        plaintext = bytes(channel.open_frame(session, bytes(data)))
        if plaintext[0] == wire.TAG_NO_SESSIONS >> 8:
            if direction == "user->device":
                self.last_command = int.from_bytes(plaintext[6:10], "big")
                layout = wire.EXTENDED[self.last_command][0].layout.name
            else:
                layout = wire.EXTENDED[self.last_command][1].layout.name
        else:
            layout = MESSAGES[plaintext[0]]
        self.out(1, f"plaintext: {layout}, {_bytes(len(plaintext))}")
        values, _ = self.split(2, layout, plaintext)
        if not layout.startswith("update confirmation"):
            return
        info = b"trctee-rekey" + struct.pack(">I", self.to_device.epoch + 1)
        label = b"update-confirm-" + layout[-1].lower().encode() + info[-4:]
        self.check(layout, values["mac"], hmac_sha384(self.key(info + b"/confirm"), label))
        if layout == "update confirmation V":  # both ends switch once V is sealed and opened
            self.to_device.switch_epoch(self.key(info))
            self.to_user.switch_epoch(self.key(info))

    @staticmethod
    def check(layout: str, mac: bytes, expected: bytes) -> None:
        if not constant_time_eq(mac, expected):
            sys.exit(f"{layout}: the MAC does not recompute from the labels of PROTOCOL.md")


def render() -> str:
    """The known-answer session file, as :func:`main` writes it."""
    session = Session()
    runner = scenario.ScenarioRunner(scenario.load_scenario(str(SCENARIO)), seed=SEED)
    derive = channel.hkdf_sha384
    seen = set()

    def recorded(ikm, *, salt=b"", info=b"", length=32):
        okm = derive(ikm, salt=salt, info=info, length=length)
        if (ikm, salt, info, length) not in seen:  # both ends derive each key
            seen.add((ikm, salt, info, length))
            session.derived.append((ikm, salt, info, length, okm, len(runner.tap.log)))
        return okm

    with mock.patch.object(channel, "hkdf_sha384", recorded):
        report = runner.run()
    if report.exit_code != 0:
        sys.exit(f"{SCENARIO.name} failed:\n{report.text()}")
    session.out(0, f"# Known-answer session: {SCENARIO.relative_to(ROOT)}, in process, seed {SEED}.")
    session.out(0, "# Fields are named by the byte layouts of PROTOCOL.md section 1.5; every")
    session.out(0, "# HKDF-SHA-384 derivation appears where it is first made (section 3).")
    session.out(0, "# Regenerate with: PYTHONPATH=src python3 tools/known_answer.py")
    session.out(0, "")
    for no, (direction, record) in enumerate(report.frame_transcript, 1):
        session.derivations(no - 1)
        session.record(no, direction, bytes(record))
    session.derivations(len(report.frame_transcript))
    return "\n".join(session.lines).rstrip("\n") + "\n"


def main() -> int:
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
