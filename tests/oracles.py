"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: the HKDF is spelled
out as raw HMAC extract-then-expand, the PCR chain is recomputed from
scratch, the matrix multiply is the naive triple loop, and the invoke
encoders concatenate one field at a time.
"""

import hashlib
import hmac
import importlib
import struct


def reference_hkdf(ikm: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """RFC 5869 HKDF over SHA-384, written out by hand."""
    hash_len = 48
    if not salt:
        salt = bytes(hash_len)
    prk = hmac.new(salt, ikm, hashlib.sha384).digest()
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha384).digest()
        okm += block
        counter += 1
    return okm[:length]


def pcr_chain(digests: list[bytes]) -> bytes:
    """Fold digests into one register starting from the 48-byte zero state."""
    register = bytes(48)
    for digest in digests:
        register = hashlib.sha384(register + digest).digest()
    return register


def brute_matmul8(a: bytes, b: bytes) -> bytes:
    """8x8 byte matrix product mod 256, index arithmetic spelled out."""
    assert len(a) == 64 and len(b) == 64
    out = []
    for i in range(8):
        for j in range(8):
            total = 0
            for k in range(8):
                total = (total + a[i * 8 + k] * b[k * 8 + j]) % 256
            out.append(total)
    return bytes(out)


def bytewise_xor(params: bytes, data: bytes) -> bytes:
    """XOR of two equal-length strings, one byte at a time."""
    assert len(params) == len(data)
    return bytes(a ^ b for a, b in zip(data, params))


def bytewise_add_const(params: bytes, data: bytes) -> bytes:
    """Add ``params[0]`` to every byte mod 256, one byte at a time."""
    return bytes((b + params[0]) % 256 for b in data)


def concat_invoke_cmd(ip_num: int, data: bytes, flag: int) -> bytes:
    """Invoke_CMD built field by field: tag, length, code, serial, input
    length, input, flag."""
    body = struct.pack(">H", ip_num) + struct.pack(">I", len(data))
    body = body + data + struct.pack(">I", flag)
    header = struct.pack(">H", 0x8001) + struct.pack(">I", 10 + len(body))
    return header + b"\x3f\x00\x00\x00" + body


def concat_invoke_resp(output: bytes, response_code: int) -> bytes:
    """Invoke response built field by field: tag, length, response code,
    output length, output."""
    body = struct.pack(">I", len(output)) + output
    header = struct.pack(">H", 0x8001) + struct.pack(">I", 10 + len(body))
    return header + struct.pack(">I", response_code) + body


def enroll_reference(seed: bytes, n: int, rng) -> list[tuple[bytes, bytes, bool]]:
    """CRP enrollment as one ``rng.bytes(4)`` draw per challenge and a fresh
    ``hmac.new`` per response; colliding draws are skipped.  Returns
    ``(challenge, response, used)`` in enrollment order."""
    seen = set()
    out = []
    while len(seen) < n:
        challenge = rng.bytes(4)
        if challenge in seen:
            continue
        seen.add(challenge)
        out.append((challenge, hmac.new(seed, challenge, hashlib.sha256).digest(), False))
    return out


# The scenario outcome token of each typed error, as the runner once kept it
# in one table of ``module.Class`` names, matched by ``isinstance`` in order.
ERROR_TOKENS = {
    "channel.BadCert": "bad-cert",
    "channel.PufMismatch": "puf-mismatch",
    "channel.AuthFailure": "auth-failure",
    "channel.ReplayDetected": "replay-detected",
    "channel.WrongEpoch": "wrong-epoch",
    "transport.ReceiveTimeout": "timeout",
    "channel.ConfirmFailure": "confirm-failure",
    "puf.CrpExhausted": "crp-exhausted",
    "device.NotDeployed": "not-deployed",
    "device.KernelFault": "kernel-fault",
    "device.BadImage": "bad-image",
    "device.NotFound": "not-found",
}


def table_token(cls: type) -> str:
    """The token the table gives an error of class ``cls``: that of the
    first entry it derives from, else ``error:<ClassName>``."""
    for name, token in ERROR_TOKENS.items():
        module, _, attr = name.partition(".")
        if issubclass(cls, getattr(importlib.import_module(f"trctee.{module}"), attr)):
            return token
    return f"error:{cls.__name__}"
