"""One codec for the on-disk state files: CRP stores, the TTP registry, the
CLI's device and user files, and the user's history.  Each is UTF-8 text, a
header line naming its kind and version, then one record of space-separated
fields per line; blank lines are skipped.  Every error names the file and line.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from .crypto import DIGEST_LEN
from .errors import TrcteeError


class StateFileError(TrcteeError, ValueError):
    """A state file that is missing, unreadable or malformed."""

    exit_code = 2

    def __init__(self, path: str, line: int | None, reason: str):
        super().__init__(f"{path}{'' if line is None else f' line {line}'}: {reason}")


def read(
    path: str, header: str, error: type[StateFileError] = StateFileError
) -> tuple[list[tuple[int, list[str]]], int]:
    """The records after ``header`` as (line number, fields), and the number
    of the line after the last record."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().decode("utf-8").split("\n")
    except OSError as exc:
        raise error(path, None, f"cannot read: {exc.strerror or exc}") from None
    except UnicodeError:
        raise error(path, None, "cannot read: not UTF-8 text") from None
    records = [(no, fields) for no, line in enumerate(lines, 1) if (fields := line.split())]
    if not records or records[0][1] != header.split():
        raise error(path, records[0][0] if records else 1, f"expected the header {header!r}")
    return records[1:], records[-1][0] + 1


@contextmanager
def located(path: str, line: int, error: type[StateFileError] = StateFileError) -> Iterator[None]:
    """Re-raise a ``ValueError`` from the block as ``error`` at ``path`` and ``line``."""
    try:
        yield
    except StateFileError:
        raise
    except ValueError as exc:
        raise error(path, line, str(exc)) from None


def read_keys(
    path: str,
    header: str,
    fields: dict[str, Callable],
    optional: dict[str, Callable] | None = None,
) -> dict:
    """Decode ``key value`` records: the keys of ``fields`` in order, then all
    or none of the keys of ``optional``, each value through its key's decoder."""
    records, end = read(path, header)
    schema = [*fields.items(), *(optional or {}).items()]
    values = {}
    for (no, record), (key, decode) in zip(records, schema):
        with located(path, no):
            if record[0] != key:
                raise ValueError(f"expected the {key!r} record, got {record[0]!r}")
            _, value = record
            values[key] = decode(value)
    if len(records) > len(schema):
        no, (key, *_) = records[len(schema)]
        raise StateFileError(path, no, f"unexpected record {key!r}")
    if len(values) not in (len(fields), len(schema)):
        raise StateFileError(path, end, f"no {schema[len(values)][0]!r} record")
    return values


def write(path: str, header: str, lines: Iterable[str]) -> None:
    """Replace the state file ``path`` durably: its header, then its lines."""
    replace(path, ("\n".join([header, *lines]) + "\n").encode())


def replace(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data``, durably (a state file, the exported event
    log or a blob of the device's file store): write and ``fsync`` a temporary
    file, ``os.replace`` it over ``path``, then ``fsync`` the directory."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except OSError as exc:
        raise StateFileError(path, None, f"cannot write: {exc.strerror or exc}") from None


def hex_bytes(text: str, length: int | None = None) -> bytes:
    """``text`` as hex digits, exactly ``length`` bytes when given."""
    data = bytes.fromhex(text)
    if length is not None and len(data) != length:
        raise ValueError(f"expected {2 * length} hex digits, got {len(text)}")
    return data


def encode_manifest(manifest: list[tuple[str, bytes]]) -> str:
    return ",".join(f"{name}={digest.hex()}" for name, digest in manifest)


def decode_manifest(text: str) -> list[tuple[str, bytes]]:
    """Exactly the boot components, in order, each as ``name=<digest>``."""
    from .device import BOOT_COMPONENTS  # device imports puf, which imports this module

    entries = text.split(",")
    if len(entries) != len(BOOT_COMPONENTS):
        raise ValueError(f"manifest has {len(entries)} entries, not {len(BOOT_COMPONENTS)}")
    manifest = []
    for entry, expected in zip(entries, BOOT_COMPONENTS):
        name, sep, digest = entry.partition("=")
        if not sep or name != expected:
            raise ValueError(f"manifest entry {entry[:32]!r} is not {expected}=<digest>")
        manifest.append((name, hex_bytes(digest, DIGEST_LEN)))
    return manifest
