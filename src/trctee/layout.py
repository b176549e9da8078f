"""One declaration per binary format, read and written by the same code.

A :class:`Layout` is a format's name, the error class its callers expect
and its fields in order.  A field is a constant (``bytes``: a type byte or
a magic, checked and never returned) or a ``(read, write)`` pair made by
one of the functions below: ``read(view, at)`` returns a value and the
offset after it, ``write(value)`` the parts that encode it.  Integers and
lengths are big-endian.
"""

import struct


def uint(width: int):
    """An unsigned integer in 1, 2, 4 or 8 bytes."""
    packer = struct.Struct(">" + {1: "B", 2: "H", 4: "I", 8: "Q"}[width])
    unpack = packer.unpack_from
    return (
        lambda view, at: (unpack(view, at)[0], at + width),
        lambda value: (packer.pack(value),),
    )


def exact(n: int):
    """Exactly ``n`` bytes."""

    def write(value) -> tuple:
        if len(value) != n:
            raise ValueError(f"a field of {n} bytes cannot hold {len(value)}")
        return (value,)

    return (lambda view, at: (bytes(view[at : at + n]), at + n)), write


def blob(width: int, kind: type = bytes):
    """Bytes after their length in ``width`` bytes.  With ``kind=str`` they
    are UTF-8 text; with ``kind=memoryview`` the decoded value is a view of
    the data, valid for as long as the data is left unchanged."""
    length = uint(width)

    def read(view, at: int):
        n, at = length[0](view, at)
        raw = view[at : at + n]
        return (str(raw, "utf-8") if kind is str else kind(raw)), at + n

    def write(value) -> tuple:
        raw = value.encode() if kind is str else value
        return (*length[1](len(raw)), raw)

    return read, write


def records(width: int, record: "Layout"):
    """A count in ``width`` bytes, then that many ``record``s, each a tuple."""
    count = uint(width)

    def read(view, at: int):
        n, at = count[0](view, at)
        values = []
        for _ in range(n):
            value, at = record._read(view, at)
            values.append(value)
        return values, at

    def write(values) -> tuple:
        return (*count[1](len(values)), *(part for v in values for part in record.parts(*v)))

    return read, write


REST = (lambda view, at: (bytes(view[at:]), len(view))), (lambda value: (value,))


class Layout:
    """A binary format: its name, the error class it raises, its fields."""

    def __init__(self, name: str, error: type[Exception], *fields):
        self.name, self.error, self.fields = name, error, fields

    def decode(self, data) -> tuple:
        """One value per field that is not a constant: ``bytes``, ``int``,
        ``str``, a list of record tuples, or the view of a
        ``blob(width, memoryview)``.  Bytes-like ``data`` that the fields do
        not use up exactly raises the layout's error only."""
        with memoryview(data) as view:
            values, end = self._read(view, 0)
            if end != len(view):
                raise self.error(f"{self.name} of {len(view)} bytes ends at byte {end}")
        return values

    def _read(self, view, at: int) -> tuple[tuple, int]:
        values = []
        for field in self.fields:
            if isinstance(field, bytes):
                if view[at : at + len(field)] != field:
                    raise self.error(f"{self.name} lacks {field.hex()} at byte {at}")
                at += len(field)
                continue
            try:
                value, at = field[0](view, at)
            except UnicodeDecodeError:
                raise self.error(f"{self.name} holds text that is not UTF-8") from None
            except struct.error:  # an integer cut short: the field is truncated
                at = len(view) + 1
            if at > len(view):
                raise self.error(f"{self.name} of {len(view)} bytes is truncated")
            values.append(value)
        return tuple(values), at

    def encode(self, *values) -> bytes:
        """The inverse of :meth:`decode`.  Given fewer values than fields, the
        fields after the last value are left out: what is left is the part
        that a trailing signature or MAC covers."""
        return b"".join(self.parts(*values))

    def parts(self, *values) -> list:
        """What :meth:`encode` joins: constants, and each value's encoding,
        a bytes-like value of a ``blob`` or ``REST`` field being passed on
        uncopied."""
        out, given = [], iter(values)
        try:
            for field in self.fields:
                if isinstance(field, bytes):
                    out.append(field)
                else:
                    out += field[1](next(given))
        except StopIteration:
            pass
        except (ValueError, struct.error) as exc:
            raise self.error(f"{self.name}: {exc}") from None
        return out
