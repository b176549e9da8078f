"""One declaration per binary format, read and written by the same code.

A :class:`Layout` is a format's name, the error class its callers expect
and its fields in order.  A field is a constant (``bytes``: a type byte or
a magic, checked and never returned) or a ``(read, write)`` pair made by
one of the functions below.  Integers and lengths are big-endian.
"""


def uint(width: int):
    """An unsigned integer in ``width`` bytes."""
    return (
        lambda view, at: (int.from_bytes(view[at : at + width], "big"), at + width),
        lambda value: value.to_bytes(width, "big"),
    )


def exact(n: int):
    """Exactly ``n`` bytes."""

    def write(value) -> bytes:
        if len(value) != n:
            raise ValueError(f"a field of {n} bytes cannot hold {len(value)}")
        return bytes(value)

    return (lambda view, at: (bytes(view[at : at + n]), at + n)), write


def blob(width: int, kind: type = bytes):
    """Bytes, or UTF-8 text with ``kind=str``, after their length in ``width`` bytes."""
    length = uint(width)

    def read(view, at: int):
        n, at = length[0](view, at)
        raw = bytes(view[at : at + n])
        return (str(raw, "utf-8") if kind is str else raw), at + n

    def write(value) -> bytes:
        raw = value.encode() if kind is str else bytes(value)
        return length[1](len(raw)) + raw

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

    return read, lambda values: count[1](len(values)) + b"".join(record.encode(*v) for v in values)


REST = (lambda view, at: (bytes(view[at:]), len(view))), bytes


class Layout:
    """A binary format: its name, the error class it raises, its fields."""

    def __init__(self, name: str, error: type[Exception], *fields):
        self.name, self.error, self.fields = name, error, fields

    def decode(self, data) -> tuple:
        """One value per field that is not a constant: ``bytes``, ``int``,
        ``str`` or a list of record tuples, never a view.  Bytes-like ``data``
        that the fields do not use up exactly raises the layout's error only."""
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
            if at > len(view):
                raise self.error(f"{self.name} of {len(view)} bytes is truncated")
            values.append(value)
        return tuple(values), at

    def encode(self, *values) -> bytes:
        """The inverse of :meth:`decode`.  Given fewer values than fields, the
        fields after the last value are left out: what is left is the part
        that a trailing signature or MAC covers."""
        out, given = [], iter(values)
        try:
            for field in self.fields:
                out.append(field if isinstance(field, bytes) else field[1](next(given)))
        except StopIteration:
            pass
        except (ValueError, OverflowError) as exc:
            raise self.error(f"{self.name}: {exc}") from None
        return b"".join(out)
