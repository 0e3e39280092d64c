"""Byte-level helpers shared by the binary containers (index, keys, query).

Writers build their bytes with `blob` and store them with `atomic_write`;
readers parse them with one `Cursor`, which owns every container rule:
magic and version, bounds, length-prefixed fields, one-byte codes, UTF-8
text and the ban on trailing bytes.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

from .errors import FormatError


def atomic_write(path: str | Path, data: bytes, private: bool = False) -> None:
    """Write data to path via a temp file and rename, never leaving partials.

    With private=True the file is created owner-readable only (0600), which
    key material requires.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        os.fchmod(fd, 0o600 if private else 0o644)
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def blob(data: bytes) -> bytes:
    """A u16-length-prefixed byte string, as `Cursor.blob` reads it."""
    return struct.pack(">H", len(data)) + data


class Cursor:
    """Reads one container front to back; every defect is a FormatError.

    Building the cursor checks the magic and the one-byte version that open
    every container.  `what` names the container in error messages.
    """

    def __init__(self, data: bytes, what: str, magic: bytes,
                 version: int) -> None:
        self.data = data
        self.what = what
        self.pos = 0
        if self.take(len(magic)) != magic:
            raise FormatError(f"{what}: bad magic, not a cca {what} container")
        (found,) = self.unpack(">B")
        if found != version:
            raise FormatError(f"{what}: unsupported version {found}")

    def _truncated(self) -> FormatError:
        return FormatError(f"{self.what}: truncated at byte {self.pos}")

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise self._truncated()
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        try:
            values = struct.unpack_from(fmt, self.data, self.pos)
        except struct.error:
            raise self._truncated() from None
        self.pos += struct.calcsize(fmt)
        return values

    def blob(self) -> bytes:
        (n,) = self.unpack(">H")
        return self.take(n)

    def text(self) -> str:
        start = self.pos
        try:
            return self.blob().decode()
        except UnicodeDecodeError:
            raise FormatError(
                f"{self.what}: text at byte {start} is not UTF-8") from None

    def code(self, table, name: str):
        """One byte: a position in `table` (a tuple, or a dict's keys)."""
        (code,) = self.unpack(">B")
        table = tuple(table)
        if code >= len(table):
            raise FormatError(f"{self.what}: unknown {name} code {code}")
        return table[code]

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.what}: trailing bytes after the last field")
