"""Encrypted inverted index over dependency pairs.

Every pair list for a left token becomes a run of index entries addressed by
a deterministic per-token counter key, so the analyser can probe entry 1, 2,
3, ... of a token it holds a key for and learn nothing about the rest.  The
value of an entry carries the keys of the right-hand token plus the flow
fields, sealed with randomized encryption so identical edges look unrelated.

Three build modes share one container format:

* ore (default): flow fields are order-revealing ciphertexts.
* std: flow fields are plaintext integers, keys and values encrypted.
* plain: nothing encrypted, for debugging and baseline measurements.
"""

from __future__ import annotations

import random
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field

from .crypto import (
    DEFAULT_ORE_WIDTH,
    DET_HASHES,
    MODES,
    ORE_WIDTHS,
    ORE_WIDTHS_TEXT,
    MasterKeys,
    derive_token_keys,
    det_encrypt,
    ore_encrypt,
    ore_field_keys,
    pack_scheme,
    read_scheme,
    rnd_encrypt,
)
from .dcfg import DCFG
from .errors import ConfigError
from .fileio import Cursor, atomic_write, blob

_MAGIC = b"CCAIDX1\x00"
_VERSION = 3


@dataclass
class IndexEntry:
    key: bytes
    value: bytes


@dataclass
class EncryptedIndex:
    mode: str
    det_hash: str
    ore_width: int
    entries: list[IndexEntry]
    _table: dict[bytes, bytes] | None = field(default=None, repr=False)

    def lookup(self, key: bytes) -> bytes | None:
        if self._table is None:
            self._table = {e.key: e.value for e in self.entries}
        return self._table.get(key)

    def __len__(self) -> int:
        return len(self.entries)


def token_identity(file_id: int, token: str) -> str:
    """Index-wide identity of a token: the same name in two files differs."""
    return f"{file_id}:{token}"


def build_index(
    per_file: list[tuple[int, DCFG]],
    keys: MasterKeys,
    mode: str = "ore",
    det_hash: str = "sha1",
    ore_width: int = DEFAULT_ORE_WIDTH,
    names: Mapping[int, str] | None = None,
) -> tuple[EncryptedIndex, dict[bytes, tuple[int, str]]]:
    """Turn per-file dependency pairs into one index, and return it with
    the directory from each derived D key to its file id and token name.

    In ore mode each distinct (field, value) pair is encrypted once per
    build, so equal values of one field share one ciphertext within this
    index (see docs/formats.md); names maps file ids to the paths that a
    value too wide for ore_width is reported under.
    """
    if mode not in MODES:
        raise ValueError(f"unknown index mode {mode!r}")
    if det_hash not in DET_HASHES:
        raise ValueError(f"unknown DET hash {det_hash!r}")
    if ore_width not in ORE_WIDTHS:  # checked in every mode: headers store it
        raise ValueError(f"ORE width must be {ORE_WIDTHS_TEXT}")

    directory: dict[bytes, tuple[int, str]] = {}
    entries: list[IndexEntry] = []
    token_keys: dict[str, tuple[bytes, bytes]] = {}
    ore_keys = ore_field_keys(keys)
    ore_memo: dict[tuple[str, int], bytes] = {}

    def ore_field(file_id: int, name: str, value: int) -> bytes:
        ct = ore_memo.get((name, value))
        if ct is None:
            ore_key, signed = ore_keys[name]
            try:
                ct = ore_encrypt(ore_key, value, ore_width, signed)
            except ValueError as exc:  # the width is valid, so the value is not
                path = (names or {}).get(file_id, f"file {file_id}")
                raise ConfigError(
                    f"{path}: {name} value {value} is out of range for "
                    f"--ore-width {ore_width}") from exc
            ore_memo[(name, value)] = ct
        return ct

    def keys_for(file_id: int, token: str) -> tuple[bytes, bytes]:
        ident = token_identity(file_id, token)
        got = token_keys.get(ident)
        if got is None:
            got = derive_token_keys(keys, ident)
            token_keys[ident] = got
            directory[got[0]] = (file_id, token)
        return got

    for file_id, dcfg in per_file:
        for left, pairs in dcfg.by_left().items():
            left_ident = token_identity(file_id, left)
            d_left, r_left = keys_for(file_id, left)
            for counter, pair in enumerate(pairs, start=1):
                right = pair.right
                d_right, r_right = keys_for(file_id, right.token)
                values = (right.line, right.depth, right.order, right.cf_type)
                if mode == "plain":
                    key = f"{left_ident}#{counter}".encode()
                    value = "|".join((token_identity(file_id, right.token),
                                      *map(str, values))).encode()
                else:
                    key = det_encrypt(d_left, counter.to_bytes(4, "big"), det_hash)
                    if mode == "std":
                        fields = struct.pack(">iiii", *values)
                    else:
                        fields = b"".join(
                            ore_field(file_id, name, v)
                            for name, v in zip(ore_keys, values))
                    value = rnd_encrypt(r_left, d_right + r_right + fields)
                entries.append(IndexEntry(key, value))

    if mode != "plain":
        random.SystemRandom().shuffle(entries)
    return EncryptedIndex(mode, det_hash, ore_width, entries), directory


# --- container ----------------------------------------------------------------

def serialize_index(index: EncryptedIndex) -> bytes:
    out = bytearray(_MAGIC)
    out.append(_VERSION)
    out += pack_scheme(index.mode, index.det_hash, index.ore_width)
    out += struct.pack(">I", len(index.entries))
    for entry in index.entries:
        out += blob(entry.key)
        out += struct.pack(">I", len(entry.value))
        out += entry.value
    return bytes(out)


def deserialize_index(data: bytes) -> EncryptedIndex:
    cur = Cursor(data, "index", _MAGIC, _VERSION)
    mode, det_hash, width = read_scheme(cur)
    entries = []
    for _ in range(cur.unpack(">I")[0]):
        key = cur.blob()
        entries.append(IndexEntry(key, cur.take(cur.unpack(">I")[0])))
    cur.finish()
    return EncryptedIndex(mode, det_hash, width, entries)


def index_stats(index: EncryptedIndex) -> dict:
    key_lens = {len(e.key) for e in index.entries}
    value_lens = {len(e.value) for e in index.entries}
    return {
        "mode": index.mode,
        "det_hash": index.det_hash,
        "ore_width": index.ore_width,
        "entries": len(index.entries),
        "distinct_keys": len({e.key for e in index.entries}),
        "key_bytes": sorted(key_lens),
        "value_bytes": sorted(value_lens),
        "container_bytes": len(serialize_index(index)),
    }


def save_index(path, index: EncryptedIndex) -> None:
    atomic_write(path, serialize_index(index))


def load_index(path) -> EncryptedIndex:
    with open(path, "rb") as handle:
        return deserialize_index(handle.read())
