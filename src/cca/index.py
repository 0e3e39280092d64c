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
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .crypto import (
    DEFAULT_ORE_WIDTH,
    MODES,
    KeyStore,
    MasterKeys,
    derive_det_keys,
    derive_token_key_pairs,
    det_encrypt,
    ore_encrypt,
    ore_field_keys,
    rnd_encrypt,
)
from .dcfg import DCFG, VALUE_FAMILIES
from .errors import ConfigError
from .fileio import Cursor, atomic_write, blob
from .itl import family

_MAGIC = b"CCAIDX1\x00"
_VERSION = 4


@dataclass
class IndexEntry:
    key: bytes
    value: bytes


@dataclass
class EncryptedIndex:
    mode: str
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


# Every pair token is a fixed VALUE_FAMILIES name (dcfg), or VAR<n> or
# FUNC_CALL<n> with n below its file's count of that family.
NUMBERED_FAMILIES = ("VAR", "FUNC_CALL")
FIXED_NAMES = tuple(sorted(VALUE_FAMILIES.difference(NUMBERED_FAMILIES)))
MAX_NAME_COUNT = 0xFFFF  # the key store holds each count as a u16


def candidate_names(counts: tuple[int, int]) -> list[str]:
    """Every token name a file's pairs can hold, given its name counts."""
    return [*FIXED_NAMES, *(f"{fam}{n}" for fam, count
                            in zip(NUMBERED_FAMILIES, counts)
                            for n in range(count))]


def report_names(ks: KeyStore, file_id: int) -> dict[str, str]:
    """Each candidate token of a file as reports write it -> its name:
    the hex of its D key (never R), or in plain mode its identity."""
    names = candidate_names(ks.counts[file_id])
    idents = [token_identity(file_id, name) for name in names]
    if ks.mode != "plain":
        idents = [key.hex() for key in derive_det_keys(ks.master, idents)]
    return dict(zip(idents, names))


def _name_counts(tokens: Iterable[str], path: str) -> tuple[int, int]:
    counts = dict.fromkeys(NUMBERED_FAMILIES, 0)
    for token in tokens:
        fam = family(token)
        if fam in counts:
            counts[fam] = max(counts[fam], int(token[len(fam):]) + 1)
    for fam, count in counts.items():
        if count > MAX_NAME_COUNT:
            raise ConfigError(f"{path}: {count} {fam} names, more than the "
                              f"key store's limit of {MAX_NAME_COUNT}")
    return tuple(counts.values())


def build_index(
    per_file: list[tuple[int, DCFG]],
    keys: MasterKeys,
    mode: str = "ore",
    names: Mapping[int, str] | None = None,
) -> tuple[EncryptedIndex, dict[int, tuple[int, int]]]:
    """Turn per-file dependency pairs into one index, and return it with
    each file's name counts for the key store: one past the highest n of
    the VAR<n> and FUNC_CALL<n> tokens the file's entries key.

    A count above MAX_NAME_COUNT is a ConfigError.  In ore mode each
    distinct (field, value) pair is encrypted once per build, so equal
    values of one field share one ciphertext within this index (see
    docs/formats.md); names maps file ids to the paths errors name.
    """
    if mode not in MODES:
        raise ValueError(f"unknown index mode {mode!r}")

    counts: dict[int, tuple[int, int]] = {}
    entries: list[IndexEntry] = []
    ore_keys = ore_field_keys(keys)
    ore_memo: dict[tuple[str, int], bytes] = {}

    def ore_field(path: str, name: str, value: int) -> bytes:
        ct = ore_memo.get((name, value))
        if ct is None:
            ore_key, signed = ore_keys[name]
            try:
                ct = ore_encrypt(ore_key, value, signed=signed)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: {name} value {value} is out of range for "
                    f"{DEFAULT_ORE_WIDTH}-bit ORE fields") from exc
            ore_memo[(name, value)] = ct
        return ct

    def std_fields(path: str, values: tuple[int, ...]) -> bytes:
        try:
            return struct.pack(">iiii", *values)
        except struct.error:
            name, value = next((name, v) for name, v in zip(ore_keys, values)
                               if not -2**31 <= v < 2**31)
            raise ConfigError(
                f"{path}: {name} value {value} is out of range for std "
                f"fields, signed 32-bit [{-2**31}, {2**31 - 1}]") from None

    for file_id, dcfg in per_file:
        by_left = dcfg.by_left()
        tokens = {*by_left, *(pair.right.token for pairs in by_left.values()
                              for pair in pairs)}
        path = (names or {}).get(file_id, f"file {file_id}")
        counts[file_id] = _name_counts(tokens, path)
        token_keys = {} if mode == "plain" else dict(zip(
            tokens, derive_token_key_pairs(
                keys, [token_identity(file_id, token) for token in tokens])))
        for left, pairs in by_left.items():
            for counter, pair in enumerate(pairs, start=1):
                right = pair.right
                values = (right.line, right.depth, right.order, right.cf_type)
                if mode == "plain":
                    key = f"{token_identity(file_id, left)}#{counter}".encode()
                    value = "|".join((token_identity(file_id, right.token),
                                      *map(str, values))).encode()
                else:
                    d_left, r_left = token_keys[left]
                    d_right, r_right = token_keys[right.token]
                    key = det_encrypt(d_left, counter.to_bytes(4, "big"))
                    if mode == "std":
                        fields = std_fields(path, values)
                    else:
                        fields = b"".join(
                            ore_field(path, name, v)
                            for name, v in zip(ore_keys, values))
                    value = rnd_encrypt(r_left, d_right + r_right + fields)
                entries.append(IndexEntry(key, value))

    if mode != "plain":
        random.SystemRandom().shuffle(entries)
    return EncryptedIndex(mode, entries), counts


# --- container ----------------------------------------------------------------

def serialize_index(index: EncryptedIndex) -> bytes:
    out = bytearray(_MAGIC)
    out += bytes([_VERSION, MODES.index(index.mode)])
    out += struct.pack(">I", len(index.entries))
    for entry in index.entries:
        out += blob(entry.key)
        out += struct.pack(">I", len(entry.value))
        out += entry.value
    return bytes(out)


def deserialize_index(data: bytes) -> EncryptedIndex:
    cur = Cursor(data, "index", _MAGIC, _VERSION)
    mode = cur.code(MODES, "mode")
    entries = []
    for _ in range(cur.unpack(">I")[0]):
        key = cur.blob()
        entries.append(IndexEntry(key, cur.take(cur.unpack(">I")[0])))
    cur.finish()
    return EncryptedIndex(mode, entries)


def index_stats(index: EncryptedIndex) -> dict:
    key_lens = {len(e.key) for e in index.entries}
    value_lens = {len(e.value) for e in index.entries}
    return {
        "mode": index.mode,
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
