"""Encrypted inverted index over dependency pairs.

Every pair list for a left token becomes a run of index entries addressed by
a deterministic per-token counter key, so the analyser can probe entry 1, 2,
3, ... of a token it holds the secret of and learn nothing about the rest.
The value of an entry carries the secret of the right-hand token, that
token's entry count, and the flow fields, sealed under the left token's
value key so identical edges look unrelated.  The value key takes the
index's random build salt, so it is new in every build, and entry c is
sealed under the implicit nonce of counter c (`crypto.value_sealer`):
values store no nonce, and each opens only at its own counter.  The
count lets a reader probe exactly a token's entries, and a leaf not at
all.

Three build modes share one container format:

* ore (default): the line is an order-revealing ciphertext, at the
  fewest 8-bit blocks the build's largest line needs, each distinct one
  sealed once in the container's slot table, and an entry holds its slot
  number and that slot's key; depth, order and type are
  one scope tag, AES-128 of them and the file id under the scope master
  key (`crypto.scope_sealer`).
* std: flow fields are plaintext integers, keys and values encrypted.
* plain: nothing encrypted, for debugging and baseline measurements: an
  entry keys its left token's identity block (`crypto.token_block`) and
  counter, and holds its right token's block, its count and the four
  fields.

Every mode stores fixed-width records, a 16-byte lookup key and a value
whose width the mode and the build's integer widths set (`value_bytes`),
so the container needs no length prefixes.  Each build stores the entry
count, the flow fields (plain and std) and the slot number (ore) at the
fewest bytes that build needs, and the header holds those widths.
"""

from __future__ import annotations

import functools
import os
import secrets
import struct
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from operator import attrgetter

from .crypto import (
    DEFAULT_ORE_WIDTH,
    KEY_BYTES,
    MODES,
    ORE_BLOCK_BITS,
    RND_OVERHEAD,
    SALT_BYTES,
    VALUE_OVERHEAD,
    MasterKeys,
    derive_ore_key,
    derive_secrets,
    derive_value_key,
    det_encrypt,
    ore_ciphertext_bytes,
    ore_encrypt,
    rnd_encrypt,
    scope_sealer,
    token_block,
    value_sealer,
)
from .dcfg import DCFG
from .errors import ConfigError, FormatError
from .fileio import Cursor, atomic_write
from .itl import NUMBERED_FAMILIES, family

_MAGIC = b"CCAIDX1\x00"
_VERSION = 13
FIELDS = ("line", "depth", "order", "type")  # an entry's flow fields
_FIELD_ATTRS = ("line", "depth", "order", "cf_type")  # of ExtendedITLToken
# The integers of a payload that each build stores at the fewest bytes it
# needs (docs/formats.md, "Integer widths"), in the order the header
# holds their widths: the right token's entry count, then the flow
# fields in plain and std, or the line's slot number in ore.
NARROWED = {"plain": ("count", *FIELDS), "std": ("count", *FIELDS),
            "ore": ("count", "slot")}
# Each integer's widths in bytes -> its struct code: counts and slot
# numbers are unsigned, flow fields signed
_CODES = {"count": {1: "B", 2: "H"}, "slot": {1: "B", 2: "H", 4: "I"},
          **dict.fromkeys(FIELDS, {1: "b", 2: "h", 4: "i"})}
MAX_ENTRY_COUNT = 0xFFFF  # a count takes at most 2 bytes
_SCOPE_INTS = struct.Struct(">3i")  # depth, order and type in a scope tag
LOOKUP_KEY_BYTES = KEY_BYTES
# An ore index's line widths, in bits: 1 to 4 whole blocks
ORE_LINE_WIDTHS = range(ORE_BLOCK_BITS, DEFAULT_ORE_WIDTH + 1, ORE_BLOCK_BITS)


@functools.lru_cache
def payload_struct(mode: str, widths: tuple[int, ...]) -> struct.Struct:
    """A payload at an index's integer widths: the right token (its block
    in plain mode, else its secret) and its entry count, then the four
    flow fields, or in ore mode the line's slot number and slot key and
    the scope tag."""
    codes = "".join(_CODES[name][size]
                    for name, size in zip(NARROWED[mode], widths))
    tail = "%ds%ds" % (KEY_BYTES, KEY_BYTES) if mode == "ore" else ""
    return struct.Struct(">%ds%s%s" % (KEY_BYTES, codes, tail))


def value_bytes(mode: str, widths: tuple[int, ...]) -> int:
    """Width of an index value: the payload, sealed outside plain mode."""
    return payload_struct(mode, widths).size + (
        0 if mode == "plain" else VALUE_OVERHEAD)


def _width_error(mode: str, widths: tuple[int, ...]) -> str | None:
    """What is wrong with an index's integer widths, or None."""
    names = NARROWED[mode]
    if len(widths) != len(names):
        return (f"{mode} indexes hold {len(names)} integer widths, "
                f"not {len(widths)}")
    for name, size in zip(names, widths):
        if size not in _CODES[name]:
            *most, last = map(str, _CODES[name])
            return f"{name} width {size}, not {', '.join(most)} or {last} bytes"
    return None


@dataclass
class EncryptedIndex:
    mode: str
    salt: bytes  # the build salt, which every value key takes
    table: dict[bytes, bytes]  # lookup key -> value, in container order
    # ore mode: each distinct line ciphertext, sealed under its own key
    slots: list[bytes] = field(default_factory=list)
    ore_width: int = 0  # ore mode: the bits every line is encrypted at
    # each NARROWED integer's width in bytes, in NARROWED[mode] order
    widths: tuple[int, ...] = ()

    def lookup(self, key: bytes) -> bytes | None:
        return self.table.get(key)

    def __len__(self) -> int:
        return len(self.table)


def plain_key(block: bytes, counter: int) -> bytes:
    """Lookup key of a plain entry: its left token's identity block with
    the counter, a u32, in place of the block's last four bytes."""
    return block[:-4] + counter.to_bytes(4, "big")


# Every pair token is a fixed name (dcfg's VALUE_FAMILIES), or VAR<n> or
# FUNC_CALL<n> with n below its file's count of that family.
MAX_NAME_COUNT = 0xFFFF  # the key store holds each count as a u16


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

    A name count above MAX_NAME_COUNT, or a left token with more than
    MAX_ENTRY_COUNT entries, is a ConfigError, and two entries with one
    lookup key are a ValueError.  Counts, flow fields and slot numbers
    take the fewest bytes the build needs (`_widths`).  In ore mode each
    distinct line is encrypted once per build, at the fewest blocks the
    largest line needs, and sealed once, in a slot of a random number
    (see docs/formats.md); a line past DEFAULT_ORE_WIDTH bits is a
    ConfigError.  names maps file ids to the paths errors name.
    """
    if mode not in MODES:
        raise ValueError(f"unknown index mode {mode!r}")
    names = names or {}
    # ore: line -> its (slot number, slot key), and the slot table
    refs, slots = {}, []
    width = 0  # ore: the line width in bits
    if mode == "ore":
        line_key = derive_ore_key(keys.ore_line)
        lines = {pair.right.line: names.get(file_id, f"file {file_id}")
                 for file_id, dcfg in per_file for pair in dcfg}
        # the fewest blocks that hold the largest line; past the widest,
        # that line fails to encrypt
        top = max(lines, default=0)
        width = next((w for w in ORE_LINE_WIDTHS if top >> w == 0),
                     DEFAULT_ORE_WIDTH)
        refs, slots = _seal_slots({
            line: _ore_line(line_key, line, path, width)
            for line, path in lines.items()})
        seal_scope = scope_sealer(keys.scope)  # one encryptor per build

    counts: dict[int, tuple[int, int]] = {}
    files = []  # (file id, path, pairs by left token, its tokens)
    for file_id, dcfg in per_file:
        by_left = dcfg.by_left()
        tokens = {*by_left, *(pair.right.token for pairs in by_left.values()
                              for pair in pairs)}
        path = names.get(file_id, f"file {file_id}")
        counts[file_id] = _name_counts(tokens, path)
        for left, pairs in by_left.items():
            if len(pairs) > MAX_ENTRY_COUNT:
                raise ConfigError(
                    f"{path}: token {left} has {len(pairs)} entries, more "
                    f"than an index value's limit of {MAX_ENTRY_COUNT}")
        files.append((file_id, path, by_left, tokens))
    # (file id, token) -> its identity block in plain mode, else its
    # secret, every token's in one batch
    owned = [(file_id, token) for file_id, _, _, tokens in files
             for token in tokens]
    blocks = [token_block(*ft) for ft in owned]
    token_keys = dict(zip(owned, blocks if mode == "plain"
                          else derive_secrets(keys, b"".join(blocks))))

    widths = _widths(mode, files, len(slots))
    pack = payload_struct(mode, widths).pack
    salt = os.urandom(SALT_BYTES)
    entries: list[tuple[bytes, bytes]] = []
    for file_id, _, by_left, _ in files:
        scope_file = file_id.to_bytes(4, "big")  # a scope block's first field
        for left, pairs in by_left.items():
            if mode != "plain":  # one secret, and one sealer, per left token
                s_left = token_keys[file_id, left]
                seal = value_sealer(derive_value_key(s_left, salt))
            for counter, pair in enumerate(pairs, start=1):
                right = pair.right
                secret = token_keys[file_id, right.token]
                count = len(by_left.get(right.token, ()))
                if mode == "ore":  # the line's slot, then the scope tag
                    payload = pack(secret, count, *refs[right.line],
                                   seal_scope(scope_file + _SCOPE_INTS.pack(
                                       right.depth, right.order,
                                       right.cf_type)))
                else:
                    payload = pack(secret, count, right.line, right.depth,
                                   right.order, right.cf_type)
                if mode == "plain":
                    key = plain_key(token_keys[file_id, left], counter)
                    value = payload
                else:
                    key = det_encrypt(s_left, counter.to_bytes(4, "big"))
                    value = seal(counter, payload)
                entries.append((key, value))

    if mode != "plain":
        entries = _shuffled(entries)
    table = dict(entries)
    if len(table) != len(entries):
        raise ValueError("two index entries share a lookup key")
    return EncryptedIndex(mode, salt, table, slots, width, widths), counts


def _widths(mode: str, files: list, slot_count: int) -> tuple[int, ...]:
    """The integer widths of one build, in NARROWED[mode] order: the
    fewest bytes that hold the most entries of any left token, then in
    ore mode the largest slot number, else every value of each flow
    field, signed.  A signed field value past 32 bits is a ConfigError,
    in ore mode too, whose scope tags hold depth, order and type so."""
    most = max((len(pairs) for _, _, by_left, _ in files
                for pairs in by_left.values()), default=0)
    rights = [pair.right for _, _, by_left, _ in files
              for pairs in by_left.values() for pair in pairs]
    sizes = []
    for name, attr in zip(FIELDS, _FIELD_ATTRS):
        if mode == "ore" and name == "line":  # ore lines are unsigned
            continue
        values = list(map(attrgetter(attr), rights))
        size = _signed_bytes(min(values, default=0), max(values, default=0))
        if size is None:  # name the first file holding a value out of range
            value, path = next(
                (getattr(pair.right, attr), path)
                for _, path, by_left, _ in files for pairs in by_left.values()
                for pair in pairs
                if not -2**31 <= getattr(pair.right, attr) < 2**31)
            raise ConfigError(
                f"{path}: {name} value {value} is out of range for signed "
                f"32-bit fields [{-2**31}, {2**31 - 1}]")
        sizes.append(size)
    if mode == "ore":
        return _unsigned_bytes(most), _unsigned_bytes(max(slot_count - 1, 0))
    return (_unsigned_bytes(most), *sizes)


def _unsigned_bytes(top: int) -> int:
    """The fewest of 1, 2 or 4 bytes that hold 0 to top."""
    return next(size for size in (1, 2, 4) if top >> 8 * size == 0)


def _signed_bytes(low: int, high: int) -> int | None:
    """The fewest of 1, 2 or 4 bytes whose signed range holds low to
    high, or None."""
    for size in (1, 2, 4):
        bound = 1 << 8 * size - 1
        if -bound <= low and high < bound:
            return size
    return None


def _shuffled(entries) -> list:
    """entries in a uniformly random order: sorted on a fresh 8-byte tag
    each, all drawn from the system entropy source in one call; equal
    tags keep their order."""
    tags = struct.unpack(">%dQ" % len(entries),
                         secrets.token_bytes(8 * len(entries)))
    return [entries[i] for i in sorted(range(len(entries)),
                                       key=tags.__getitem__)]


def _ore_line(key, line: int, path: str, width: int) -> bytes:
    try:
        return ore_encrypt(key, line, width)
    except ValueError as exc:
        raise ConfigError(
            f"{path}: line value {line} is out of range for "
            f"{DEFAULT_ORE_WIDTH}-bit ORE fields") from exc


def _seal_slots(cts: dict) -> tuple[dict, list[bytes]]:
    """Seal each ciphertext once, under a fresh key, in a slot of the
    table.  Slot numbers are a random permutation, drawn before anything
    is sealed, so they follow neither first use nor value order.  Returns
    each ciphertext's key in cts -> its (slot number, slot key), and the
    table."""
    numbers = _shuffled(range(len(cts)))
    refs, slots = {}, [b""] * len(cts)
    for (pair, ct), number in zip(cts.items(), numbers):
        key = secrets.token_bytes(KEY_BYTES)
        slots[number] = rnd_encrypt(key, ct)
        refs[pair] = number, key
    return refs, slots


# --- container ----------------------------------------------------------------

def slot_bytes(width: int) -> int:
    """Length of a slot: a sealed line ciphertext of width bits."""
    return RND_OVERHEAD + ore_ciphertext_bytes(width)


def serialize_index(index: EncryptedIndex) -> bytes:
    """The container: header, then the entries as fixed-width records,
    then in ore mode the line width in blocks and the slots; integer
    widths outside their sets, a salt, key, value or slot of another
    width than the mode and the widths make, or an ore line width not in
    ORE_LINE_WIDTHS, is a ValueError."""
    if len(index.salt) != SALT_BYTES:
        raise ValueError(f"an index salt is {SALT_BYTES} bytes")
    problem = _width_error(index.mode, index.widths)
    if problem:
        raise ValueError(f"index: {problem}")
    width = value_bytes(index.mode, index.widths)
    if any(len(key) != LOOKUP_KEY_BYTES or len(value) != width
           for key, value in index.table.items()):
        raise ValueError(f"an index record is a {LOOKUP_KEY_BYTES}-byte key "
                         f"and a {width}-byte value in {index.mode} mode")
    tail, bits = [], index.ore_width
    if index.mode == "ore":
        if bits not in ORE_LINE_WIDTHS:
            raise ValueError(f"ore lines are 8 to 32 bits, not {bits}")
        if any(len(slot) != slot_bytes(bits) for slot in index.slots):
            raise ValueError(f"an index slot is {slot_bytes(bits)} bytes "
                             f"at {bits}-bit lines")
        tail = [struct.pack(">BI", bits // ORE_BLOCK_BITS, len(index.slots)),
                *index.slots]
    return b"".join([_MAGIC, bytes([_VERSION, MODES.index(index.mode)]),
                     index.salt, bytes(index.widths),
                     struct.pack(">I", len(index.table)),
                     *(key + value for key, value in index.table.items()),
                     *tail])


def _records(cur: Cursor, width: int) -> tuple[bytes, range]:
    """A u32 count, then that many records of width bytes: their bytes,
    all checked present before any is read, and where each starts."""
    body = cur.take(cur.unpack(">I")[0] * width)
    return body, range(0, len(body), width)


def deserialize_index(data: bytes) -> EncryptedIndex:
    cur = Cursor(data, "index", _MAGIC, _VERSION)
    mode = cur.code(MODES, "mode")
    salt = cur.take(SALT_BYTES)
    widths = tuple(cur.take(len(NARROWED[mode])))
    problem = _width_error(mode, widths)
    if problem:
        raise FormatError(f"index: {problem}")
    width = LOOKUP_KEY_BYTES + value_bytes(mode, widths)
    body, starts = _records(cur, width)
    table = {body[i:i + LOOKUP_KEY_BYTES]: body[i + LOOKUP_KEY_BYTES:i + width]
             for i in starts}
    if len(table) != len(starts):
        raise FormatError("index: repeated lookup key")
    slots, line_width = [], 0
    if mode == "ore":
        (blocks,) = cur.unpack(">B")
        if not 1 <= blocks <= len(ORE_LINE_WIDTHS):
            raise FormatError(f"index: ORE lines of {blocks} blocks, not 1 "
                              f"to {len(ORE_LINE_WIDTHS)}")
        line_width = ORE_LINE_WIDTHS[blocks - 1]
        size = slot_bytes(line_width)
        body, starts = _records(cur, size)
        slots = [body[i:i + size] for i in starts]
    cur.finish()
    return EncryptedIndex(mode, salt, table, slots, line_width, widths)


def index_stats(index: EncryptedIndex) -> dict:
    """Sizes of an index, the container's as `serialize_index` writes it
    (docs/formats.md)."""
    return {
        "mode": index.mode,
        "entries": len(index),
        "key_bytes": sorted({len(key) for key in index.table}),
        "value_bytes": sorted({len(v) for v in index.table.values()}),
        "slots": len(index.slots),
        "ore_width": index.ore_width,
        "int_bytes": dict(zip(NARROWED[index.mode], index.widths)),
        "slot_bytes": sum(map(len, index.slots)),
        "container_bytes": len(serialize_index(index)),
    }


def save_index(path, index: EncryptedIndex) -> None:
    atomic_write(path, serialize_index(index))


def load_index(path) -> EncryptedIndex:
    with open(path, "rb") as handle:
        return deserialize_index(handle.read())
