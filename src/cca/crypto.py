"""Cryptographic primitives for the encrypted index.

Three building blocks:

* DET: deterministic keyed mapping (HMAC-SHA1) used for index keys, so
  equal tokens map to equal index positions without revealing the token.
* RND: randomized authenticated encryption (AES-256-GCM with a fresh
  96-bit nonce) used for index values, so equal payloads are
  indistinguishable.
* ORE: an order-revealing scheme with left/right ciphertexts built from
  per-block permuted comparison tables.  Comparing the left half of one
  ciphertext against the right half of another yields <, =, > and nothing
  else, letting the analyser order line numbers it cannot read.  A
  block's slot tags are AES-128 (ECB) of the slot numbers under a key
  derived per block; each slot's mask is AES-128 of its tag under the
  right half's public nonce, mod 3.  One AES call makes all 256 of either.
  Every index encrypts its fields at DEFAULT_ORE_WIDTH bits.

Everything derives from six 128-bit master keys: one for DET, one for RND,
and one per protected flow field (line, depth, order, type).
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import os
import secrets
import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import lru_cache, partial

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import FormatError, IntegrityError, KeyMismatchError
from .fileio import Cursor, atomic_write, blob

KEY_BYTES = 16
ORE_BLOCK_BITS = 8
ORE_BLOCK_DOMAIN = 1 << ORE_BLOCK_BITS  # 256 values per block
DEFAULT_ORE_WIDTH = 32  # the width of every index field (docs/formats.md)
# Widths the ORE primitives take: whole blocks, under 256 bits.
ORE_WIDTHS = range(ORE_BLOCK_BITS, 256, ORE_BLOCK_BITS)

MODES = ("plain", "std", "ore")

_RND_NONCE_BYTES = 12
_RND_TAG_BYTES = 16

# The four order-revealing flow fields, in index order: report field name,
# the `MasterKeys` attribute that keys it, and whether its values are signed.
ORE_FIELDS = (("line", "ore_line", False), ("depth", "ore_depth", False),
              ("order", "ore_order", False), ("type", "ore_type", True))


def _hmac(key: bytes, data: bytes, algo: str = "sha256") -> bytes:
    return hmac_mod.new(key, data, algo).digest()


# HMAC's inner and outer pads (RFC 2104), as byte translation tables.
_PADS = (bytes(b ^ 0x36 for b in range(256)),
         bytes(b ^ 0x5C for b in range(256)))


# --- master keys --------------------------------------------------------------

@dataclass(frozen=True)
class MasterKeys:
    """The six 128-bit secrets everything else is derived from."""

    det: bytes
    rnd: bytes
    ore_line: bytes
    ore_depth: bytes
    ore_order: bytes
    ore_type: bytes

    def as_tuple(self) -> tuple[bytes, ...]:
        return (self.det, self.rnd, self.ore_line, self.ore_depth,
                self.ore_order, self.ore_type)


def generate_master_keys() -> MasterKeys:
    return MasterKeys(*(secrets.token_bytes(KEY_BYTES) for _ in range(6)))


def _hmac_keyed(key: bytes, algo: str) -> tuple:
    """HMAC under key as its two hash states after the padded keys (RFC
    2104), so that each message costs one copy of each instead of both
    key hashes again.  SHA-1 and SHA-256 both have 64-byte blocks."""
    new = getattr(hashlib, algo)
    block = (key if len(key) <= 64 else new(key).digest()).ljust(64, b"\0")
    return new(block.translate(_PADS[0])), new(block.translate(_PADS[1]))


def _hmac_with(keyed: tuple, data: bytes) -> bytes:
    inner, outer = keyed[0].copy(), keyed[1].copy()
    inner.update(data)
    outer.update(inner.digest())
    return outer.digest()


def derive_det_keys(keys: MasterKeys, token_ids: Iterable[str]) -> list[bytes]:
    """Deterministic key D_t of each token, in order, and no value key R_t.

    This is `_hmac` under the DET master key with both padded keys hashed
    once per call: about 1.5 us a token against 4 us for a one-shot HMAC
    call (CPython 3.11, OpenSSL hashlib, a 2-vCPU x86-64 VM).
    """
    keyed = _hmac_keyed(keys.det, "sha256")
    return [_hmac_with(keyed, token_id.encode()) for token_id in token_ids]


def derive_token_key_pairs(keys: MasterKeys,
                           token_ids: Iterable[str]) -> list[tuple[bytes, bytes]]:
    """Key pair (D_t, R_t) of each token, in order, as `derive_token_keys`
    gives them, with each master key's padded keys hashed once per call."""
    ids = [token_id.encode() for token_id in token_ids]
    det, rnd = _hmac_keyed(keys.det, "sha256"), _hmac_keyed(keys.rnd, "sha256")
    return [(_hmac_with(det, i), _hmac_with(rnd, i)) for i in ids]


def derive_token_keys(keys: MasterKeys, token_id: str) -> tuple[bytes, bytes]:
    """Per-token key pair: deterministic key D_t and value key R_t."""
    (det_key,) = derive_det_keys(keys, [token_id])
    return det_key, _hmac(keys.rnd, token_id.encode())


# --- DET ----------------------------------------------------------------------

def det_encrypt(key: bytes, data: bytes) -> bytes:
    """Deterministic keyed digest of data: 20 bytes of HMAC-SHA1."""
    return _hmac(key, data, "sha1")


def det_encrypter(key: bytes) -> Callable[[bytes], bytes]:
    """`det_encrypt` under one key, for many messages: the padded keys are
    hashed once, which more than halves the cost of each message."""
    return partial(_hmac_with, _hmac_keyed(key, "sha1"))


# --- RND ----------------------------------------------------------------------

def rnd_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Randomized authenticated encryption: nonce || ciphertext || tag.

    The key (a 32-byte token key R_t) is the AES-GCM key itself.
    """
    nonce = os.urandom(_RND_NONCE_BYTES)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, None)


def rnd_decrypt(key: bytes, blob: bytes) -> bytes:
    """Verify and decrypt an RND blob; raises IntegrityError on any damage,
    and on a key AES does not accept (such as a truncated query key)."""
    if len(blob) < _RND_NONCE_BYTES + _RND_TAG_BYTES:
        raise IntegrityError("ciphertext too short")
    try:
        aead = AESGCM(key)
    except ValueError as exc:  # a key of a length AES does not take
        raise IntegrityError(f"value key rejected: {exc}") from None
    try:
        return aead.decrypt(blob[:_RND_NONCE_BYTES], blob[_RND_NONCE_BYTES:],
                            None)
    except InvalidTag:
        raise IntegrityError("authentication tag mismatch") from None


# --- ORE ----------------------------------------------------------------------

@dataclass
class OreKey:
    """Key material for the order-revealing scheme, with a derivation cache.

    The cache maps (derivation, block index, prefix) to that block's slot
    permutation or slot tags; both are deterministic in the key, so the
    cache only saves recomputation and never changes results.
    """

    prf_key: bytes
    prp_key: bytes
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    _CACHE_CAP = 8192  # a permutation and a tag block per block

    def permutation(self, index: int, prefix: bytes) -> bytes:
        """Value in each slot of one block (slot -> value)."""
        return self._derived(_derive_permutation, self.prp_key, index, prefix)

    def slot_tags(self, index: int, prefix: bytes) -> bytes:
        """16-byte comparison tag of every slot of one block, joined."""
        return self._derived(_derive_slot_tags, self.prf_key, index, prefix)

    def _derived(self, derive, secret: bytes, index: int, prefix: bytes):
        cache_key = (derive, index, prefix)
        hit = self._cache.get(cache_key)
        if hit is None:
            if len(self._cache) >= self._CACHE_CAP:
                self._cache.clear()
            hit = self._cache[cache_key] = derive(secret, index, prefix)
        return hit


def ore_keygen() -> OreKey:
    return OreKey(secrets.token_bytes(KEY_BYTES), secrets.token_bytes(KEY_BYTES))


def derive_ore_key(master: bytes) -> OreKey:
    return OreKey(_hmac(master, b"prf")[:KEY_BYTES],
                  _hmac(master, b"prp")[:KEY_BYTES])


def ore_field_keys(master: MasterKeys) -> dict[str, tuple[OreKey, bool]]:
    """Field name -> (key, signed), in `ORE_FIELDS` order."""
    return {name: (derive_ore_key(getattr(master, attr)), signed)
            for name, attr, signed in ORE_FIELDS}


def _derive_permutation(prp_key: bytes, index: int, prefix: bytes) -> bytes:
    """Keyed pseudorandom permutation of the block domain, as slot -> value.

    Fisher-Yates driven by an HMAC counter stream with rejection sampling,
    so the permutation is uniform and identical on every platform.
    """
    seed = _hmac(prp_key, bytes([index]) + prefix)
    perm = list(range(ORE_BLOCK_DOMAIN))
    stream = b""
    counter = 0
    pos = 0
    for j in range(ORE_BLOCK_DOMAIN - 1, 0, -1):
        bound = j + 1
        limit = 256 - (256 % bound)
        while True:
            if pos >= len(stream):
                stream = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
                counter += 1
                pos = 0
            byte = stream[pos]
            pos += 1
            if byte < limit:
                k = byte % bound
                break
        perm[j], perm[k] = perm[k], perm[j]
    # perm maps value -> slot; the table maps each perm[x] back to x
    return bytes.maketrans(bytes(perm), bytes(range(ORE_BLOCK_DOMAIN)))


# Every slot number as one AES block, and each byte's residue mod 3.
_SLOT_BLOCKS = b"".join(s.to_bytes(16, "big") for s in range(ORE_BLOCK_DOMAIN))
_MOD3 = bytes(b % 3 for b in range(256))
_ECB = modes.ECB()


def _ecb(key: bytes):
    return Cipher(algorithms.AES(key), _ECB).encryptor()


def _derive_slot_tags(prf_key: bytes, index: int, prefix: bytes) -> bytes:
    """Tags of one block's slots: AES of each slot under a per-block key."""
    block_key = _hmac(prf_key, bytes([index]) + prefix)[:KEY_BYTES]
    return _ecb(block_key).update(_SLOT_BLOCKS)


@lru_cache(maxsize=64)
def _nonce_cipher(nonce: bytes):
    """Mask cipher of a right half: AES under its nonce, which is public."""
    return _ecb(nonce)


def _check_range(value: int, width: int, signed: bool) -> int:
    if width not in ORE_WIDTHS:
        raise ValueError(f"ORE width must be a positive multiple of "
                         f"{ORE_BLOCK_BITS} below 256, got {width}")
    if signed:
        value += 1 << (width - 1)
    if not 0 <= value < (1 << width):
        raise ValueError(f"value out of range for {width}-bit ORE")
    return value


def ore_encrypt_left(key: OreKey, value: int, width: int = DEFAULT_ORE_WIDTH,
                     signed: bool = False) -> bytes:
    """Left (query-side) ciphertext: per block a tag and a permuted slot."""
    value = _check_range(value, width, signed)
    n = width // ORE_BLOCK_BITS
    raw = value.to_bytes(n, "big")
    out = bytearray()
    for i in range(n):
        prefix = raw[:i]
        slot = key.permutation(i, prefix).index(raw[i])
        out += key.slot_tags(i, prefix)[16 * slot:16 * slot + 16]
        out.append(slot)
    return bytes(out)


def ore_encrypt_right(key: OreKey, value: int, width: int = DEFAULT_ORE_WIDTH,
                      signed: bool = False) -> bytes:
    """Right (data-side) ciphertext: nonce plus masked comparison tables.

    Slot s of a block holds (cmp(value in s, y) + mask(s)) % 3, two bits
    per slot, slot 4j in the low bits of byte j; cmp is 0 for equal, 1
    below y and 2 above.  The slots are summed as little-endian integers:
    no byte passes 4 (code plus mask) or 170 (four packed codes), so no
    sum carries into the next byte.
    """
    value = _check_range(value, width, signed)
    n = width // ORE_BLOCK_BITS
    raw = value.to_bytes(n, "big")
    nonce = os.urandom(16)
    masker = _ecb(nonce)
    out = [nonce]
    for i in range(n):
        prefix, y = raw[:i], raw[i]
        codes = key.permutation(i, prefix).translate(
            b"\x01" * y + b"\x00" + b"\x02" * (ORE_BLOCK_DOMAIN - 1 - y))
        masks = masker.update(key.slot_tags(i, prefix))[::16].translate(_MOD3)
        v = (int.from_bytes(codes, "little") + int.from_bytes(masks, "little")
             ).to_bytes(ORE_BLOCK_DOMAIN, "little").translate(_MOD3)
        packed = sum(int.from_bytes(v[k::4], "little") << 2 * k
                     for k in range(4))
        out.append(packed.to_bytes(ORE_BLOCK_DOMAIN // 4, "little"))
    return b"".join(out)


def ore_encrypt(key: OreKey, value: int, width: int = DEFAULT_ORE_WIDTH,
                signed: bool = False) -> bytes:
    """Full ciphertext: left part followed by right part."""
    return (ore_encrypt_left(key, value, width, signed)
            + ore_encrypt_right(key, value, width, signed))


def ore_left_bytes(width: int = DEFAULT_ORE_WIDTH) -> int:
    """Size of the left half: a 16-byte tag and a slot byte per block."""
    return width // ORE_BLOCK_BITS * 17


def ore_ciphertext_bytes(width: int = DEFAULT_ORE_WIDTH) -> int:
    n = width // ORE_BLOCK_BITS
    return ore_left_bytes(width) + 16 + n * (ORE_BLOCK_DOMAIN // 4)


def ore_compare(a: bytes, b: bytes, width: int = DEFAULT_ORE_WIDTH) -> int:
    """Order of the values inside two full ciphertexts: -1, 0 or 1.

    Uses a's left part against b's right part; blocks compare most
    significant first and the first unequal block decides.
    """
    n = width // ORE_BLOCK_BITS
    left_len = ore_left_bytes(width)
    expected = ore_ciphertext_bytes(width)
    if len(a) != expected or len(b) != expected:
        raise ValueError("ORE ciphertext length does not match width")
    left = a[:left_len]
    right = b[left_len:]
    masks = _nonce_cipher(right[:16]).update(
        b"".join(left[17 * i:17 * i + 16] for i in range(n)))[::16]
    for i in range(n):
        slot = left[17 * i + 16]
        v = (right[16 + 64 * i + (slot >> 2)] >> ((slot & 3) * 2)) & 3
        result = (v - masks[i]) % 3
        if result == 1:
            return -1
        if result == 2:
            return 1
    return 0


# A report names an ORE ciphertext by its left half's slot bytes and the
# first bytes of the last block's tag: part of the left half, so the name
# shows the analyser nothing new, and the field key reads it back.
_ORE_CHECK_BYTES = 8


def ore_name(ct: bytes, width: int = DEFAULT_ORE_WIDTH) -> bytes:
    """Report name of a ciphertext (see `_ORE_CHECK_BYTES`)."""
    last = ore_left_bytes(width) - 17
    return ct[16:last + 17:17] + ct[last:last + _ORE_CHECK_BYTES]


def ore_name_value(key: OreKey, name: bytes, width: int = DEFAULT_ORE_WIDTH,
                   signed: bool = False) -> int:
    """The value an `ore_name` names; KeyMismatchError under another key.

    Each slot inverts through its block's permutation, keyed by the bytes
    already recovered; the last block's tag binds every byte.
    """
    n = width // ORE_BLOCK_BITS
    if len(name) != n + _ORE_CHECK_BYTES:
        raise FormatError(f"ORE name of {len(name)} bytes at width {width}")
    raw = b""
    for i in range(n):
        raw += key.permutation(i, raw)[name[i]:name[i] + 1]
    slot = name[n - 1]
    tags = key.slot_tags(n - 1, raw[:-1])
    if not hmac_mod.compare_digest(tags[16 * slot:16 * slot + _ORE_CHECK_BYTES],
                                   name[n:]):
        raise KeyMismatchError(
            "order-revealing name does not decrypt under this key store; "
            "the report was produced from an index built with different keys")
    value = int.from_bytes(raw, "big")
    return value - (1 << (width - 1)) if signed else value


# --- key store ----------------------------------------------------------------

_KEYS_MAGIC = b"CCAKEYS1"
_KEYS_VERSION = 5


@dataclass
class KeyStore:
    """Everything the code owner keeps private after building an index.

    Besides the master keys this carries the file registry: each file's
    path, and its name counts, (VAR, FUNC_CALL): one past the highest n of
    the VAR<n> and FUNC_CALL<n> names its dependency pairs hold.  The
    master keys derive the key of every name a file can hold from those
    (`index.report_names`), so reports open without touching source again.
    """

    master: MasterKeys
    mode: str
    files: dict[int, str] = field(default_factory=dict)
    counts: dict[int, tuple[int, int]] = field(default_factory=dict)


def serialize_keys(ks: KeyStore) -> bytes:
    out = bytearray(_KEYS_MAGIC)
    out += bytes([_KEYS_VERSION, MODES.index(ks.mode)])
    out += b"".join(ks.master.as_tuple())
    out += struct.pack(">I", len(ks.files))
    for file_id in sorted(ks.files):
        out += struct.pack(">I", file_id) + blob(ks.files[file_id].encode())
        out += struct.pack(">HH", *ks.counts[file_id])
    return bytes(out)


def deserialize_keys(data: bytes) -> KeyStore:
    cur = Cursor(data, "key store", _KEYS_MAGIC, _KEYS_VERSION)
    mode = cur.code(MODES, "mode")
    master = MasterKeys(*(cur.take(KEY_BYTES) for _ in range(6)))
    files: dict[int, str] = {}
    counts: dict[int, tuple[int, int]] = {}
    for _ in range(cur.unpack(">I")[0]):
        (file_id,) = cur.unpack(">I")
        files[file_id] = cur.text()
        counts[file_id] = cur.unpack(">HH")
    cur.finish()
    return KeyStore(master, mode, files, counts)


def save_keys(path, ks: KeyStore) -> None:
    atomic_write(path, serialize_keys(ks), private=True)


def load_keys(path) -> KeyStore:
    with open(path, "rb") as handle:
        return deserialize_keys(handle.read())
