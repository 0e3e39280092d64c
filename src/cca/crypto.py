"""Cryptographic primitives for the encrypted index.

Four building blocks:

* DET: deterministic keyed mapping (keyed BLAKE2s with a 16-byte
  digest, RFC 7693) used for index keys, so equal tokens map to equal
  index positions without revealing the token.
* RND: randomized authenticated encryption (AES-128-GCM).  An index
  value is sealed under its left token's value key, which a per-build
  salt makes unique, with the implicit nonce 0^8 || u32 counter of its
  entry (NIST SP 800-38D, section 8.2.1), and stores no nonce; a slot is
  sealed under its own key with a fresh random 96-bit nonce.  Either
  way equal payloads are indistinguishable.
* ORE: an order-revealing scheme with left/right ciphertexts built from
  per-block permuted comparison tables.  Comparing the left half of one
  ciphertext against the right half of another yields <, =, > and nothing
  else, letting the analyser order line numbers it cannot read.  A
  block's slot tags are AES-128 (ECB) of the slot numbers under a key
  derived per block; each slot's mask is taken from AES-128 of its tag
  under the right half's public nonce (`_masks`).  One AES call makes all
  256 of either, and `ore_encrypt` builds both halves in one pass over
  the blocks.  An index encrypts its lines at the fewest blocks its
  largest line needs, at most DEFAULT_ORE_WIDTH bits.
* Scope tags: AES-128 of a (file id, depth, order, type) block under the
  scope master key, which shows equal triples of one file and nothing else.

Everything derives from three 128-bit master keys: DET, ORE line and
scope.  A token's secret S is AES-128 of its identity block
(`token_block`) under the DET master key, a pseudorandom permutation, so
the owner reads secrets back by decryption (`open_token_keys`), as it
reads scope tags (`open_scope_tags`).  A plain index, query and report
name a token by its identity block itself, which `open_token_blocks`
reads.  From S both sides derive, by DET under S, the lookup keys of the
token's entries, its value key in one index (under that index's salt)
and its one-way identity (`derive_value_key`, `derive_identity`).  The
line's ORE key pair is HMAC-SHA256 of b"prf" and b"prp" under its master
key, truncated to KEY_BYTES (RFC 4231, section 4.6).
"""

from __future__ import annotations

import hashlib
import hmac
import os
import secrets
import struct
from collections.abc import Callable
from dataclasses import astuple, dataclass, field
from functools import lru_cache, partial
from hashlib import blake2s

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import FormatError, IntegrityError, KeyMismatchError
from .fileio import Cursor, atomic_write, blob
from .itl import FIRST_NUMBERED, TOKEN_FAMILIES, family

KEY_BYTES = 16
ORE_BLOCK_BITS = 8
ORE_BLOCK_DOMAIN = 1 << ORE_BLOCK_BITS  # 256 values per block
DEFAULT_ORE_WIDTH = 32  # the widest index lines; the primitives' default
# Widths the ORE primitives take: whole blocks, under 256 bits.
ORE_WIDTHS = range(ORE_BLOCK_BITS, 256, ORE_BLOCK_BITS)

MODES = ("plain", "std", "ore")

_RND_NONCE_BYTES = 12
_RND_TAG_BYTES = 16
# What a blob adds to its payload: the nonce and the tag
RND_OVERHEAD = _RND_NONCE_BYTES + _RND_TAG_BYTES
# What an index value adds to its payload: the tag; its nonce is implicit
VALUE_OVERHEAD = _RND_TAG_BYTES
SALT_BYTES = 16  # an index's build salt, which its value keys take


# --- master keys --------------------------------------------------------------

@dataclass(frozen=True)
class MasterKeys:
    """The three 128-bit secrets everything else is derived from."""

    det: bytes
    ore_line: bytes
    scope: bytes


def generate_master_keys() -> MasterKeys:
    return MasterKeys(*(secrets.token_bytes(KEY_BYTES) for _ in range(3)))


# --- token keys ---------------------------------------------------------------

# A token identity as one AES block: file id, family code, number, and
# seven zero check bytes
_TOKEN_BLOCK = struct.Struct(">IBI7s")
_TOKEN_CHECK = bytes(7)
_CODES = {fam: code for code, fam in enumerate(TOKEN_FAMILIES)}


def token_block(file_id: int, name: str) -> bytes:
    """The identity block of a token the translator named, packed from
    (file id, name): a fixed name has number 0, and VAR<n> and
    FUNC_CALL<n> have n; a name of no family is a ValueError."""
    fam = family(name)
    code = _CODES.get(fam)
    if code is None or (fam == name) != (code < FIRST_NUMBERED):
        raise ValueError(f"not a token name: {name!r}")
    return _TOKEN_BLOCK.pack(file_id, code, int(name[len(fam):] or 0),
                             _TOKEN_CHECK)


def open_token_blocks(blocks: bytes) -> list[tuple[int, int, int] | None]:
    """The (file id, family code, number) in each identity block; None for
    a block that names no token: its check bytes are not zero, its code
    names no family, or it gives a fixed name a number (`name_of`)."""
    return [None if check != _TOKEN_CHECK or code >= len(TOKEN_FAMILIES)
            or name_of(code, number) is None else (file_id, code, number)
            for file_id, code, number, check in _TOKEN_BLOCK.iter_unpack(
                blocks)]


def name_of(code: int, number: int) -> str | None:
    """The token name of a family code and number: a fixed name has
    number 0 and a numbered one is FAMILY<n>; None for a fixed name with
    a number."""
    if code < FIRST_NUMBERED:
        return TOKEN_FAMILIES[code] if number == 0 else None
    return f"{TOKEN_FAMILIES[code]}{number}"


def _derive(key: bytes, blocks: bytes) -> list[bytes]:
    """Each 16-byte block AES-128-encrypted under key, in one ECB call."""
    out = _ecb(key).update(blocks)
    return [out[i:i + KEY_BYTES] for i in range(0, len(out), KEY_BYTES)]


def derive_secrets(keys: MasterKeys, blocks: bytes) -> list[bytes]:
    """The secret S of each token of identity blocks (`token_block`),
    joined, in order: AES-128 of the block under the DET master key, one
    ECB call for the whole batch.  S is the DET key of the token's lookup
    keys."""
    return _derive(keys.det, blocks)


# The messages DET takes under a token secret besides the u32 counters
# of its lookup keys: a label byte, and for the value key the salt, so
# 17 bytes and 1 byte, and no lookup key is made from either.
_VALUE_LABEL = b"\x00"
_IDENTITY_LABEL = b"\x01"


def derive_value_key(secret: bytes, salt: bytes) -> bytes:
    """The key that seals the values of a token's entries in the index of
    this build salt: DET of a label byte and the salt under the token's
    secret, so no two builds seal under one key."""
    return det_encrypt(secret, _VALUE_LABEL + salt)


def derive_identity(secret: bytes) -> bytes:
    """A token's one-way identity: DET of another label under its secret,
    which keys no entry and opens no value, so a query can name a token
    by it without letting the analyser read the token's entries."""
    return det_encrypt(secret, _IDENTITY_LABEL)


def _decrypt_blocks(key: bytes, blocks: list[bytes]) -> bytes:
    """Blocks of 16 bytes, each AES-128-decrypted under key, in one ECB
    call; any other length is a ValueError, as a decryptor would buffer
    it into the next block."""
    if any(len(block) != KEY_BYTES for block in blocks):
        raise ValueError(f"an AES block is {KEY_BYTES} bytes")
    return _ecb_decryptor(key).update(b"".join(blocks))


def open_token_keys(det_key: bytes, token_secrets: list[bytes],
                    ) -> list[tuple[int, int, int] | None]:
    """The (file id, family code, number) in each token secret that
    `derive_secrets` made under this DET master key, in one AES call;
    None for a block that names no token (`open_token_blocks`), as under
    other keys."""
    return open_token_blocks(_decrypt_blocks(det_key, token_secrets))


# --- DET ----------------------------------------------------------------------

def det_encrypt(key: bytes, data: bytes) -> bytes:
    """Deterministic keyed digest of data: keyed BLAKE2s with a 16-byte
    digest (RFC 7693), as strong as the 16-byte keys it is made under."""
    return blake2s(data, digest_size=KEY_BYTES, key=key).digest()


# --- RND ----------------------------------------------------------------------

def rnd_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Randomized authenticated encryption: nonce || ciphertext || tag,
    under a fresh random nonce.

    The key (a 16-byte slot key) is the AES-GCM key itself, so RND runs
    as AES-128-GCM.
    """
    nonce = os.urandom(_RND_NONCE_BYTES)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, None)


# counter_nonce(c): the implicit nonce of a token's entry c, eight zero
# bytes and c as a u32, SP 800-38D's fixed and invocation fields
counter_nonce = struct.Struct(">8xI").pack


def value_sealer(key: bytes) -> Callable[[int, bytes], bytes]:
    """Seal the values of one token's entries under its value key: entry
    c's payload under `counter_nonce(c)`, as ciphertext || tag.  The
    nonce is not stored, so `value_opener(key)` opens it at counter c,
    and a value under another counter fails.  One AES-GCM
    object seals them all."""
    seal = AESGCM(key).encrypt
    return lambda counter, payload: seal(counter_nonce(counter), payload,
                                         None)


def value_opener(key: bytes) -> Callable[[int, bytes], bytes]:
    """Open what `value_sealer(key)` sealed, entry c's at counter c, with
    one AES-GCM object; a value that fails raises IntegrityError."""
    decrypt = AESGCM(key).decrypt

    def open_value(counter: int, value: bytes) -> bytes:
        try:
            return decrypt(counter_nonce(counter), value, None)
        except InvalidTag:
            raise IntegrityError("authentication tag mismatch") from None
    return open_value


def rnd_decrypt(key: bytes, blob: bytes) -> bytes:
    """Verify and decrypt an RND blob; raises IntegrityError on any damage,
    and on a key AES does not accept (a length other than 16, 24 or 32)."""
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

class OreKey:
    """Key material for the order-revealing scheme: the PRF key of the slot
    tags and the PRP key of the slot permutations.

    `permutation(index, prefix)` is the value in each slot of one block
    (slot -> value) and `slot_tags(index, prefix)` the 16-byte comparison
    tag of each slot, joined.  Both are deterministic in the key, so each
    key memoises the last 4096 blocks of each; the memo only saves
    recomputation and never changes results.
    """

    def __init__(self, prf_key: bytes, prp_key: bytes) -> None:
        self.prf_key, self.prp_key = prf_key, prp_key
        self.permutation = lru_cache(4096)(partial(_derive_permutation,
                                                   prp_key))
        self.slot_tags = lru_cache(4096)(partial(_derive_slot_tags, prf_key))


def derive_ore_key(master: bytes) -> OreKey:
    return OreKey(hmac.digest(master, b"prf", "sha256")[:KEY_BYTES],
                  hmac.digest(master, b"prp", "sha256")[:KEY_BYTES])


# Fisher-Yates steps, last position first: (position, bound, the least
# byte that rejection sampling discards for that bound)
_SHUFFLE_STEPS = tuple((j, j + 1, 256 - 256 % (j + 1))
                       for j in range(ORE_BLOCK_DOMAIN - 1, 0, -1))
# Counter blocks drawn up front: a shuffle reads 320 bytes on average
_STREAM_BLOCKS = 11
_IDENTITY = bytes(range(ORE_BLOCK_DOMAIN))


def _derive_permutation(prp_key: bytes, index: int, prefix: bytes) -> bytes:
    """Keyed pseudorandom permutation of the block domain, as slot -> value.

    Fisher-Yates driven by an HMAC counter stream with rejection sampling,
    so the permutation is uniform and identical on every platform.  The
    stream is SHA-256(seed || counter) for counters 0, 1, ..., read in
    order.
    """
    seed = hmac.digest(prp_key, bytes([index]) + prefix, "sha256")
    draws = iter(b"".join([hashlib.sha256(seed + c.to_bytes(4, "big")).digest()
                           for c in range(_STREAM_BLOCKS)]))
    counter = _STREAM_BLOCKS
    perm = list(_IDENTITY)
    for j, bound, limit in _SHUFFLE_STEPS:
        byte = next(draws, 256)  # 256: the stream ran out
        while byte >= limit:
            if byte == 256:
                draws = iter(hashlib.sha256(
                    seed + counter.to_bytes(4, "big")).digest())
                counter += 1
            byte = next(draws, 256)
        k = byte % bound
        perm[j], perm[k] = perm[k], perm[j]
    # perm maps value -> slot; the table maps each perm[x] back to x
    return bytes.maketrans(bytes(perm), _IDENTITY)


# Every slot number as one AES block, and each byte's residue mod 3.
_SLOT_BLOCKS = b"".join(s.to_bytes(16, "big") for s in range(ORE_BLOCK_DOMAIN))
_MOD3 = bytes(b % 3 for b in range(256))
_ECB = modes.ECB()


def _ecb(key: bytes):
    return Cipher(algorithms.AES(key), _ECB).encryptor()


def _ecb_decryptor(key: bytes):
    return Cipher(algorithms.AES(key), _ECB).decryptor()


def _masks(blocks: bytes) -> bytes:
    """The mask in Z_3 of each 16-byte block: its first byte that is not
    255, mod 3, or 0 if all 16 are.  Bytes 0..254 hold each residue 85
    times, so a mask is uniform but for the 2^-128 chance of all 255.
    Few blocks open with 255, so the rest keep their first byte."""
    firsts = blocks[::16]
    j = firsts.find(255)
    if j < 0:
        return firsts.translate(_MOD3)
    out = bytearray(firsts)
    while j >= 0:
        rest = blocks[16 * j:16 * j + 16].lstrip(b"\xff")
        out[j] = rest[0] if rest else 0
        j = firsts.find(255, j + 1)
    return out.translate(_MOD3)


def _derive_slot_tags(prf_key: bytes, index: int, prefix: bytes) -> bytes:
    """Tags of one block's slots: AES of each slot under a per-block key."""
    block_key = hmac.digest(prf_key, bytes([index]) + prefix,
                            "sha256")[:KEY_BYTES]
    return _ecb(block_key).update(_SLOT_BLOCKS)


@lru_cache(maxsize=64)
def _nonce_cipher(nonce: bytes):
    """Mask cipher of a right half: AES under its nonce, which is public."""
    return _ecb(nonce)


def ore_encrypt(key: OreKey, value: int,
                width: int = DEFAULT_ORE_WIDTH) -> bytes:
    """Full ciphertext: the left (query-side) half, then the right
    (data-side) half, both built in one pass over the blocks.

    Per block the left half holds the tag of the slot the value's byte y
    permutes to, then that slot.  The right half is a nonce plus one
    masked comparison table per block: slot s holds
    (cmp(value in s, y) + mask(s)) % 3, two bits per slot, slot 4j in the
    low bits of byte j; cmp is 0 for equal, 1 below y and 2 above.  The
    slots are summed as little-endian integers: no byte passes 4 (code
    plus mask) or 170 (four packed codes), so no sum carries into the
    next byte.
    """
    if width not in ORE_WIDTHS:
        raise ValueError(f"ORE width must be a positive multiple of "
                         f"{ORE_BLOCK_BITS} below 256, got {width}")
    if not 0 <= value < (1 << width):
        raise ValueError(f"value out of range for {width}-bit ORE")
    raw = value.to_bytes(width // ORE_BLOCK_BITS, "big")
    nonce = os.urandom(16)
    masker = _ecb(nonce)
    left = bytearray()
    right = [nonce]
    for i, y in enumerate(raw):
        prefix = raw[:i]
        perm, tags = key.permutation(i, prefix), key.slot_tags(i, prefix)
        slot = perm.index(y)
        left += tags[16 * slot:16 * slot + 16]
        left.append(slot)
        codes = perm.translate(
            b"\x01" * y + b"\x00" + b"\x02" * (ORE_BLOCK_DOMAIN - 1 - y))
        masks = _masks(masker.update(tags))
        v = (int.from_bytes(codes, "little") + int.from_bytes(masks, "little")
             ).to_bytes(ORE_BLOCK_DOMAIN, "little").translate(_MOD3)
        packed = sum(int.from_bytes(v[k::4], "little") << 2 * k
                     for k in range(4))
        right.append(packed.to_bytes(ORE_BLOCK_DOMAIN // 4, "little"))
    return bytes(left) + b"".join(right)


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
    masks = _masks(_nonce_cipher(right[:16]).update(
        b"".join(left[17 * i:17 * i + 16] for i in range(n))))
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
# shows the analyser nothing new, and the line key reads it back.  A name
# is n + ORE_CHECK_BYTES bytes for n blocks.
ORE_CHECK_BYTES = 8


def ore_name(ct: bytes, width: int = DEFAULT_ORE_WIDTH) -> bytes:
    """Report name of a ciphertext (see `ORE_CHECK_BYTES`)."""
    last = ore_left_bytes(width) - 17
    return ct[16:last + 17:17] + ct[last:last + ORE_CHECK_BYTES]


def ore_name_value(key: OreKey, name: bytes,
                   width: int = DEFAULT_ORE_WIDTH) -> int:
    """The value an `ore_name` names; KeyMismatchError under another key.

    Each slot inverts through its block's permutation, keyed by the bytes
    already recovered; the last block's tag binds every byte.
    """
    n = width // ORE_BLOCK_BITS
    if len(name) != n + ORE_CHECK_BYTES:
        raise FormatError(f"ORE name of {len(name)} bytes at width {width}")
    raw = b""
    for i in range(n):
        raw += key.permutation(i, raw)[name[i]:name[i] + 1]
    slot = name[n - 1]
    tags = key.slot_tags(n - 1, raw[:-1])
    if not hmac.compare_digest(tags[16 * slot:16 * slot + ORE_CHECK_BYTES],
                                   name[n:]):
        raise KeyMismatchError(
            "order-revealing name does not decrypt under this key store; "
            "the report was produced from an index built with different keys")
    return int.from_bytes(raw, "big")


# --- scope tags ---------------------------------------------------------------

_SCOPE_BLOCK = struct.Struct(">Iiii")  # file id, depth, order, type


def scope_sealer(key: bytes) -> Callable[[bytes], bytes]:
    """Tag of a `_SCOPE_BLOCK`-packed (file id, depth, order, type) under
    the scope master key: that one AES-128 block, encrypted."""
    return _ecb(key).update


def open_scope_tags(key: bytes, file_ids: list[int],
                    tags: list[bytes]) -> list[tuple[int, int, int]]:
    """The (depth, order, type) in each tag of a file that a
    `scope_sealer` of this key made, in one AES call.  A file id in the
    block other than the tag's own, as under other keys or in another
    file's tag, is a KeyMismatchError."""
    triples = []
    for file_id, (owner, *triple) in zip(file_ids, _SCOPE_BLOCK.iter_unpack(
            _decrypt_blocks(key, tags)), strict=True):
        if owner != file_id:
            raise KeyMismatchError(
                "scope tag does not decrypt under this key store; the report "
                "was produced from an index built with different keys")
        triples.append(tuple(triple))
    return triples


# --- key store ----------------------------------------------------------------

_KEYS_MAGIC = b"CCAKEYS1"
_KEYS_VERSION = 8


@dataclass
class KeyStore:
    """Everything the code owner keeps private after building an index.

    Besides the master keys this carries the file registry: each file's
    path, and its name counts, (VAR, FUNC_CALL): one past the highest n of
    the VAR<n> and FUNC_CALL<n> names its dependency pairs hold.  The
    counts bound the names a report token of the file may open to
    (`token_name`), so reports open without touching source again.
    """

    master: MasterKeys
    mode: str
    files: dict[int, str] = field(default_factory=dict)
    counts: dict[int, tuple[int, int]] = field(default_factory=dict)

    def token_name(self, file_id: int, token: tuple[int, int, int]) -> str | None:
        """The name of a (file id, family code, number) token of file_id,
        or None if that file's pairs hold no such name: another file's,
        or a number at or past its family's count (a fixed name's is 0)."""
        owner, code, number = token
        if owner != file_id or code >= FIRST_NUMBERED and (
                number >= self.counts[file_id][code - FIRST_NUMBERED]):
            return None
        return name_of(code, number)


def serialize_keys(ks: KeyStore) -> bytes:
    out = bytearray(_KEYS_MAGIC)
    out += bytes([_KEYS_VERSION, MODES.index(ks.mode)])
    out += b"".join(astuple(ks.master))
    out += struct.pack(">I", len(ks.files))
    for file_id in sorted(ks.files):
        out += struct.pack(">I", file_id) + blob(ks.files[file_id].encode())
        out += struct.pack(">HH", *ks.counts[file_id])
    return bytes(out)


def deserialize_keys(data: bytes) -> KeyStore:
    cur = Cursor(data, "key store", _KEYS_MAGIC, _KEYS_VERSION)
    mode = cur.code(MODES, "mode")
    master = MasterKeys(*(cur.take(KEY_BYTES) for _ in range(3)))
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
