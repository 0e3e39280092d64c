"""Encryption primitives and key management."""

from __future__ import annotations

import hashlib
import hmac
import secrets
import stat
import struct
from dataclasses import astuple

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, strategies as st

import cca.crypto
from cca import (
    det_encrypt,
    generate_master_keys,
    load_keys,
    ore_compare,
    ore_encrypt,
    rnd_decrypt,
    rnd_encrypt,
)
from cca.crypto import (
    FIRST_NUMBERED,
    TOKEN_FAMILIES,
    KeyStore,
    MasterKeys,
    OreKey,
    counter_nonce,
    derive_identity,
    derive_ore_key,
    derive_secrets,
    derive_value_key,
    deserialize_keys,
    name_of,
    ore_ciphertext_bytes,
    ore_left_bytes,
    ore_name,
    ore_name_value,
    open_scope_tags,
    open_token_blocks,
    open_token_keys,
    save_keys,
    scope_sealer,
    serialize_keys,
    token_block,
    value_opener,
    value_sealer,
)
from cca.errors import FormatError, IntegrityError, KeyMismatchError


# --- master keys ---------------------------------------------------------------

def test_default_security_parameter_gives_three_16_byte_keys():
    mk = generate_master_keys()
    parts = astuple(mk)
    assert len(parts) == 3
    assert all(len(k) == 16 for k in parts)
    assert len(set(parts)) == 3


def _secrets(mk: MasterKeys, *pairs: tuple[int, str]) -> list[bytes]:
    """The secrets of (file id, name) pairs, from their blocks joined."""
    return derive_secrets(mk, b"".join(token_block(*p) for p in pairs))


def test_token_key_derivation_is_deterministic_and_separated():
    mk = generate_master_keys()
    (s1,) = _secrets(mk, (0, "VAR0"))
    (s2,) = _secrets(mk, (0, "VAR0"))
    (s3,) = _secrets(mk, (0, "VAR1"))
    (s4,) = _secrets(mk, (1, "VAR0"))
    salt = bytes(range(16))
    r1, r3 = derive_value_key(s1, salt), derive_value_key(s3, salt)

    assert s1 == s2 and derive_value_key(s2, salt) == r1
    assert len(s1) == 16 and len(r1) == 16 and len(derive_identity(s1)) == 16
    assert len({s1, r1, derive_identity(s1)}) == 3
    assert s1 != s3 and r1 != r3
    # a build salt of its own gives every build its own value keys
    assert derive_value_key(s1, bytes(16)) != r1
    assert s1 != s4  # same token, different file
    assert _secrets(mk, (0, "VAR0"), (1, "VAR0")) == [s1, s4]


def _pair(file_id: int, code: int, number: int) -> tuple[int, str]:
    """The (file id, name) pair of a token: a fixed name has no number."""
    return file_id, name_of(code, number)


# (file id, family code, number) of a token, in the whole u32 ranges
TOKENS = st.integers(0, len(TOKEN_FAMILIES) - 1).flatmap(
    lambda code: st.tuples(
        st.integers(0, 2**32 - 1), st.just(code),
        st.integers(0, 2**32 - 1) if code >= FIRST_NUMBERED else st.just(0)))


def _block(file_id: int, code: int, number: int) -> bytes:
    """A token's block, written out: u32 file id, u8 family code, u32
    number, seven zero bytes."""
    return (file_id.to_bytes(4, "big") + bytes([code])
            + number.to_bytes(4, "big") + bytes(7))


@given(st.lists(TOKENS, max_size=4))
def test_det_keys_are_aes_128_of_the_token_block_under_the_det_master_key(
        tokens):
    mk = MasterKeys(*(bytes([k]) * 16 for k in range(3)))
    assert _secrets(mk, *(_pair(*t) for t in tokens)) == [
        _aes(mk.det, _block(*t)) for t in tokens]


@given(st.lists(TOKENS, max_size=4))
def test_token_keys_are_aes_128_of_the_token_block_under_their_master_keys(
        tokens):
    # the secret is AES-128 of the block under the DET master key, and the
    # value key and the identity are keyed BLAKE2s-128 under the secret of
    # the label 0 and the build salt, and of the one-byte label 1
    mk = MasterKeys(*(bytes([k]) * 16 for k in range(3)))
    salt = bytes(range(16, 32))
    expected = [_aes(mk.det, _block(*t)) for t in tokens]
    assert [_secrets(mk, _pair(*t))[0] for t in tokens] == expected
    for secret in expected:
        assert derive_value_key(secret, salt) == hashlib.blake2s(
            b"\x00" + salt, digest_size=16, key=secret).digest()
        assert derive_identity(secret) == hashlib.blake2s(
            b"\x01", digest_size=16, key=secret).digest()


@given(st.lists(TOKENS, max_size=5))
def test_batch_token_keys_equal_one_at_a_time_derivation(tokens):
    mk = MasterKeys(*(bytes([k]) * 16 for k in range(3)))
    pairs = [_pair(*t) for t in tokens]
    assert _secrets(mk, *pairs) == [_secrets(mk, p)[0] for p in pairs]


def test_token_key_known_answers():
    # AES-128 of the zero block under the zero key; INPUT of file 0 is
    # that block
    zero = MasterKeys(*(bytes(16) for _ in range(3)))
    assert _secrets(zero, (0, "INPUT"))[0].hex() == (
        "66e94bd4ef8a2c3b884cfa59ca342b2e")
    # FIPS-197's example key; VAR7 of file 258 is 00000102 06 00000007
    # and zeros
    mk = MasterKeys(bytes(range(16)), *(bytes(16) for _ in range(2)))
    assert _secrets(mk, (258, "VAR7"))[0].hex() == (
        "3a9b208db5a05b192320f159eb681829")


@given(st.lists(TOKENS, max_size=4))
def test_pairs_pack_into_the_blocks_their_identities_parse_to(tokens):
    # (file id, name) packs with no text in between into the block that
    # opens back to the token and its name
    blocks = [token_block(*_pair(*t)) for t in tokens]
    assert blocks == [_block(*t) for t in tokens]
    assert open_token_blocks(b"".join(blocks)) == tokens
    assert [token_block(t[0], name_of(*t[1:])) for t in tokens] == blocks


@pytest.mark.parametrize("name", ["VAR", "FUNC_CALL", "INPUT0", "XSS_SENS3",
                                  "FOO", "FOO1", "var1", ""])
def test_a_name_of_no_family_packs_no_block(name):
    with pytest.raises(ValueError, match="not a token name"):
        token_block(0, name)


def test_fixed_names_take_no_number():
    assert name_of(0, 0) == "INPUT"
    assert name_of(0, 1) is None
    assert name_of(FIRST_NUMBERED, 0) == "VAR0"
    # so a block that gives a fixed name a number names no token
    assert open_token_blocks(_block(0, 0, 1) + _block(0, 0, 0)) == [
        None, (0, 0, 0)]


@given(st.lists(TOKENS, max_size=4))
def test_d_keys_open_back_to_their_token(tokens):
    mk = generate_master_keys()
    keys = _secrets(mk, *(_pair(*t) for t in tokens))
    assert open_token_keys(mk.det, keys) == tokens


def test_d_keys_under_other_keys_or_flipped_open_to_nothing():
    mk, other = generate_master_keys(), generate_master_keys()
    (key,) = _secrets(mk, (3, "VAR12"))
    assert open_token_keys(other.det, [key]) == [None]
    flipped = [(int.from_bytes(key, "big") ^ 1 << bit).to_bytes(16, "big")
               for bit in range(128)]
    assert open_token_keys(mk.det, flipped) == [None] * 128
    # a part of a block is refused, not buffered into the next
    with pytest.raises(ValueError, match="16 bytes"):
        open_token_keys(mk.det, [key[:15], key[15:] + key])
    assert open_token_keys(mk.det, [key]) == [(3, FIRST_NUMBERED, 12)]


def test_key_store_names_only_what_a_file_can_hold():
    ks = KeyStore(generate_master_keys(), "std", {0: "a.php", 1: "b.php"},
                  {0: (3, 1), 1: (0, 0)})
    var, call = FIRST_NUMBERED, FIRST_NUMBERED + 1
    assert ks.token_name(0, (0, 0, 0)) == "INPUT"
    assert ks.token_name(0, (0, var, 2)) == "VAR2"
    assert ks.token_name(0, (0, call, 0)) == "FUNC_CALL0"
    for token in [(1, 0, 0), (0, 0, 1), (0, var, 3), (0, call, 1),
                  (1, var, 0)]:
        assert ks.token_name(0, token) is None, token
    assert ks.token_name(1, (1, 5, 0)) == "XSS_SENS"


# --- DET -----------------------------------------------------------------------

def _selftest_seq(length: int, seed: int) -> bytes:
    """RFC 7693 Appendix E's deterministic test input (selftest_seq)."""
    a, b, out = 0xDEAD4BAD * seed & 0xFFFFFFFF, 1, bytearray()
    for _ in range(length):
        a, b = b, (a + b) & 0xFFFFFFFF
        out.append(b >> 24)
    return bytes(out)


def test_det_matches_the_rfc_7693_blake2s_self_test():
    # RFC 7693 Appendix E: BLAKE2s-256 over the digests of inputs of six
    # lengths, each unkeyed and keyed, at four digest lengths.  Every
    # 16-byte digest is det_encrypt's: unkeyed under the empty key, and
    # keyed under a 16-byte key as the index keys it
    def digest(size: int, key: bytes, data: bytes) -> bytes:
        if size == 16:
            return det_encrypt(key, data)
        return hashlib.blake2s(data, digest_size=size, key=key).digest()

    outer = hashlib.blake2s()
    for size in (16, 20, 28, 32):
        for length in (0, 3, 64, 65, 255, 1024):
            data = _selftest_seq(length, length)
            outer.update(digest(size, b"", data))
            outer.update(digest(size, _selftest_seq(size, size), data))
    assert outer.hexdigest() == ("6a411f08ce25adcdfb02aba641451cec"
                                 "53c598b24f4fc787fbdc88797f4c1dfe")


@given(st.binary(min_size=16, max_size=16), st.integers(1, 64),
       st.binary(min_size=16, max_size=16))
def test_a_secret_derives_distinct_lookup_keys_value_key_and_identity(
        secret, count, salt):
    derived = [det_encrypt(secret, c.to_bytes(4, "big"))
               for c in range(1, count + 1)]
    derived += [derive_value_key(secret, salt), derive_identity(secret)]
    assert len(set(derived)) == len(derived)
    assert secret not in derived


def test_det_output_sizes():
    assert len(det_encrypt(b"k" * 16, b"m")) == 16


def test_det_determinism_and_distinctness():
    key = b"\x01" * 16
    seen = set()
    for i in range(512):
        msg = i.to_bytes(4, "big")
        ct = det_encrypt(key, msg)
        assert ct == det_encrypt(key, msg)
        seen.add(ct)
    assert len(seen) == 512


def test_det_differs_across_keys():
    assert det_encrypt(b"a" * 16, b"m") != det_encrypt(b"b" * 16, b"m")


# --- RND -----------------------------------------------------------------------

def test_rnd_roundtrip_and_layout():
    key = b"\x02" * 32
    blob = rnd_encrypt(key, b"payload bytes")
    assert rnd_decrypt(key, blob) == b"payload bytes"
    # nonce(12) || ciphertext (as long as the payload) || tag(16)
    assert len(blob) == 12 + len(b"payload bytes") + 16


def test_rnd_known_answer(monkeypatch):
    # AES-256-GCM test case 14 of McGrew & Viega's GCM specification: zero
    # key, zero 96-bit nonce, 16 zero bytes; the blob is nonce || ct || tag.
    monkeypatch.setattr("cca.crypto.os.urandom", bytes)
    key, payload = bytes(32), bytes(16)
    blob = rnd_encrypt(key, payload)
    assert blob.hex() == (
        "000000000000000000000000"
        "cea7403d4d606b6e074ec5d3baf39d18"
        "d0d1c8a799996bf0265b98b5d48ab919")
    assert rnd_decrypt(key, blob) == payload


def test_rnd_known_answer_at_the_token_key_size(monkeypatch):
    # AES-128-GCM test case 2 of the same specification: value and slot
    # keys are 16 bytes, so this is the cipher every index value uses; a
    # value sealer at counter 0 uses the same zero nonce, and stores none
    monkeypatch.setattr("cca.crypto.os.urandom", bytes)
    key, payload = bytes(16), bytes(16)
    blob = rnd_encrypt(key, payload)
    assert blob == counter_nonce(0) + value_sealer(key)(0, payload)
    assert blob.hex() == (
        "000000000000000000000000"
        "0388dace60b6a392f328c2b971b2fe78"
        "ab6e47d42cec13bdf53a67b21257bddf")
    assert rnd_decrypt(key, blob) == payload


def test_counter_nonce_is_eight_zero_bytes_and_the_u32_counter():
    assert counter_nonce(1) == bytes(11) + b"\x01"
    assert counter_nonce(0x01020304).hex() == "000000000000000001020304"


def test_a_sealed_value_opens_only_at_its_own_counter():
    key = b"\x03" * 16
    seal = value_sealer(key)
    values = {c: seal(c, b"same message") for c in range(1, 65)}
    # ciphertext and tag only: the nonce is the counter's
    assert {len(v) for v in values.values()} == {len(b"same message") + 16}
    assert len(set(values.values())) == 64
    for c, value in values.items():
        assert rnd_decrypt(key, counter_nonce(c) + value) == b"same message"
        with pytest.raises(IntegrityError):
            rnd_decrypt(key, counter_nonce(c % 64 + 1) + value)


def test_a_value_opener_opens_what_the_sealer_sealed_at_that_counter():
    key = b"\x03" * 16
    value = value_sealer(key)(7, b"payload")
    open_value = value_opener(key)
    assert open_value(7, value) == b"payload"
    flipped = bytes([value[0] ^ 1]) + value[1:]
    for counter, damaged in ((8, value), (7, flipped), (7, value[:-1]),
                             (7, value[:5])):
        with pytest.raises(IntegrityError, match="tag mismatch"):
            open_value(counter, damaged)


def test_rnd_is_randomized():
    key = b"\x03" * 32
    blobs = {rnd_encrypt(key, b"same message") for _ in range(64)}
    assert len(blobs) == 64
    nonces = {b[:12] for b in blobs}
    assert len(nonces) == 64


def test_rnd_rejects_tampering():
    key = b"\x04" * 32
    blob = bytearray(rnd_encrypt(key, b"attack at dawn"))
    blob[20] ^= 0x01
    with pytest.raises(IntegrityError):
        rnd_decrypt(key, bytes(blob))


def test_rnd_rejects_wrong_key():
    blob = rnd_encrypt(b"\x05" * 32, b"secret")
    with pytest.raises(IntegrityError):
        rnd_decrypt(b"\x06" * 32, blob)


@pytest.mark.parametrize("length", [7, 16])
def test_rnd_rejects_key_of_another_length(length):
    # 16 bytes is an AES key that fails the tag; 7 bytes is no AES key
    blob = rnd_encrypt(b"\x05" * 32, b"secret")
    with pytest.raises(IntegrityError):
        rnd_decrypt(b"\x05" * length, blob)


def test_rnd_rejects_truncation():
    key = b"\x07" * 32
    blob = rnd_encrypt(key, b"secret")
    with pytest.raises(IntegrityError):
        rnd_decrypt(key, blob[:20])


@given(st.binary(min_size=0, max_size=200))
def test_rnd_roundtrip_any_payload(payload):
    key = b"\x08" * 32
    assert rnd_decrypt(key, rnd_encrypt(key, payload)) == payload


# --- ORE -----------------------------------------------------------------------

def _random_ore_key() -> OreKey:
    return OreKey(secrets.token_bytes(16), secrets.token_bytes(16))


def test_ore_orders_small_integers():
    key = _random_ore_key()
    five = ore_encrypt(key, 5)
    nine = ore_encrypt(key, 9)
    seven_a = ore_encrypt(key, 7)
    seven_b = ore_encrypt(key, 7)

    assert ore_compare(five, nine) == -1
    assert ore_compare(nine, five) == 1
    assert ore_compare(seven_a, seven_b) == 0


def test_ore_equal_values_have_distinct_ciphertexts():
    key = _random_ore_key()
    assert ore_encrypt(key, 7) != ore_encrypt(key, 7)


def test_ore_ciphertext_sizes():
    key = _random_ore_key()
    assert ore_ciphertext_bytes(32) == 340
    assert len(ore_encrypt(key, 1234)) == 340
    assert ore_left_bytes(32) == 68  # the right half is the other 272
    assert len(ore_encrypt(key, 9, width=8)) == ore_ciphertext_bytes(8)


def test_ore_range_validation():
    key = _random_ore_key()
    with pytest.raises(ValueError):
        ore_encrypt(key, -1, width=8)
    with pytest.raises(ValueError):
        ore_encrypt(key, 256, width=8)
    with pytest.raises(ValueError):
        ore_encrypt(key, 1, width=7)
    with pytest.raises(ValueError):  # widths stop below 256 bits
        ore_encrypt(key, 1, width=256)


def test_ore_length_validation_in_compare():
    key = _random_ore_key()
    a = ore_encrypt(key, 1, width=8)
    b = ore_encrypt(key, 2, width=16)
    with pytest.raises(ValueError):
        ore_compare(a, b, width=8)


def test_ore_key_derivation_is_deterministic():
    master = b"\x09" * 16
    k1 = derive_ore_key(master)
    k2 = derive_ore_key(master)
    assert (k1.prf_key, k1.prp_key) == (k2.prf_key, k2.prp_key)

    ct = ore_encrypt(k1, 41)
    assert ore_compare(ct, ore_encrypt(k2, 42)) == -1


def test_ore_left_half_is_deterministic_right_half_is_not():
    key = _random_ore_key()
    a, b, cut = ore_encrypt(key, 77), ore_encrypt(key, 77), ore_left_bytes()
    assert a[:cut] == b[:cut]
    assert a[cut:] != b[cut:]


@given(st.integers(0, 255), st.integers(0, 255))
def test_ore_agrees_with_integer_order_on_bytes(x, y):
    key = OreKey(b"\x0a" * 16, b"\x0b" * 16)
    cmp = ore_compare(ore_encrypt(key, x, width=8),
                      ore_encrypt(key, y, width=8), width=8)
    assert cmp == (x > y) - (x < y)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_ore_agrees_with_integer_order_on_words(x, y):
    key = OreKey(b"\x0c" * 16, b"\x0d" * 16)
    cmp = ore_compare(ore_encrypt(key, x), ore_encrypt(key, y))
    assert cmp == (x > y) - (x < y)


# Fixed key for the known answers below; the right half's nonce is zero.
KAT_KEY = OreKey(bytes(range(16)), bytes(range(16, 32)))


@pytest.mark.parametrize("value, width, left, right, name", [
    (200, 8, "10e1b2bbe1ceb7aad1f4bf456aa78ad530",
     "00000000000000000000000000000000"
     "4a1298a45962a00910469659104656a099105a96440621a2088a64115a504182"
     "1000566aa9986a965586164492a6a981a9a24202184912100688965552115649",
     "3010e1b2bbe1ceb7aa"),
    (70000, 32,
     "ea7b52f78a1c5aeb7f065f5d9deb5dd9aa2170840716174d0d8dddab64169a31c3"
     "e4ff0ed026c5a05037836f9226989a5ec6f226d7fc21abfbceb2be37324e143064"
     "1c22",
     # SHA-256 of the 272-byte right half
     "0756229e50446bb80728abe5b9550b05e1acd0555ef69caeb75f41c876b9360d",
     "aae4f22226d7fc21abfbceb2"),
], ids=["8-bit", "32-bit"])
def test_ore_known_answer(monkeypatch, value, width, left, right, name):
    monkeypatch.setattr("cca.crypto.os.urandom", bytes)
    ct = ore_encrypt(KAT_KEY, value, width)
    got_left, got_right = ct[:len(left) // 2], ct[len(left) // 2:]
    if width > 8:  # a long right half is pinned by its SHA-256
        got_right = hashlib.sha256(got_right).digest()
    assert (got_left.hex(), got_right.hex(), ore_name(ct, width).hex()) == (
        left, right, name)
    assert ore_name_value(KAT_KEY, bytes.fromhex(name), width) == value


def _aes(key: bytes, block: bytes) -> bytes:
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(block)


def _reference_mask(block: bytes) -> int:
    """A slot's mask: the first byte of its AES block below 255, mod 3."""
    return next((b for b in block if b != 255), 0) % 3


# Blocks that open with runs of 255, as the mask rule has to skip them
_MASK_BLOCKS = st.lists(
    st.lists(st.sampled_from((255, 255, 0, 1, 2, 127, 254)), min_size=16,
             max_size=16).map(bytes) | st.binary(min_size=16, max_size=16),
    max_size=300).map(b"".join)


@given(_MASK_BLOCKS)
def test_masks_match_the_per_block_reference(blocks):
    assert list(cca.crypto._masks(blocks)) == [
        _reference_mask(blocks[k:k + 16]) for k in range(0, len(blocks), 16)]


def _reference_permutation(prp_key: bytes, index: int, prefix: bytes) -> bytes:
    """The block permutation one counter block at a time, as first built."""
    seed = hmac.digest(prp_key, bytes([index]) + prefix, "sha256")
    perm = list(range(256))
    stream = b""
    counter = 0
    pos = 0
    for j in range(255, 0, -1):
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
    return bytes.maketrans(bytes(perm), bytes(range(256)))


# A zero key with these inputs reads 353 to 362 stream bytes, more than
# the 352 that _derive_permutation draws up front
_LONG_SHUFFLES = [(0, bytes.fromhex(p)) for p in ("0635", "0652", "0845",
                                                  "0890", "0fe3")]


@pytest.mark.parametrize("index,prefix", _LONG_SHUFFLES)
def test_permutation_that_outgrows_the_first_draw(index, prefix):
    assert cca.crypto._STREAM_BLOCKS * 32 == 352
    got = cca.crypto._derive_permutation(bytes(16), index, prefix)
    assert got == _reference_permutation(bytes(16), index, prefix)
    assert sorted(got) == list(range(256))


@given(st.binary(min_size=16, max_size=16), st.integers(0, 255),
       st.binary(max_size=31))
def test_permutation_matches_the_per_block_reference(key, index, prefix):
    assert (cca.crypto._derive_permutation(key, index, prefix)
            == _reference_permutation(key, index, prefix))


def test_masks_are_uniform_in_z3():
    # 2^20 masks from AES blocks, 256 at a time as a right half takes
    # them; a byte mod 3 alone is 0 with probability 86/256, 5.6 sigma
    # above 1/3 at this size
    n = 1 << 20
    stream = _aes(bytes(range(16)), b"".join(
        k.to_bytes(16, "big") for k in range(n)))
    masks = b"".join(cca.crypto._masks(stream[k:k + 4096])
                     for k in range(0, len(stream), 4096))
    assert len(masks) == n
    sigma = (n * (1 / 3) * (2 / 3)) ** 0.5
    for residue in range(3):
        assert abs(masks.count(residue) - n / 3) < 4 * sigma, residue


def _reference_right(key: OreKey, value: int, width: int,
                     nonce: bytes) -> bytes:
    """The right half, one slot at a time, from AES and HMAC directly."""
    raw = value.to_bytes(width // 8, "big")
    out = bytearray(nonce)
    for i, y in enumerate(raw):
        block_key = hmac.new(key.prf_key, bytes([i]) + raw[:i],
                             "sha256").digest()[:16]
        packed = bytearray(64)
        for slot, x in enumerate(key.permutation(i, raw[:i])):
            code = 0 if x == y else (1 if x < y else 2)
            tag = _aes(block_key, slot.to_bytes(16, "big"))
            v = (code + _reference_mask(_aes(nonce, tag))) % 3
            packed[slot >> 2] |= v << ((slot & 3) * 2)
        out += packed
    return bytes(out)


@given(st.sampled_from((8, 16, 32)), st.data())
def test_ore_right_half_matches_the_per_slot_reference(width, data):
    value = data.draw(st.integers(0, (1 << width) - 1))
    nonce = bytes(range(100, 116))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("cca.crypto.os.urandom", lambda n: nonce[:n])
        got = ore_encrypt(KAT_KEY, value, width)[ore_left_bytes(width):]
    assert got == _reference_right(KAT_KEY, value, width, nonce)


def test_ore_compare_is_the_same_with_the_nonce_memo_cold_and_warm():
    memo = cca.crypto._nonce_cipher
    values = [0, 7, 7, 8, 255, 256, 70000, 2**31, 2**32 - 1]
    cts = [ore_encrypt(KAT_KEY, v) for v in values]
    expected = [[(x > y) - (x < y) for y in values] for x in values]

    def answers(clear: bool) -> list[list[int]]:
        rows = []
        for a in cts:
            rows.append([])
            for b in cts:
                if clear:
                    memo.cache_clear()
                rows[-1].append(ore_compare(a, b))
        return rows

    assert answers(clear=True) == expected
    hits = memo.cache_info().hits
    assert answers(clear=False) == expected
    assert memo.cache_info().hits > hits
    for v in range(100):  # more nonces than the memo holds
        ore_compare(cts[0], ore_encrypt(KAT_KEY, v))
    assert answers(clear=False) == expected


# --- ORE names -------------------------------------------------------------------

NAME_KEY = OreKey(b"\x0e" * 16, b"\x0f" * 16)


def test_ore_names_round_trip_every_8_bit_value():
    for width in (8, 32):
        for value in range(256):
            name = ore_name(ore_encrypt(NAME_KEY, value, width), width)
            assert len(name) == width // 8 + 8
            assert ore_name_value(NAME_KEY, name, width) == value


def test_ore_name_is_part_of_the_left_half():
    ct = ore_encrypt(NAME_KEY, 70000)
    left = ct[:ore_left_bytes()]
    assert ore_name(ct) == left[16::17] + left[51:59]


def test_flipped_ore_name_byte_is_a_key_mismatch():
    name = ore_name(ore_encrypt(NAME_KEY, 70000))
    for position in range(len(name)):  # four slot bytes, eight check bytes
        flipped = bytearray(name)
        flipped[position] ^= 1
        with pytest.raises(KeyMismatchError):
            ore_name_value(NAME_KEY, bytes(flipped))


def test_ore_name_under_another_key_is_a_key_mismatch():
    name = ore_name(ore_encrypt(NAME_KEY, 5))
    with pytest.raises(KeyMismatchError):
        ore_name_value(OreKey(b"\x0e" * 16, b"\x10" * 16), name)


def test_ore_name_of_the_wrong_length_is_a_format_error():
    name = ore_name(ore_encrypt(NAME_KEY, 5))
    with pytest.raises(FormatError):
        ore_name_value(NAME_KEY, name[:-1])
    with pytest.raises(FormatError):
        ore_name_value(NAME_KEY, name, width=16)


# --- scope tags ------------------------------------------------------------------

def test_scope_tag_known_answer():
    # FIPS-197's example key; file 258 and the triple (2, 1, -1)
    packed = struct.pack(">Iiii", 258, 2, 1, -1)
    assert packed.hex() == "000001020000000200000001ffffffff"
    assert scope_sealer(bytes(range(16)))(packed).hex() == (
        "747210d89a2347a6becd83dd6ae2acb0")


@given(st.integers(0, 2**32 - 1),
       st.tuples(*[st.integers(-2**31, 2**31 - 1)] * 3))
def test_scope_tag_is_one_aes_block_of_the_file_id_and_the_triple(
        file_id, triple):
    key = bytes(range(16))
    packed = struct.pack(">Iiii", file_id, *triple)
    tag = scope_sealer(key)(packed)
    assert tag == _aes(key, packed)
    assert open_scope_tags(key, [file_id], [tag]) == [triple]


def test_scope_tag_under_another_key_or_flipped_is_a_key_mismatch():
    key = b"\x01" * 16
    tag = scope_sealer(key)(struct.pack(">Iiii", 4, 1, 2, -1))
    with pytest.raises(KeyMismatchError, match="scope tag"):
        open_scope_tags(b"\x02" * 16, [4], [tag])
    with pytest.raises(KeyMismatchError, match="scope tag"):
        open_scope_tags(key, [5], [tag])  # another file's
    for bit in range(128):
        flipped = int.from_bytes(tag, "big") ^ 1 << bit
        with pytest.raises(KeyMismatchError):
            open_scope_tags(key, [4, 4], [tag, flipped.to_bytes(16, "big")])
    with pytest.raises(ValueError, match="16 bytes"):
        open_scope_tags(key, [4, 4], [tag + b"\0", tag[1:]])
    assert open_scope_tags(key, [4], [tag]) == [(1, 2, -1)]


# --- key store -----------------------------------------------------------------

def _sample_store() -> KeyStore:
    mk = generate_master_keys()
    return KeyStore(
        master=mk,
        mode="ore",
        files={0: "index.php", 1: "lib/db.php"},
        counts={0: (3, 0), 1: (65535, 7)},
    )


def test_keystore_roundtrip(tmp_path):
    ks = _sample_store()
    path = tmp_path / "app.ccakeys"
    save_keys(path, ks)
    back = load_keys(path)

    assert back.master == ks.master
    assert back.mode == "ore"
    assert back.files == ks.files
    assert back.counts == ks.counts
    # header (magic, version, mode), three master keys, file count, then
    # per file: u32 id, u16 path length, path, u16 VAR count, u16 FUNC_CALL
    # count
    assert len(serialize_keys(ks)) == (10 + 3 * 16 + 4
                                       + (6 + 9 + 4) + (6 + 10 + 4))


def test_keystore_file_is_private(tmp_path):
    path = tmp_path / "app.ccakeys"
    save_keys(path, _sample_store())
    mode = stat.S_IMODE(path.stat().st_mode)
    assert mode == 0o600


def test_keystore_truncation_rejected():
    blob = serialize_keys(_sample_store())
    with pytest.raises(FormatError):
        deserialize_keys(blob[: len(blob) // 2])


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
def test_old_keystore_version_rejected_by_name(version):
    # version 1 held ore value tables, version 2 named ore fields with
    # SHA-256 tags, version 3 held a token directory instead of name counts,
    # version 4 held the DET hash, the ORE width and the master key length,
    # version 5 held six master keys, four of them ORE field keys,
    # version 6 derived token and scope keys with HMAC-SHA256, and
    # version 7 held the RND master key
    blob = serialize_keys(_sample_store())
    with pytest.raises(FormatError, match=f"version {version}"):
        deserialize_keys(blob[:8] + bytes([version]) + blob[9:])


def test_keystore_bad_magic_rejected():
    blob = serialize_keys(_sample_store())
    with pytest.raises(FormatError):
        deserialize_keys(b"NOTKEYS!" + blob[8:])


def test_keystore_trailing_bytes_rejected():
    blob = serialize_keys(_sample_store())
    with pytest.raises(FormatError):
        deserialize_keys(blob + b"\x00")
