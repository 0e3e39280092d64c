"""Encryption primitives and key management."""

from __future__ import annotations

import hashlib
import hmac
import stat

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, strategies as st

import cca.crypto
from cca import (
    derive_token_keys,
    det_encrypt,
    generate_master_keys,
    load_keys,
    ore_compare,
    ore_encrypt,
    rnd_decrypt,
    rnd_encrypt,
)
from cca.crypto import (
    KeyStore,
    MasterKeys,
    OreKey,
    derive_det_keys,
    derive_ore_key,
    derive_token_key_pairs,
    deserialize_keys,
    det_encrypter,
    ore_ciphertext_bytes,
    ore_encrypt_left,
    ore_encrypt_right,
    ore_keygen,
    ore_name,
    ore_name_value,
    save_keys,
    serialize_keys,
)
from cca.errors import FormatError, IntegrityError, KeyMismatchError


# --- master keys ---------------------------------------------------------------

def test_default_security_parameter_gives_six_16_byte_keys():
    mk = generate_master_keys()
    parts = mk.as_tuple()
    assert len(parts) == 6
    assert all(len(k) == 16 for k in parts)
    assert len(set(parts)) == 6


def test_token_key_derivation_is_deterministic_and_separated():
    mk = generate_master_keys()
    d1, r1 = derive_token_keys(mk, "0:VAR0")
    d2, r2 = derive_token_keys(mk, "0:VAR0")
    d3, r3 = derive_token_keys(mk, "0:VAR1")
    d4, _ = derive_token_keys(mk, "1:VAR0")

    assert (d1, r1) == (d2, r2)
    assert len(d1) == 32 and len(r1) == 32
    assert d1 != r1
    assert d1 != d3 and r1 != r3
    assert d1 != d4  # same token, different file
    assert derive_det_keys(mk, ["0:VAR0", "1:VAR0"]) == [d1, d4]


@given(st.integers(16, 100), st.lists(st.text(max_size=80), max_size=3))
def test_det_keys_are_hmac_sha256_under_the_det_master_key(key_len, ids):
    # keys longer than the 64-byte block are hashed first, as RFC 2104 says
    mk = MasterKeys(*(bytes([k]) * key_len for k in range(6)))
    assert derive_det_keys(mk, ids) == [
        hmac.new(mk.det, i.encode(), "sha256").digest() for i in ids]


@given(st.lists(st.text(max_size=40), max_size=5))
def test_batch_token_keys_equal_one_at_a_time_derivation(ids):
    mk = MasterKeys(*(bytes([k]) * 16 for k in range(6)))
    assert derive_token_key_pairs(mk, ids) == [
        derive_token_keys(mk, i) for i in ids]


# --- DET -----------------------------------------------------------------------

def test_det_matches_published_hmac_sha1_vector():
    # RFC 2202 test case 2.
    digest = det_encrypt(b"Jefe", b"what do ya want for nothing?")
    assert digest.hex() == "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"


def test_det_matches_published_hmac_sha256_vector():
    # RFC 4231 test case 2, as the DET key of a token under the DET master key
    mk = MasterKeys(b"Jefe", *(bytes(16) for _ in range(5)))
    (digest,) = derive_det_keys(mk, ["what do ya want for nothing?"])
    assert digest.hex() == (
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    )


@given(st.binary(min_size=1, max_size=100), st.lists(st.binary(max_size=8),
                                                    max_size=4))
def test_det_encrypter_equals_det_encrypt(key, messages):
    probe = det_encrypter(key)
    assert [probe(m) for m in messages] == [det_encrypt(key, m)
                                            for m in messages]


def test_det_output_sizes():
    assert len(det_encrypt(b"k" * 16, b"m")) == 20


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

def test_ore_orders_small_integers():
    key = ore_keygen()
    five = ore_encrypt(key, 5)
    nine = ore_encrypt(key, 9)
    seven_a = ore_encrypt(key, 7)
    seven_b = ore_encrypt(key, 7)

    assert ore_compare(five, nine) == -1
    assert ore_compare(nine, five) == 1
    assert ore_compare(seven_a, seven_b) == 0


def test_ore_equal_values_have_distinct_ciphertexts():
    key = ore_keygen()
    assert ore_encrypt(key, 7) != ore_encrypt(key, 7)


def test_ore_ciphertext_sizes():
    key = ore_keygen()
    assert ore_ciphertext_bytes(32) == 340
    assert len(ore_encrypt(key, 1234)) == 340
    assert len(ore_encrypt_left(key, 1234)) == 68
    assert len(ore_encrypt_right(key, 1234)) == 272
    assert len(ore_encrypt(key, 9, width=8)) == ore_ciphertext_bytes(8)


def test_ore_signed_mode_orders_negative_branch_types():
    key = ore_keygen()
    minus = ore_encrypt(key, -1, width=8, signed=True)
    zero = ore_encrypt(key, 0, width=8, signed=True)
    plus = ore_encrypt(key, 3, width=8, signed=True)

    assert ore_compare(minus, zero, width=8) == -1
    assert ore_compare(zero, plus, width=8) == -1
    assert ore_compare(minus, plus, width=8) == -1


def test_ore_range_validation():
    key = ore_keygen()
    with pytest.raises(ValueError):
        ore_encrypt(key, -1, width=8)
    with pytest.raises(ValueError):
        ore_encrypt(key, 256, width=8)
    with pytest.raises(ValueError):
        ore_encrypt(key, 1, width=7)
    with pytest.raises(ValueError):  # widths stop below 256 bits
        ore_encrypt(key, 1, width=256)


def test_ore_length_validation_in_compare():
    key = ore_keygen()
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
    key = ore_keygen()
    assert ore_encrypt_left(key, 77) == ore_encrypt_left(key, 77)
    assert ore_encrypt_right(key, 77) != ore_encrypt_right(key, 77)


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


@pytest.mark.parametrize("value, width, signed, left, right, name", [
    (200, 8, False, "10e1b2bbe1ceb7aad1f4bf456aa78ad530",
     "00000000000000000000000000000000"
     "4a1298a45962a00910469659104656a099105a96440621a2088a64115a504182"
     "1000566aa9986a965586164492a6a981a9a24202184912100688965552115649",
     "3010e1b2bbe1ceb7aa"),
    (70000, 32, False,
     "ea7b52f78a1c5aeb7f065f5d9deb5dd9aa2170840716174d0d8dddab64169a31c3"
     "e4ff0ed026c5a05037836f9226989a5ec6f226d7fc21abfbceb2be37324e143064"
     "1c22",
     # SHA-256 of the 272-byte right half
     "cd2c24e3bd87717e155e10adf4afcc0646d94e2434edd6529e9cb197d76967a2",
     "aae4f22226d7fc21abfbceb2"),
    (-5, 8, True, "b1879a4c84b03f140d7de329301278f3c3",
     "00000000000000000000000000000000"
     "521210a45162200a544aaa99124694a099106a9684142520088848155a605184"
     "15056a6a2199689669161844a28aa10562804210289924110a901a595215aa89",
     "c3b1879a4c84b03f14"),
], ids=["8-bit", "32-bit", "signed"])
def test_ore_known_answer(monkeypatch, value, width, signed, left, right,
                          name):
    monkeypatch.setattr("cca.crypto.os.urandom", bytes)
    ct = ore_encrypt(KAT_KEY, value, width, signed)
    got_left, got_right = ct[:len(left) // 2], ct[len(left) // 2:]
    if width > 8:  # a long right half is pinned by its SHA-256
        got_right = hashlib.sha256(got_right).digest()
    assert (got_left.hex(), got_right.hex(), ore_name(ct, width).hex()) == (
        left, right, name)
    assert ore_name_value(KAT_KEY, bytes.fromhex(name), width, signed) == value


def _aes(key: bytes, block: bytes) -> bytes:
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(block)


def _reference_right(key: OreKey, value: int, width: int, signed: bool,
                     nonce: bytes) -> bytes:
    """The right half, one slot at a time, from AES and HMAC directly."""
    if signed:
        value += 1 << (width - 1)
    raw = value.to_bytes(width // 8, "big")
    out = bytearray(nonce)
    for i, y in enumerate(raw):
        block_key = hmac.new(key.prf_key, bytes([i]) + raw[:i],
                             "sha256").digest()[:16]
        packed = bytearray(64)
        for slot, x in enumerate(key.permutation(i, raw[:i])):
            code = 0 if x == y else (1 if x < y else 2)
            tag = _aes(block_key, slot.to_bytes(16, "big"))
            v = (code + _aes(nonce, tag)[0] % 3) % 3
            packed[slot >> 2] |= v << ((slot & 3) * 2)
        out += packed
    return bytes(out)


@given(st.sampled_from((8, 16, 32)), st.booleans(), st.data())
def test_ore_right_half_matches_the_per_slot_reference(width, signed, data):
    low = -(1 << (width - 1)) if signed else 0
    value = data.draw(st.integers(low, low + (1 << width) - 1))
    nonce = bytes(range(100, 116))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("cca.crypto.os.urandom", lambda n: nonce[:n])
        got = ore_encrypt_right(KAT_KEY, value, width, signed)
    assert got == _reference_right(KAT_KEY, value, width, signed, nonce)


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


def test_ore_names_round_trip_signed_16_bit_values():
    for value in range(-300, 300):
        name = ore_name(ore_encrypt(NAME_KEY, value, 16, signed=True), 16)
        assert ore_name_value(NAME_KEY, name, 16, signed=True) == value


def test_ore_name_is_part_of_the_left_half():
    left = ore_encrypt_left(NAME_KEY, 70000)
    assert ore_name(ore_encrypt(NAME_KEY, 70000)) == left[16::17] + left[51:59]


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
    # header (magic, version, mode), six master keys, file count, then per
    # file: u32 id, u16 path length, path, u16 VAR count, u16 FUNC_CALL count
    assert len(serialize_keys(ks)) == (10 + 6 * 16 + 4
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


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_old_keystore_version_rejected_by_name(version):
    # version 1 held ore value tables, version 2 named ore fields with
    # SHA-256 tags, version 3 held a token directory instead of name counts,
    # version 4 held the DET hash, the ORE width and the master key length
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
