"""Encrypted inverted-index construction and serialization."""

from __future__ import annotations

import struct

import pytest

import cca.index
from cca import (
    build_index,
    det_encrypt,
    derive_token_keys,
    generate_master_keys,
    lex,
    load_rules,
    load_task_knowledge,
    rnd_decrypt,
    translate,
)
from cca.crypto import (
    ore_ciphertext_bytes,
    ore_encrypt,
    ore_field_keys,
    ore_name,
    ore_name_value,
)
from cca.dcfg import (
    DCFG,
    DCFGPair,
    ExtendedITLToken,
    annotate_control_flow,
    build_dcfg,
)
from cca.errors import ConfigError, FormatError
from cca.index import (
    candidate_names,
    deserialize_index,
    index_stats,
    load_index,
    save_index,
    serialize_index,
    token_identity,
)
from corpus import CORPUS


def _dcfg_for(source: str):
    rules, tk = load_rules(), load_task_knowledge()
    tokens, ctx = translate(lex(source), rules, tk)
    return build_dcfg(annotate_control_flow(tokens), ctx)


@pytest.fixture(scope="module")
def fig_dcfg():
    return _dcfg_for(CORPUS["fig_flow"]["index.php"])


@pytest.fixture(scope="module")
def master():
    return generate_master_keys()


# --- plain mode ----------------------------------------------------------------

def test_plain_mode_keys_and_values(fig_dcfg, master, monkeypatch):
    # a plain build keys nothing, so it derives no token keys either
    monkeypatch.setattr(cca.index, "derive_token_key_pairs", None)
    index, _ = build_index([(0, fig_dcfg)], master, mode="plain")

    entries = {e.key.decode(): e.value.decode() for e in index.entries}
    assert entries == {
        "0:VAR0#1": "0:INPUT|2|0|0|0",
        "0:VAR1#1": "0:STRING|3|0|0|0",
        "0:VAR2#1": "0:VAR0|4|0|0|0",
        "0:VAR2#2": "0:VAR2|5|0|0|0",
        "0:XSS_SENS#1": "0:VAR0|6|0|0|0",
        "0:XSS_SENS#2": "0:VAR2|7|0|0|0",
    }


def test_plain_mode_preserves_build_order(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="plain")
    keys = [e.key.decode() for e in index.entries]
    assert keys == sorted(keys, key=keys.index)  # stable
    assert keys[0] == "0:VAR0#1"
    assert keys[-1] == "0:XSS_SENS#2"


def test_counters_start_at_one_per_left_token(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="plain")
    counters = {}
    for e in index.entries:
        ident, counter = e.key.decode().rsplit("#", 1)
        counters.setdefault(ident, []).append(int(counter))
    for ident, seen in counters.items():
        assert seen == list(range(1, len(seen) + 1)), ident


# --- std mode: independent key reconstruction -----------------------------------

def test_std_mode_keys_match_independent_derivation(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="std")

    expected = []
    for left, pairs in fig_dcfg.by_left().items():
        d_left, _ = derive_token_keys(master, token_identity(0, left))
        for counter in range(1, len(pairs) + 1):
            expected.append(det_encrypt(d_left, struct.pack(">I", counter)))
    assert sorted(e.key for e in index.entries) == sorted(expected)


def test_std_mode_payload_opens_to_chained_keys_and_fields(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="std")

    d_sens, r_sens = derive_token_keys(master, token_identity(0, "XSS_SENS"))
    probe = det_encrypt(d_sens, struct.pack(">I", 1))
    blob = index.lookup(probe)
    assert blob is not None

    payload = rnd_decrypt(r_sens, blob)
    d_right, r_right = payload[:32], payload[32:64]
    line, depth, order, cf_type = struct.unpack(">iiii", payload[64:])
    assert (d_right, r_right) == derive_token_keys(
        master, token_identity(0, "VAR0"))
    assert (line, depth, order, cf_type) == (6, 0, 0, 0)


def test_sensitive_counter_three_is_absent(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="std")
    d_sens, _ = derive_token_keys(master, token_identity(0, "XSS_SENS"))
    assert index.lookup(det_encrypt(d_sens, struct.pack(">I", 1)))
    assert index.lookup(det_encrypt(d_sens, struct.pack(">I", 2)))
    assert index.lookup(det_encrypt(d_sens, struct.pack(">I", 3))) is None


# --- leakage shape --------------------------------------------------------------

@pytest.mark.parametrize("mode", ["std", "ore"])
def test_keys_unique_values_uniform(fig_dcfg, master, mode):
    index, _ = build_index([(0, fig_dcfg)], master, mode=mode)

    keys = [e.key for e in index.entries]
    assert len(set(keys)) == len(keys)
    lengths = {len(e.value) for e in index.entries}
    assert len(lengths) == 1


def test_entry_count_equals_pair_count(master):
    rules, tk = load_rules(), load_task_knowledge()
    per_file = []
    total = 0
    for file_id, name in enumerate(("fig_flow", "branching", "both_tasks")):
        tokens, ctx = translate(lex(CORPUS[name]["index.php"]), rules, tk)
        dcfg = build_dcfg(annotate_control_flow(tokens), ctx)
        per_file.append((file_id, dcfg))
        total += len(dcfg.pairs)

    for mode in ("plain", "std", "ore"):
        index, _ = build_index(per_file, master, mode=mode)
        assert len(index) == total


def test_rebuild_same_keys_fresh_values(fig_dcfg, master):
    first, _ = build_index([(0, fig_dcfg)], master, mode="std")
    second, _ = build_index([(0, fig_dcfg)], master, mode="std")

    assert sorted(e.key for e in first.entries) == \
        sorted(e.key for e in second.entries)
    assert not ({e.value for e in first.entries}
                & {e.value for e in second.entries})


def test_empty_input_builds_empty_index(master):
    index, counts = build_index([], master, mode="ore")
    assert len(index) == 0
    assert counts == {}


def test_same_token_in_two_files_gets_distinct_keys(master):
    dcfg = _dcfg_for("<?php $a = $_GET['x'];")
    index, _ = build_index([(0, dcfg), (1, dcfg)], master, mode="std")
    keys = [e.key for e in index.entries]
    assert len(keys) == 2
    assert len(set(keys)) == 2


# --- what the key store needs -----------------------------------------------------

@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_name_counts_bound_each_numbered_family(fig_dcfg, master, mode):
    # fig_flow's pairs hold VAR0, VAR1, VAR2 and no FUNC_CALL<n>
    _, counts = build_index([(0, fig_dcfg), (4, DCFG([]))], master, mode=mode)
    assert counts == {0: (3, 0), 4: (0, 0)}
    assert {"VAR0", "VAR1", "VAR2", "XSS_SENS", "INPUT", "STRING"} <= \
        set(candidate_names(counts[0]))


def test_every_corpus_pair_token_is_a_candidate_name(corpus_per_file, master):
    _, counts = build_index(corpus_per_file, master, mode="plain")
    for file_id, dcfg in corpus_per_file:
        names = set(candidate_names(counts[file_id]))
        for pair in dcfg:
            assert {pair.left, pair.right.token} <= names


@pytest.mark.parametrize("token", ["VAR65535", "FUNC_CALL65535"])
def test_name_count_past_u16_names_file_and_family(master, token):
    dcfg = DCFG([DCFGPair("XSS_SENS", ExtendedITLToken(token, 1, 0, 0, 0))])
    family = token.rstrip("0123456789")
    with pytest.raises(ConfigError, match=rf"^app/big\.php: 65536 {family} "):
        build_index([(2, dcfg)], master, mode="plain",
                    names={2: "app/big.php"})
    ok = DCFG([DCFGPair("XSS_SENS", ExtendedITLToken(f"{family}65534", 1, 0,
                                                     0, 0))])
    _, counts = build_index([(2, ok)], master, mode="plain")
    assert max(counts[2]) == 65535


def _ore_fields(index, counts, master):
    """The four field ciphertexts of every entry, read with the keys."""
    size = ore_ciphertext_bytes()
    for file_id, file_counts in counts.items():
        for token in candidate_names(file_counts):
            d_key, r_key = derive_token_keys(master,
                                             token_identity(file_id, token))
            counter = 1
            while blob := index.lookup(det_encrypt(d_key,
                                                   struct.pack(">I", counter))):
                fields = rnd_decrypt(r_key, blob)[64:]
                yield [fields[k * size:(k + 1) * size] for k in range(4)]
                counter += 1


def _field_values(master, entries):
    """(field name, value, ciphertext) of every field of every entry."""
    field_keys = ore_field_keys(master)
    for cts in entries:
        for (name, (key, signed)), ct in zip(field_keys.items(), cts):
            yield name, ore_name_value(key, ore_name(ct), 32, signed), ct


def test_ore_field_names_decrypt_every_field(fig_dcfg, master):
    index, counts = build_index([(0, fig_dcfg)], master, mode="ore")
    entries = list(_ore_fields(index, counts, master))
    assert len(entries) == len(index)
    values = {value for _, value, _ in _field_values(master, entries)}
    assert values == {0, 2, 3, 4, 5, 6, 7}


# --- ore mode: one ciphertext per distinct field value per build ------------------

@pytest.fixture(scope="module")
def corpus_per_file():
    texts = [text for app in CORPUS.values() for text in app.values()]
    return [(file_id, _dcfg_for(text)) for file_id, text in enumerate(texts)]


def test_ore_build_encrypts_each_distinct_field_value_once(
        corpus_per_file, master, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return ore_encrypt(*args, **kwargs)

    monkeypatch.setattr(cca.index, "ore_encrypt", counting)
    index, _ = build_index(corpus_per_file, master, mode="ore")
    distinct = {(name, value)
                for _, dcfg in corpus_per_file for pair in dcfg
                for name, value in zip(
                    ("line", "depth", "order", "type"),
                    (pair.right.line, pair.right.depth, pair.right.order,
                     pair.right.cf_type))}
    assert len(index) == 315
    assert len(calls) == len(distinct) == 49


def test_equal_field_values_share_one_ciphertext_per_build(
        corpus_per_file, master):
    index, counts = build_index(corpus_per_file, master, mode="ore")
    by_value: dict[tuple[str, int], set[bytes]] = {}
    for name, value, ct in _field_values(
            master, _ore_fields(index, counts, master)):
        by_value.setdefault((name, value), set()).add(ct)
    assert len(by_value) == 49
    assert all(len(cts) == 1 for cts in by_value.values())
    # no two (field, value) pairs share bytes, across fields included
    assert len(set().union(*by_value.values())) == 49


def test_two_ore_builds_share_no_field_ciphertext(fig_dcfg, master):
    builds = []
    for _ in range(2):
        index, counts = build_index([(0, fig_dcfg)], master, mode="ore")
        builds.append({ct for cts in _ore_fields(index, counts, master)
                       for ct in cts})
    assert builds[0] and not builds[0] & builds[1]


def _sink_at_line(line: int) -> DCFG:
    return DCFG([DCFGPair("XSS_SENS", ExtendedITLToken("INPUT", line, 0, 0, 0))])


def test_out_of_range_field_value_names_file_field_and_width(master):
    with pytest.raises(ConfigError, match=r"^app/index\.php: line value "
                                          r"4294967296 .* 32-bit"):
        build_index([(3, _sink_at_line(2**32))], master, mode="ore",
                    names={3: "app/index.php"})
    build_index([(3, _sink_at_line(2**32 - 1))], master, mode="ore")


def test_std_field_out_of_signed_32_bits_names_file_field_and_range(master):
    with pytest.raises(ConfigError, match=r"^app/index\.php: line value "
                                          r"2147483648 .*signed 32-bit"):
        build_index([(3, _sink_at_line(2**31))], master, mode="std",
                    names={3: "app/index.php"})
    build_index([(3, _sink_at_line(2**31 - 1))], master, mode="std")


# --- serialization ---------------------------------------------------------------

@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_serialize_roundtrip(fig_dcfg, master, mode, tmp_path):
    index, _ = build_index([(0, fig_dcfg)], master, mode=mode)
    path = tmp_path / "app.ccaidx"
    save_index(path, index)
    back = load_index(path)

    assert back.mode == index.mode
    assert {(e.key, e.value) for e in back.entries} == \
        {(e.key, e.value) for e in index.entries}


@pytest.mark.parametrize("option", [{"mode": "fast"}])
def test_build_rejects_unsupported_parameters(fig_dcfg, master, option):
    with pytest.raises(ValueError):
        build_index([(0, fig_dcfg)], master, **option)


def test_truncated_container_rejected(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="ore")
    blob = serialize_index(index)
    for cut in (4, len(blob) // 2, len(blob) - 3):
        with pytest.raises(FormatError):
            deserialize_index(blob[:cut])


def test_bad_magic_rejected(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="ore")
    blob = serialize_index(index)
    with pytest.raises(FormatError):
        deserialize_index(b"XXXXXXXX" + blob[8:])


@pytest.mark.parametrize("version", [1, 2, 3])
def test_old_index_version_rejected_by_name(fig_dcfg, master, version):
    # version 1 sealed values with CBC + HMAC, version 2 masked ore fields
    # with SHA-256, version 3 held the DET hash and the ORE width
    index, _ = build_index([(0, fig_dcfg)], master, mode="ore")
    blob = serialize_index(index)
    with pytest.raises(FormatError, match=f"version {version}"):
        deserialize_index(blob[:8] + bytes([version]) + blob[9:])


def test_stats_report_counts_and_sizes(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="std")
    stats = index_stats(index)
    assert stats["entries"] == 6
    assert stats["mode"] == "std"
    assert stats["distinct_keys"] == 6
    assert stats["key_bytes"] == [20]
    assert len(stats["value_bytes"]) == 1
    assert stats["container_bytes"] > 0
