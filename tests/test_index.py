"""Encrypted inverted-index construction and serialization."""

from __future__ import annotations

import struct
from dataclasses import replace
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

import cca.crypto
import cca.index
from cca import (
    analyse,
    authorise,
    build_index,
    decrypt_report,
    det_encrypt,
    generate_master_keys,
    lex,
    load_rules,
    load_task_knowledge,
    rnd_decrypt,
    rnd_encrypt,
    translate,
)
from cca.crypto import (
    FIRST_NUMBERED,
    KEY_BYTES,
    TOKEN_FAMILIES,
    KeyStore,
    counter_nonce,
    derive_ore_key,
    derive_secrets,
    derive_value_key,
    name_of,
    ore_ciphertext_bytes,
    ore_encrypt,
    ore_name,
    ore_name_value,
    open_scope_tags,
    open_token_blocks,
    token_block,
)
from cca.dcfg import (
    VALUE_FAMILIES,
    DCFG,
    DCFGPair,
    ExtendedITLToken,
    annotate_control_flow,
    build_dcfg,
)
from cca.errors import (
    ConfigError,
    FormatError,
    IntegrityError,
    KeyMismatchError,
)
from cca.index import (
    FIELDS,
    deserialize_index,
    index_stats,
    load_index,
    payload_struct,
    plain_key,
    save_index,
    serialize_index,
)
from cca.oracle import plaintext_analyse
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

def _as_text(key: bytes, value: bytes) -> tuple[str, str]:
    """A plain entry written out: `FILEID:TOKEN#COUNTER` for the key (the
    left token's identity block, its last four bytes the counter) and
    `FILEID:RIGHT|count|line|depth|order|type` for the value (the right
    token's block, then its entry count and four signed fields, one byte
    each: every width of a figure build)."""
    file_id, code, number, zeros, counter = struct.unpack(">IBI3sI", key)
    assert zeros == bytes(3)
    ((right_file, right_code, right_number),) = open_token_blocks(value[:16])
    right = f"{right_file}:{name_of(right_code, right_number)}"
    return (f"{file_id}:{name_of(code, number)}#{counter}",
            "|".join([right, *map(str, struct.unpack(">B4b", value[16:]))]))


def test_plain_mode_keys_and_values(fig_dcfg, master, monkeypatch):
    # a plain build keys nothing, so it derives no token secrets either
    monkeypatch.setattr(cca.index, "derive_secrets", None)
    index, _ = build_index([(0, fig_dcfg)], master, mode="plain")

    assert {len(k) for k in index.table} == {16}
    # the count and the four fields each fit one byte
    assert index.widths == (1, 1, 1, 1, 1)
    assert {len(v) for v in index.table.values()} == {21}
    entries = dict(_as_text(k, v) for k, v in index.table.items())
    assert entries == {
        "0:VAR0#1": "0:INPUT|0|2|0|0|0",
        "0:VAR1#1": "0:STRING|0|3|0|0|0",
        "0:VAR2#1": "0:VAR0|1|4|0|0|0",
        "0:VAR2#2": "0:VAR2|2|5|0|0|0",
        "0:XSS_SENS#1": "0:VAR0|1|6|0|0|0",
        "0:XSS_SENS#2": "0:VAR2|2|7|0|0|0",
    }


def test_plain_mode_preserves_build_order(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="plain")
    keys = [_as_text(k, v)[0] for k, v in index.table.items()]
    assert keys == sorted(keys, key=keys.index)  # stable
    assert keys[0] == "0:VAR0#1"
    assert keys[-1] == "0:XSS_SENS#2"


def test_counters_start_at_one_per_left_token(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="plain")
    counters = {}
    for key, value in index.table.items():
        ident, counter = _as_text(key, value)[0].rsplit("#", 1)
        counters.setdefault(ident, []).append(int(counter))
    for ident, seen in counters.items():
        assert seen == list(range(1, len(seen) + 1)), ident


# --- std mode: independent key reconstruction -----------------------------------

def test_std_mode_keys_match_independent_derivation(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="std")

    expected = []
    for left, pairs in fig_dcfg.by_left().items():
        (d_left,) = derive_secrets(master, token_block(0, left))
        for counter in range(1, len(pairs) + 1):
            expected.append(det_encrypt(d_left, struct.pack(">I", counter)))
    assert sorted(index.table) == sorted(expected)


def test_std_mode_payload_opens_to_chained_keys_and_fields(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="std")

    (s_sens,) = derive_secrets(master, token_block(0, "XSS_SENS"))
    probe = det_encrypt(s_sens, struct.pack(">I", 1))
    blob = index.lookup(probe)
    assert blob is not None

    assert len(blob) == 21 + 16  # no nonce: the counter's is implicit
    payload = rnd_decrypt(derive_value_key(s_sens, index.salt),
                          counter_nonce(1) + blob)
    # S_right || its entry count || four signed fields, each one byte
    assert len(payload) == 21
    s_right, count, *fields = struct.unpack(">16sB4b", payload)
    assert [s_right] == derive_secrets(master, token_block(0, "VAR0"))
    assert (count, *fields) == (1, 6, 0, 0, 0)


def test_std_values_are_bound_to_their_counter_and_build(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="std")
    (s_sens,) = derive_secrets(master, token_block(0, "XSS_SENS"))
    blob = index.lookup(det_encrypt(s_sens, struct.pack(">I", 1)))
    with pytest.raises(IntegrityError):  # the nonce of another counter
        rnd_decrypt(derive_value_key(s_sens, index.salt),
                    counter_nonce(2) + blob)
    # a rebuild under the same master keys draws another salt, so its
    # value keys differ and no (key, nonce) pair repeats
    again, _ = build_index([(0, fig_dcfg)], master, mode="std")
    assert len({index.salt, again.salt}) == 2
    with pytest.raises(IntegrityError):
        rnd_decrypt(derive_value_key(s_sens, again.salt),
                    counter_nonce(1) + blob)


def test_sensitive_counter_three_is_absent(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="std")
    (d_sens,) = derive_secrets(master, token_block(0, "XSS_SENS"))
    assert index.lookup(det_encrypt(d_sens, struct.pack(">I", 1)))
    assert index.lookup(det_encrypt(d_sens, struct.pack(">I", 2)))
    assert index.lookup(det_encrypt(d_sens, struct.pack(">I", 3))) is None


# --- leakage shape --------------------------------------------------------------

@pytest.mark.parametrize("mode", ["std", "ore"])
def test_keys_unique_values_uniform(fig_dcfg, master, mode, monkeypatch):
    index, _ = build_index([(0, fig_dcfg)], master, mode=mode)

    lengths = {len(v) for v in index.table.values()}
    assert len(lengths) == 1
    # a build whose lookup keys collide fails rather than drop an entry
    monkeypatch.setattr(cca.index, "det_encrypt", lambda key, data: b"k" * 20)
    with pytest.raises(ValueError, match="share a lookup key"):
        build_index([(0, fig_dcfg)], master, mode=mode)


@pytest.mark.parametrize("mode", ["std", "ore"])
def test_one_aes_gcm_object_seals_every_entry_of_a_left_token(
        fig_dcfg, master, mode, monkeypatch):
    made, one_shot = [], []

    def counting_aesgcm(key):
        made.append(key)
        return AESGCM(key)

    def counting_rnd_encrypt(key, plaintext):
        one_shot.append(key)
        return rnd_encrypt(key, plaintext)

    monkeypatch.setattr(cca.crypto, "AESGCM", counting_aesgcm)
    monkeypatch.setattr(cca.index, "rnd_encrypt", counting_rnd_encrypt)
    index, _ = build_index([(0, fig_dcfg)], master, mode=mode)
    # fig_flow: 6 entries under 4 left tokens; ore seals 6 slots one-shot
    lefts = len(fig_dcfg.by_left())
    assert (len(index), lefts) == (6, 4)
    assert len(one_shot) == len(index.slots) == (6 if mode == "ore" else 0)
    assert len(made) == lefts + len(one_shot)
    assert all(len(key) == KEY_BYTES for key in made)


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

    assert sorted(first.table) == sorted(second.table)
    assert not (set(first.table.values()) & set(second.table.values()))


def test_empty_input_builds_empty_index(master):
    index, counts = build_index([], master, mode="ore")
    assert len(index) == 0
    assert counts == {}


@pytest.mark.parametrize("mode", ["std", "ore"])
def test_query_identities_answer_no_probe_and_open_no_value(
        corpus_per_file, master, mode):
    # the entry point and the sanitizer are named by identities, which key
    # no entry and seal no value, taken as a secret or as a value key
    index, counts = build_index(corpus_per_file, master, mode=mode)
    ks = KeyStore(master, mode, {f: f"{f}.php" for f in counts}, counts)
    counters = [c.to_bytes(4, "big") for c in range(1, len(index) + 1)]
    identities = {identity for task in ("xss", "sqli")
                  for fq in authorise(ks, task).files
                  for identity in (fq.input_id, fq.san_id)}
    assert len(identities) == 3 * len(counts)  # INPUT and two sanitizers
    for identity in identities:
        assert not any(index.lookup(det_encrypt(identity, c))
                       for c in counters)
        for key in (identity, derive_value_key(identity, index.salt)):
            for value in index.table.values():
                for c in (1, 2):
                    with pytest.raises(IntegrityError):
                        rnd_decrypt(key, counter_nonce(c) + value)


def test_same_token_in_two_files_gets_distinct_keys(master):
    dcfg = _dcfg_for("<?php $a = $_GET['x'];")
    index, _ = build_index([(0, dcfg), (1, dcfg)], master, mode="std")
    keys = list(index.table)
    assert len(keys) == 2
    assert len(set(keys)) == 2


# --- what the key store needs -----------------------------------------------------

def _names(counts: tuple[int, int]) -> list[str]:
    """Every token name a file with these name counts can hold."""
    return [*TOKEN_FAMILIES[:FIRST_NUMBERED],
            *(f"{fam}{n}" for fam, count
              in zip(TOKEN_FAMILIES[FIRST_NUMBERED:], counts)
              for n in range(count))]


def _opens(counts: dict, file_id: int, token: str) -> bool:
    """Whether a key store with these counts names the token of the file."""
    ks = KeyStore(None, "plain", dict.fromkeys(counts, ""), counts)
    (opened,) = open_token_blocks(token_block(file_id, token))
    return ks.token_name(file_id, opened) == token


def test_token_families_are_the_value_families():
    assert set(TOKEN_FAMILIES) == VALUE_FAMILIES
    assert len(TOKEN_FAMILIES) == len(VALUE_FAMILIES)


FORMATS_MD = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def test_family_codes_are_the_documented_table():
    rows = {}
    for line in FORMATS_MD.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        if cells[0] in ("family code", "name") and len(cells) == 9:
            rows[cells[0]] = cells[1:]
    assert rows["family code"] == [str(code) for code in range(8)]
    documented = tuple(name.removesuffix("<n>") for name in rows["name"])
    pinned = ("INPUT", "SQLi_SAN", "SQLi_SENS", "STRING", "XSS_SAN",
              "XSS_SENS", "VAR", "FUNC_CALL")
    assert documented == TOKEN_FAMILIES == pinned, (
        "every token block carries its family code, so changing a code "
        "needs a new index version")


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_name_counts_bound_each_numbered_family(fig_dcfg, master, mode):
    # fig_flow's pairs hold VAR0, VAR1, VAR2 and no FUNC_CALL<n>
    _, counts = build_index([(0, fig_dcfg), (4, DCFG([]))], master, mode=mode)
    assert counts == {0: (3, 0), 4: (0, 0)}
    for token in ("VAR0", "VAR1", "VAR2", "XSS_SENS", "INPUT", "STRING"):
        assert _opens(counts, 0, token), token
    assert not _opens(counts, 0, "VAR3")
    assert not _opens(counts, 0, "FUNC_CALL0")


def test_every_corpus_pair_token_is_a_candidate_name(corpus_per_file, master):
    _, counts = build_index(corpus_per_file, master, mode="plain")
    for file_id, dcfg in corpus_per_file:
        for pair in dcfg:
            assert _opens(counts, file_id, pair.left)
            assert _opens(counts, file_id, pair.right.token)


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


def test_entry_count_past_u16_names_file_and_token(master):
    pairs = [DCFGPair("VAR0", ExtendedITLToken("STRING", line, 0, 0, 0))
             for line in range(1, 65537)]
    with pytest.raises(ConfigError, match=r"^app/big\.php: token VAR0 has "
                                          r"65536 entries, more than"):
        build_index([(2, DCFG(pairs))], master, mode="std",
                    names={2: "app/big.php"})
    # 65,535 entries fit, and the value naming VAR0 carries the count
    sink = DCFGPair("XSS_SENS", ExtendedITLToken("VAR0", 1, 0, 0, 0))
    index, _ = build_index([(2, DCFG([sink, *pairs[1:]]))], master,
                           mode="plain")
    value = index.lookup(plain_key(token_block(2, "XSS_SENS"), 1))
    assert struct.unpack_from(">H", value, 16) == (65535,)


def _slot_refs(index, counts, master):
    """(file id, the line's (slot number, slot key), scope tag) of every
    entry, read with the keys."""
    for file_id, file_counts in counts.items():
        for token in _names(file_counts):
            (secret,) = derive_secrets(master, token_block(file_id, token))
            counter = 1
            while blob := index.lookup(det_encrypt(secret,
                                                   struct.pack(">I", counter))):
                payload = rnd_decrypt(derive_value_key(secret, index.salt),
                                      counter_nonce(counter) + blob)
                # S_right || count || line slot reference || scope tag
                _, _, *ref, tag = payload_struct("ore", index.widths).unpack(
                    payload)
                yield file_id, tuple(ref), tag
                counter += 1


def _ore_fields(index, counts, master):
    """(file id, line ciphertext, scope tag) of every entry, the line from
    the slot it names."""
    for file_id, (number, key), tag in _slot_refs(index, counts, master):
        yield file_id, rnd_decrypt(key, index.slots[number]), tag


def _field_values(index, counts, master):
    """(file id, line, line ciphertext, scope triple, scope tag) of every
    entry, read with the line key, at the index's width, and the scope
    master key."""
    line_key = derive_ore_key(master.ore_line)
    width = index.ore_width
    for file_id, ct, tag in _ore_fields(index, counts, master):
        (scope,) = open_scope_tags(master.scope, [file_id], [tag])
        yield (file_id, ore_name_value(line_key, ore_name(ct, width), width),
               ct, scope, tag)


def test_ore_field_names_decrypt_every_field(fig_dcfg, master):
    index, counts = build_index([(0, fig_dcfg)], master, mode="ore")
    entries = list(_field_values(index, counts, master))
    assert len(entries) == len(index)
    assert {line for _, line, _, _, _ in entries} == {2, 3, 4, 5, 6, 7}
    assert {scope for _, _, _, scope, _ in entries} == {(0, 0, 0)}


# --- ore mode: one ciphertext per distinct line per build -------------------------

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
    distinct = {pair.right.line for _, dcfg in corpus_per_file for pair in dcfg}
    assert len(index) == 315
    assert len(calls) == len(distinct) == 37


def test_equal_field_values_share_one_ciphertext_per_build(
        corpus_per_file, master):
    index, counts = build_index(corpus_per_file, master, mode="ore")
    by_value: dict[int, set[bytes]] = {}
    for _, line, ct, _, _ in _field_values(index, counts, master):
        by_value.setdefault(line, set()).add(ct)
    assert len(by_value) == 37
    assert all(len(cts) == 1 for cts in by_value.values())
    assert len(set().union(*by_value.values())) == 37


def test_each_slot_holds_one_distinct_ciphertext_under_its_own_key(
        corpus_per_file, master):
    index, counts = build_index(corpus_per_file, master, mode="ore")
    refs = {ref for _, ref, _ in _slot_refs(index, counts, master)}
    assert len(index.slots) == 37
    assert {number for number, _ in refs} == set(range(37))
    assert len({key for _, key in refs}) == len(refs) == 37
    # every corpus line is below 256: one block each
    assert index.ore_width == 8
    assert {len(slot) for slot in index.slots} == {
        12 + ore_ciphertext_bytes(8) + 16}
    # an ore entry seals S_right || count || slot || slot key || tag, the
    # count and the slot number one byte each, and stores no nonce
    assert index.widths == (1, 1)
    assert {len(v) for v in index.table.values()} == {50 + 16}


def test_corpus_slot_table_holds_each_distinct_line_once(
        corpus_per_file, master, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return ore_encrypt(*args, **kwargs)

    monkeypatch.setattr(cca.index, "ore_encrypt", counting)
    index, counts = build_index(corpus_per_file, master, mode="ore")
    keys = {number: key for _, (number, key), _
            in _slot_refs(index, counts, master)}
    line_key = derive_ore_key(master.ore_line)
    width = index.ore_width
    lines = [ore_name_value(line_key, ore_name(rnd_decrypt(keys[n], slot),
                                               width), width)
             for n, slot in enumerate(index.slots)]
    distinct = {pair.right.line for _, dcfg in corpus_per_file for pair in dcfg}
    assert sorted(lines) == sorted(distinct) and len(lines) == 37
    assert len(calls) == 37


def _line_slots(corpus_per_file, master) -> dict[int, int]:
    """line value -> its slot number, in one corpus build."""
    index, counts = build_index(corpus_per_file, master, mode="ore")
    line_key, width = derive_ore_key(master.ore_line), index.ore_width
    slots = {}
    for _, (number, key), _ in _slot_refs(index, counts, master):
        ct = rnd_decrypt(key, index.slots[number])
        slots[ore_name_value(line_key, ore_name(ct, width), width)] = number
    return slots


def test_slot_numbers_carry_no_value_order(corpus_per_file, master):
    first = _line_slots(corpus_per_file, master)
    assert len(first) == 37
    by_value = [first[line] for line in sorted(first)]
    assert by_value != sorted(by_value)
    # slot numbers are drawn afresh per build
    assert _line_slots(corpus_per_file, master) != first


def test_two_ore_builds_share_no_field_ciphertext(fig_dcfg, master):
    builds = []
    for _ in range(2):
        index, counts = build_index([(0, fig_dcfg)], master, mode="ore")
        builds.append({ct for _, ct, _ in _ore_fields(index, counts, master)})
    assert builds[0] and not builds[0] & builds[1]


# --- ore mode: scope tags ----------------------------------------------------------

def _scope_tags(per_file, master) -> dict[tuple, set[bytes]]:
    """(file id, scope triple) -> the tags its entries hold, in one build."""
    index, counts = build_index(per_file, master, mode="ore")
    tags: dict[tuple, set[bytes]] = {}
    for file_id, _, _, scope, tag in _field_values(index, counts, master):
        tags.setdefault((file_id, scope), set()).add(tag)
    return tags


def test_equal_scopes_in_one_file_share_one_tag(corpus_per_file, master):
    tags = _scope_tags(corpus_per_file, master)
    assert all(len(group) == 1 for group in tags.values())
    # and unequal scopes of one file have unequal tags
    assert len(set().union(*tags.values())) == len(tags)
    assert any(scope != (0, 0, 0) for _, scope in tags)


def test_equal_scopes_in_two_files_get_different_tags(corpus_per_file, master):
    tags = _scope_tags(corpus_per_file, master)
    files_of: dict[tuple, set[int]] = {}
    for file_id, scope in tags:
        files_of.setdefault(scope, set()).add(file_id)
    assert len(files_of[(0, 0, 0)]) > 30  # the corpus repeats scopes a lot
    for scope, file_ids in files_of.items():
        assert len({tag for f in file_ids for tag in tags[f, scope]}) == len(
            file_ids), scope


def test_two_builds_share_no_scope_tag(corpus_per_file):
    builds = [set().union(*_scope_tags(corpus_per_file,
                                       generate_master_keys()).values())
              for _ in range(2)]
    assert builds[0] and not builds[0] & builds[1]


def test_scope_tag_opens_only_under_its_own_files_key(fig_dcfg, master):
    # one scope key for the index: the file id in the block tells files apart
    index, counts = build_index([(0, fig_dcfg), (1, fig_dcfg)], master,
                                mode="ore")
    for file_id, _, tag in _slot_refs(index, counts, master):
        assert open_scope_tags(master.scope, [file_id], [tag]) == [(0, 0, 0)]
        with pytest.raises(KeyMismatchError, match="scope tag"):
            open_scope_tags(master.scope, [1 - file_id], [tag])


def test_scope_field_out_of_signed_32_bits_names_file_and_field(master):
    dcfg = DCFG([DCFGPair("XSS_SENS", ExtendedITLToken("INPUT", 1, 0, 2**31,
                                                       0))])
    with pytest.raises(ConfigError, match=r"^app/index\.php: order value "
                                          r"2147483648 .*signed 32-bit"):
        build_index([(3, dcfg)], master, mode="ore", names={3: "app/index.php"})


def _sink_at_line(line: int) -> DCFG:
    return DCFG([DCFGPair("XSS_SENS", ExtendedITLToken("INPUT", line, 0, 0, 0))])


def _lines_up_to(top: int) -> DCFG:
    """Sink entries at lines 0 and top."""
    return DCFG([DCFGPair("XSS_SENS", ExtendedITLToken("INPUT", line, 0, 0, 0))
                 for line in (0, top)])


def test_out_of_range_field_value_names_file_field_and_width(master):
    # 32 bits caps the width a build's largest line sets, whatever its
    # other lines need
    for dcfg in (_sink_at_line(2**32), _lines_up_to(2**32)):
        with pytest.raises(ConfigError, match=r"^app/index\.php: line value "
                                              r"4294967296 .* 32-bit"):
            build_index([(3, dcfg)], master, mode="ore",
                        names={3: "app/index.php"})
    build_index([(3, _sink_at_line(2**32 - 1))], master, mode="ore")


# --- ore mode: the line width of a build ----------------------------------------

@pytest.mark.parametrize("top,blocks", [
    (0, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 3), (2**24 - 1, 3),
    (2**24, 4), (2**32 - 1, 4)])
def test_ore_lines_take_the_fewest_blocks_the_largest_line_needs(
        master, top, blocks):
    index, counts = build_index([(2, _lines_up_to(top))], master, mode="ore")
    assert index.ore_width == 8 * blocks
    assert {len(slot) for slot in index.slots} == {44 + 81 * blocks}
    blob = serialize_index(index)
    # the width byte, in blocks, follows the entries
    assert blob[32 + len(index) * (16 + 66)] == blocks
    back = deserialize_index(blob)
    assert (back.ore_width, back.slots) == (index.ore_width, index.slots)
    lines = {line for _, line, _, _, _ in _field_values(index, counts, master)}
    assert lines == {0, top}


def test_an_ore_build_without_lines_takes_one_block(master):
    index, _ = build_index([], master, mode="ore")
    assert (index.ore_width, index.slots) == (8, [])
    assert deserialize_index(serialize_index(index)).ore_width == 8


@pytest.mark.parametrize("blocks", [0, 5, 255])
def test_ore_width_byte_outside_1_to_4_is_rejected(fig_dcfg, master, blocks):
    index, _ = build_index([(0, fig_dcfg)], master, mode="ore")
    blob = bytearray(serialize_index(index))
    at = 32 + len(index) * (16 + 66)
    assert blob[at] == 1
    blob[at] = blocks
    with pytest.raises(FormatError, match=f"ORE lines of {blocks} blocks, "
                                          "not 1 to 4"):
        deserialize_index(bytes(blob))
    # a width the slots do not have reads them at another length
    blob[at] = 2
    with pytest.raises(FormatError):
        deserialize_index(bytes(blob))


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_a_field_out_of_signed_32_bits_names_the_file_that_holds_it(
        master, mode):
    # the widths come from the whole build; the error names the file
    ok = DCFG([DCFGPair("XSS_SENS", ExtendedITLToken("INPUT", 1, 0, 0, 0))])
    bad = DCFG([DCFGPair("XSS_SENS", ExtendedITLToken("INPUT", 1, -2**31 - 1,
                                                      0, 0))])
    with pytest.raises(ConfigError, match=r"^b\.php: depth value -2147483649 "
                                          r"is out of range for signed 32-bit"):
        build_index([(0, ok), (1, bad), (2, ok)], master, mode=mode,
                    names={0: "a.php", 1: "b.php", 2: "c.php"})


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
    assert back.table == index.table


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


def test_repeated_lookup_key_rejected(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="plain")
    blob = serialize_index(index)
    sens = token_block(0, "XSS_SENS")
    assert plain_key(sens, 2) in blob
    with pytest.raises(FormatError, match="repeated lookup key"):
        deserialize_index(blob.replace(plain_key(sens, 2),
                                       plain_key(sens, 1)))


def test_bad_magic_rejected(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="ore")
    blob = serialize_index(index)
    with pytest.raises(FormatError):
        deserialize_index(b"XXXXXXXX" + blob[8:])


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_old_index_version_rejected_by_name(fig_dcfg, master, version):
    # version 1 sealed values with CBC + HMAC, version 2 masked ore fields
    # with SHA-256, version 3 held the DET hash and the ORE width, version
    # 4 held every field ciphertext in each entry, with biased masks,
    # version 5 held 32-byte token keys, version 6 made depth, order and
    # type order-revealing fields as well, version 7 derived token keys
    # with HMAC-SHA256 and tagged scopes under per-file keys, version 8
    # wrote a length before every record and held 20-byte lookup keys,
    # version 9 sealed D and R keys in every value, version 10 stored a
    # nonce in every value and no salt or entry counts, version 11
    # encrypted every line at 32 bits and stored no width, and version 12
    # stored every count, field and slot number at its widest
    index, _ = build_index([(0, fig_dcfg)], master, mode="ore")
    blob = serialize_index(index)
    with pytest.raises(FormatError, match=f"version {version}"):
        deserialize_index(blob[:8] + bytes([version]) + blob[9:])


def test_stats_report_counts_and_sizes(fig_dcfg, master):
    index, _ = build_index([(0, fig_dcfg)], master, mode="std")
    stats = index_stats(index)
    assert stats["entries"] == 6
    assert stats["mode"] == "std"
    assert stats["key_bytes"] == [16]
    assert stats["value_bytes"] == [21 + 16]
    # the count and the four fields of lines 2-7 each fit one byte
    assert stats["int_bytes"] == dict.fromkeys(
        ["count", "line", "depth", "order", "type"], 1)
    # a header of 30 bytes and the 5 widths
    assert stats["container_bytes"] == 35 + 6 * (16 + 37)
    assert stats["slots"] == stats["slot_bytes"] == stats["ore_width"] == 0
    ore, _ = build_index([(0, fig_dcfg)], master, mode="ore")
    stats = index_stats(ore)
    # lines 2-7: one slot each, of one 8-bit block: a 97-byte ciphertext
    assert (stats["slots"], stats["ore_width"]) == (6, 8)
    assert stats["slot_bytes"] == 6 * (12 + 97 + 16) == 6 * 125
    assert stats["key_bytes"] == [16]
    assert stats["value_bytes"] == [50 + 16]
    assert stats["int_bytes"] == {"count": 1, "slot": 1}
    # a header with 2 widths, the entries, then the line width byte, the
    # slot count and the slots
    assert stats["container_bytes"] == 32 + 6 * (16 + 66) + 1 + 4 + 6 * 125
    assert list(stats).index("ore_width") == list(stats).index("slots") + 1
    assert list(stats).index("int_bytes") == list(stats).index("ore_width") + 1
    plain, _ = build_index([(0, fig_dcfg)], master, mode="plain")
    stats = index_stats(plain)
    assert (stats["key_bytes"], stats["value_bytes"]) == ([16], [16 + 5])
    assert stats["ore_width"] == 0


# --- fixed-width records ---------------------------------------------------------

# at one byte per integer; a header holds 5 widths in plain and std, 2 in ore
VALUE_WIDTHS = {"plain": 21, "std": 37, "ore": 66}
HEADER_BYTES = {"plain": 35, "std": 35, "ore": 32}


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_container_size_is_fixed_width_records(fig_dcfg, master, mode):
    # no length prefixes: a 30-byte header with the build salt, and 5 or
    # 2 integer widths, N records of 16 + w bytes, and in ore a width
    # byte (n = 1: lines 2-7), a slot count and S slots of 44 + 81 n =
    # 125 bytes
    index, _ = build_index([(0, fig_dcfg)], master, mode=mode)
    n, s = len(index), len(index.slots)
    assert (n, s) == (6, 6 if mode == "ore" else 0)
    expected = HEADER_BYTES[mode] + n * (16 + VALUE_WIDTHS[mode])
    if mode == "ore":
        expected += 1 + 4 + s * 125
    assert len(serialize_index(index)) == expected
    assert index_stats(index)["container_bytes"] == expected


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_stats_container_size_is_the_serialized_size_on_the_corpus(
        corpus_per_file, master, mode, tmp_path):
    # the size index_stats gives is that of the saved container
    index, _ = build_index(corpus_per_file, master, mode=mode)
    save_index(tmp_path / "index", index)
    assert index_stats(index)["container_bytes"] == (
        tmp_path / "index").stat().st_size


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_every_prefix_and_extension_of_a_container_is_rejected(
        fig_dcfg, master, mode):
    blob = serialize_index(build_index([(0, fig_dcfg)], master, mode=mode)[0])
    assert deserialize_index(blob).table
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            deserialize_index(blob[:cut])
    for extra in range(1, 9):
        with pytest.raises(FormatError, match="trailing bytes"):
            deserialize_index(blob + bytes(extra))


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_a_count_past_the_end_is_truncation_before_any_record(
        fig_dcfg, master, mode):
    index, _ = build_index([(0, fig_dcfg)], master, mode=mode)
    blob = serialize_index(index)
    width, at = 16 + VALUE_WIDTHS[mode], HEADER_BYTES[mode]
    for count in ((len(blob) - at) // width + 1, 2**32 - 1):
        bad = blob[:at - 4] + struct.pack(">I", count) + blob[at:]
        # the records start after the salt, the widths and the count, and
        # none of them is read
        with pytest.raises(FormatError, match=f"truncated at byte {at}$"):
            deserialize_index(bad)
    if mode == "ore":  # past the width byte
        table_at = at + len(index) * width + 1
        bad = blob[:table_at] + struct.pack(">I", 7) + blob[table_at + 4:]
        with pytest.raises(FormatError, match=f"truncated at byte "
                                              f"{table_at + 4}$"):
            deserialize_index(bad)


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_serialize_rejects_a_key_value_or_slot_of_the_wrong_width(
        fig_dcfg, master, mode):
    index, _ = build_index([(0, fig_dcfg)], master, mode=mode)
    key, value = next(iter(index.table.items()))
    for table in ({key + b"\0": value}, {key[:-1]: value},
                  {key: value + b"\0"}, {key: value[:-1]}):
        with pytest.raises(ValueError, match="16-byte key and a "
                                             f"{VALUE_WIDTHS[mode]}-byte value"):
            serialize_index(replace(index, table=table))
    for salt in (index.salt[:-1], index.salt + b"\0"):
        with pytest.raises(ValueError, match="salt is 16 bytes"):
            serialize_index(replace(index, salt=salt))
    if mode == "ore":
        with pytest.raises(ValueError, match="slot is 125 bytes at 8-bit"):
            serialize_index(replace(index, slots=[index.slots[0][:-1]]))
        for width in (0, 12, 40):
            with pytest.raises(ValueError, match=f"not {width}$"):
                serialize_index(replace(index, ore_width=width))


def test_entries_sort_on_fresh_tags_drawn_in_one_call(fig_dcfg, master,
                                                      monkeypatch):
    # std entries are stored in the order of one 8-byte tag each, all
    # drawn in one call: descending tags store the build order reversed
    drawn = []

    def tags(n):
        drawn.append(n)
        return struct.pack(">%dQ" % (n // 8), *range(n // 8, 0, -1))

    monkeypatch.setattr(cca.index.secrets, "token_bytes", tags)
    index, _ = build_index([(0, fig_dcfg)], master, mode="std")
    assert drawn == [8 * len(index)]
    built = [det_encrypt(derive_secrets(master, token_block(0, left))[0],
                 struct.pack(">I", counter))
             for left, pairs in fig_dcfg.by_left().items()
             for counter in range(1, len(pairs) + 1)]
    assert list(index.table) == built[::-1]


# --- integer widths ----------------------------------------------------------------

def _round_trip(per_file, master, mode, tmp_path):
    """Build, save and load an index, then analyse an xss query over it
    and decrypt the report, which must equal plaintext detection over the
    same pairs, where nothing is encoded.  Returns the loaded index and
    the decrypted report."""
    index, counts = build_index(per_file, master, mode=mode)
    save_index(tmp_path / "app.ccaidx", index)
    back = load_index(tmp_path / "app.ccaidx")
    assert (back.widths, back.table) == (index.widths, index.table)
    ks = KeyStore(master, mode, {f: f"{f}.php" for f in counts}, counts)
    resolved = decrypt_report(analyse(back, authorise(ks, "xss")), ks)
    reference = plaintext_analyse(per_file, "xss", file_names=ks.files)
    assert resolved["files"] == reference["files"]
    assert all(entry["findings"] for entry in resolved["files"])
    return back, resolved


@pytest.mark.parametrize("value,size", [
    (127, 1), (128, 2), (-128, 1), (-129, 2), (32_767, 2), (32_768, 4),
    (-32_768, 2), (-32_769, 4), (2**31 - 1, 4), (-2**31, 4)])
@pytest.mark.parametrize("mode", ["plain", "std"])
def test_each_field_takes_the_fewest_signed_bytes_that_hold_it(
        master, tmp_path, mode, value, size):
    for i, name in enumerate(FIELDS):
        fields = [0] * 4
        fields[i] = value
        dcfg = DCFG([DCFGPair("XSS_SENS", ExtendedITLToken("INPUT", *fields))])
        index, report = _round_trip([(2, dcfg)], master, mode, tmp_path)
        # the count, then line, depth, order and type: only this one
        # field is wider than a byte
        assert index.widths == (1, *(size if j == i else 1 for j in range(4)))
        assert len(next(iter(index.table.values()))) == (
            16 + 1 + 3 + size + (16 if mode == "std" else 0))
        (finding,) = report["files"][0]["findings"]
        assert finding["source"][name] == value


@pytest.mark.parametrize("entries,size", [(255, 1), (256, 2)])
@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_the_count_takes_one_byte_up_to_255_entries(
        master, tmp_path, mode, entries, size):
    # the sink's one entry names VAR0, which the reader then probes
    # exactly its count of times
    pairs = [DCFGPair("XSS_SENS", ExtendedITLToken("VAR0", 1, 0, 0, 0)),
             *(DCFGPair("VAR0", ExtendedITLToken("INPUT", 2, 0, k, 0))
               for k in range(entries))]
    index, report = _round_trip([(2, DCFG(pairs))], master, mode, tmp_path)
    assert index.widths[0] == size
    if mode == "plain":  # the sink's value names VAR0 and its count
        value = index.lookup(plain_key(token_block(2, "XSS_SENS"), 1))
        assert payload_struct(mode, index.widths).unpack(value)[1] == entries


@pytest.mark.parametrize("slots,size", [(256, 1), (257, 2)])
def test_the_slot_number_takes_one_byte_up_to_256_slots(
        master, tmp_path, slots, size):
    # two files of distinct lines, so no token has more than 255 entries
    half = slots // 2
    per_file = [(f, DCFG([DCFGPair("XSS_SENS", ExtendedITLToken(
        "INPUT", line, 0, 0, 0)) for line in lines]))
        for f, lines in enumerate([range(half), range(half, slots)])]
    index, _ = _round_trip(per_file, master, "ore", tmp_path)
    assert len(index.slots) == slots
    assert index.widths == (1, size)
    assert {len(v) for v in index.table.values()} == {16 + 1 + size + 48}
    assert index_stats(index)["int_bytes"] == {"count": 1, "slot": size}


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
@pytest.mark.parametrize("size", [0, 3, 5])
def test_a_width_byte_outside_its_set_is_rejected(fig_dcfg, master, mode,
                                                  size):
    blob = serialize_index(build_index([(0, fig_dcfg)], master, mode=mode)[0])
    # the widths follow the salt, count first
    for at, name in enumerate(cca.index.NARROWED[mode], start=26):
        assert blob[at] == 1
        bad = blob[:at] + bytes([size]) + blob[at + 1:]
        with pytest.raises(FormatError, match=f"^index: {name} width {size}, "
                                              "not 1"):
            deserialize_index(bad)
    # 4 bytes is in the set of every integer but the count
    bad = blob[:26] + bytes([4]) + blob[27:]
    with pytest.raises(FormatError, match="count width 4, not 1 or 2 bytes"):
        deserialize_index(bad)


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_serialize_rejects_widths_outside_their_sets(fig_dcfg, master, mode):
    index, _ = build_index([(0, fig_dcfg)], master, mode=mode)
    with pytest.raises(ValueError, match="count width 4, not 1 or 2 bytes"):
        serialize_index(replace(index, widths=(4, *index.widths[1:])))
    with pytest.raises(ValueError, match="integer widths, not 1$"):
        serialize_index(replace(index, widths=(1,)))
    # records of other widths than the widths make
    with pytest.raises(ValueError, match="-byte value in"):
        serialize_index(replace(index, widths=(2, *index.widths[1:])))
