"""Query issuing, the four detection steps, reports and their decryption."""

import dataclasses
import inspect
import json
import logging
import os
import re
import struct
import sys
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import cca.analysis
import cca.crypto
import cca.errors
import cca.index

from cca.analysis import (
    FileQuery,
    PathNode,
    Query,
    Reader,
    aggregate_paths,
    analyse,
    authorise,
    check_vulnerability,
    decrypt_report,
    deserialize_query,
    dump_report,
    find_paths,
    load_query,
    load_report,
    make_reader,
    ore_ranks,
    read_policy,
    remove_invalid_paths,
    resolve_control_flow,
    save_query,
    save_report,
    serialize_query,
)
from cca.crypto import (
    FIRST_NUMBERED,
    KEY_BYTES,
    MODES,
    TOKEN_FAMILIES,
    KeyStore,
    MasterKeys,
    counter_nonce,
    derive_identity,
    derive_ore_key,
    derive_secrets,
    derive_value_key,
    det_encrypt,
    generate_master_keys,
    ore_encrypt,
    ore_name,
    open_token_keys,
    rnd_decrypt,
    scope_sealer,
    token_block,
)
from cca.errors import (
    AuthorizationError,
    FormatError,
    KeyMismatchError,
    UsageError,
)
from cca.fileio import blob
from cca.index import plain_key
from cca.itl import TASKS
from cca.oracle import enumerate_findings, plaintext_analyse
from cca.pipeline import encrypt_application

from conftest import (
    HOSTILE_ENTRIES,
    HOSTILE_SLOTS,
    NODE_TABLE_DAMAGE,
    chain_app,
    flatten_findings,
    row_refs,
    set_ref,
    write_app,
)
from corpus import CORPUS

# Entry point read on line 1, constant on 2, copy on 3, self-update on 4,
# then one echo of the pristine variable and one of the reworked copy.
FLOW_APP = {
    "index.php": (
        "<?php $a = $_GET['user'];\n"
        '$c = "0";\n'
        "$b = $a;\n"
        "$b = $b + 1;\n"
        "echo $a;\n"
        "echo $b;\n"
    ),
}

PARALLEL_APP = {
    "index.php": (
        "<?php $a = $_GET['x'];\n"
        "$b = $_GET['y'];\n"
        "echo $a . $b;\n"
    ),
}


def plain(name: str) -> bytes:
    """The identity block of a token of file 0, which names it in plain
    mode."""
    return token_block(0, name)


def node_tuple(node: PathNode) -> tuple:
    """A node's fields in report order; an ore scope tag stays one value."""
    scope = (node.scope,) if isinstance(node.scope, bytes) else node.scope
    return (node.token, node.line, *scope)


# --- authorise -----------------------------------------------------------------


def test_authorise_rejects_unknown_task(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="plain")
    with pytest.raises(UsageError):
        authorise(res.keys, "rce")


def test_authorise_is_case_insensitive(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="plain")
    assert authorise(res.keys, "XSS").task == "xss"


def test_authorise_copies_scheme_parameters(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    query = authorise(res.keys, "sqli")
    assert query.task == "sqli"
    assert query.mode == "std"


def test_authorise_covers_every_file_in_id_order(tmp_path):
    res = encrypt_application(write_app(tmp_path, CORPUS["multifile"]),
                              mode="std")
    query = authorise(res.keys, "xss")
    assert [fq.file_id for fq in query.files] == sorted(res.keys.files)
    assert len(query.files) == 3


def test_authorise_plain_refs_are_readable(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="plain")
    (fq,) = authorise(res.keys, "xss").files
    assert fq.sens == plain("XSS_SENS")
    assert fq.input_id == plain("INPUT")
    assert fq.san_id == plain("XSS_SAN")


def test_authorise_token_keys_match_direct_derivation(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    (fq,) = authorise(res.keys, "xss").files
    # the sink by its secret, the entry point and sanitizer by identities
    sens, input_s, san_s = derive_secrets(res.keys.master, b"".join(
        map(plain, ("XSS_SENS", "INPUT", "XSS_SAN"))))
    assert fq.sens == sens
    assert fq.input_id == derive_identity(input_s)
    assert fq.san_id == derive_identity(san_s)


def test_build_and_authorise_pack_token_pairs_without_parsing(tmp_path):
    # encrypt and authorise pack each (file id, name) pair into its block,
    # which names the token in plain mode and derives its secret in the
    # others, one token at a time as in a batch
    root = write_app(tmp_path, CORPUS["multifile"])
    runs = {}
    for mode in ("plain", "std", "ore"):
        res = encrypt_application(root, mode=mode)
        runs[mode] = res, [authorise(res.keys, task) for task in TASKS]

    for mode, (res, queries) in runs.items():
        def ref(file_id, name):
            block = token_block(file_id, name)
            if mode == "plain":
                return block
            return derive_secrets(res.keys.master, block)[0]

        for fa in res.files:
            file_id = fa.source.file_id
            for left, pairs in fa.dcfg.by_left().items():
                for counter, pair in enumerate(pairs, start=1):
                    right = ref(file_id, pair.right.token)
                    if mode == "plain":
                        key = plain_key(ref(file_id, left), counter)
                        assert res.index.lookup(key)[:16] == right
                    else:
                        s_left = ref(file_id, left)
                        value = res.index.lookup(det_encrypt(
                            s_left, counter.to_bytes(4, "big")))
                        assert rnd_decrypt(
                            derive_value_key(s_left, res.index.salt),
                            counter_nonce(counter) + value)[:16] == right
        for query in queries:
            for fq in query.files:
                names = (TASKS[query.task][0], "INPUT", TASKS[query.task][1])
                want = [ref(fq.file_id, name) for name in names]
                if mode != "plain":
                    want[1:] = [derive_identity(s) for s in want[1:]]
                assert [fq.sens, fq.input_id, fq.san_id] == want


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_batched_query_equals_per_file_derivation_byte_for_byte(mode):
    # a fixed key store: the query is a function of it alone
    master = MasterKeys(*(bytes([k]) * KEY_BYTES for k in range(3)))
    ks = KeyStore(master, mode, {0: "a.php", 3: "b.php", 7: "c.php"},
                  {0: (2, 0), 3: (0, 1), 7: (0, 0)})
    def secret(file_id, token):  # one token at a time
        return derive_secrets(master, token_block(file_id, token))[0]

    def identity(file_id, token):
        return derive_identity(secret(file_id, token))

    if mode == "plain":  # every field is the token's block
        secret = identity = token_block
    for task, (sens, san) in TASKS.items():
        expected = Query(task, mode, [FileQuery(
            file_id, secret(file_id, sens), identity(file_id, "INPUT"),
            identity(file_id, san)) for file_id in (0, 3, 7)])
        got = serialize_query(authorise(ks, task))
        assert got == serialize_query(expected)
        # header, file count, then per file an id and three 16-byte
        # fields, with no length prefixes
        assert len(got) == 8 + 3 + 4 + 3 * (4 + 3 * KEY_BYTES)


# --- policy files --------------------------------------------------------------


def write_policy(tmp_path, text: str):
    path = tmp_path / "policy.txt"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def plain_keys(tmp_path_factory):
    root = write_app(tmp_path_factory.mktemp("policy_app"), FLOW_APP)
    return encrypt_application(root, mode="plain").keys


def test_policy_allow_grants_the_task(tmp_path, plain_keys):
    policy = write_policy(tmp_path, "allow xss\n")
    assert authorise(plain_keys, "xss", policy).task == "xss"


def test_policy_deny_blocks_the_task(tmp_path, plain_keys):
    policy = write_policy(tmp_path, "deny xss\n")
    with pytest.raises(AuthorizationError):
        authorise(plain_keys, "xss", policy)


@pytest.mark.parametrize("text", ["allow xss\ndeny xss\n",
                                  "deny xss\nallow xss\n"])
def test_policy_deny_wins_in_either_order(tmp_path, plain_keys, text):
    policy = write_policy(tmp_path, text)
    with pytest.raises(AuthorizationError):
        authorise(plain_keys, "xss", policy)


def test_policy_defaults_to_deny_for_unlisted_tasks(tmp_path, plain_keys):
    policy = write_policy(tmp_path, "allow sqli\n")
    with pytest.raises(AuthorizationError):
        authorise(plain_keys, "xss", policy)
    assert authorise(plain_keys, "sqli", policy).task == "sqli"


def test_policy_comments_and_blanks_ignored(tmp_path, plain_keys):
    policy = write_policy(tmp_path,
                          "# site policy\n\nallow xss  # reviewed\n")
    assert authorise(plain_keys, "xss", policy).task == "xss"


def test_policy_bad_verb_rejected_with_location(tmp_path):
    policy = write_policy(tmp_path, "allow xss\npermit sqli\n")
    with pytest.raises(UsageError, match=r":2:.*bad policy line"):
        read_policy(policy)


def test_policy_unknown_task_rejected(tmp_path):
    policy = write_policy(tmp_path, "allow rce\n")
    with pytest.raises(UsageError, match="unknown task"):
        read_policy(policy)


def test_policy_unknown_task_lists_the_tasks_at_its_line(tmp_path):
    # the message of task_name, which --task gives too, after the place
    policy = write_policy(tmp_path, "deny xss\nallow RCE\n")
    with pytest.raises(UsageError) as exc:
        read_policy(policy)
    assert str(exc.value) == (f"{policy}:2: unknown task 'RCE'; expected "
                              "one of ('xss', 'sqli')")


def test_policy_not_utf8_rejected_naming_the_file(tmp_path):
    policy = tmp_path / "policy.txt"
    policy.write_bytes(b"\xffallow xss\n")
    with pytest.raises(UsageError, match="not UTF-8") as exc:
        read_policy(policy)
    assert str(exc.value).startswith(f"{policy}: ")


def test_no_policy_file_means_owner_access(plain_keys):
    for task in ("xss", "sqli"):
        assert authorise(plain_keys, task).task == task


# --- query containers ----------------------------------------------------------


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_query_roundtrips_through_file(tmp_path, mode):
    res = encrypt_application(write_app(tmp_path, CORPUS["multifile"]),
                              mode=mode)
    query = authorise(res.keys, "sqli")
    path = tmp_path / "task.qry"
    save_query(path, query)
    assert load_query(path) == query


def test_query_container_rejects_bad_magic(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    blob = serialize_query(authorise(res.keys, "xss"))
    with pytest.raises(FormatError, match="magic"):
        deserialize_query(b"XXXXXXXX" + blob[8:])


def test_query_container_rejects_truncation(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    blob = serialize_query(authorise(res.keys, "xss"))
    for cut in (4, 12, len(blob) // 2, len(blob) - 1):
        with pytest.raises(FormatError):
            deserialize_query(blob[:cut])


def test_query_container_rejects_trailing_bytes(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    blob = serialize_query(authorise(res.keys, "xss"))
    with pytest.raises(FormatError, match="trailing"):
        deserialize_query(blob + b"\x00")


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_every_prefix_and_extension_of_a_query_is_rejected(tmp_path, mode):
    # fields are fixed-width, so only the whole container parses
    res = encrypt_application(write_app(tmp_path, TWO_FILE_APP), mode=mode)
    blob = serialize_query(authorise(res.keys, "xss"))
    assert len(blob) == 8 + 3 + 4 + 2 * 52
    assert deserialize_query(blob).files
    for cut in range(len(blob)):
        with pytest.raises(FormatError, match="truncated"):
            deserialize_query(blob[:cut])
    for extra in (b"\x00", bytes(KEY_BYTES), bytes(4 + 3 * KEY_BYTES)):
        with pytest.raises(FormatError, match="trailing"):
            deserialize_query(blob + extra)


@pytest.mark.parametrize("length", [7, 32])
@pytest.mark.parametrize("k, which", enumerate(
    ["sink S", "entry-point identity", "sanitizer identity"]))
def test_query_container_rejects_a_key_of_another_length(tmp_path, k, which,
                                                         length):
    # 32 bytes is the token key length of version 2 queries.  Fields are
    # fixed-width, so a query of another length is not written, and a
    # container holding one is short or long
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    query = authorise(res.keys, "xss")
    fq = query.files[0]
    keys = [fq.sens, fq.input_id, fq.san_id]
    blob = serialize_query(query)
    at = 8 + 3 + 4 + 4 + k * KEY_BYTES  # the header, file count and id
    keys[k] = (keys[k] * 2)[:length]
    fq.sens, fq.input_id, fq.san_id = keys
    with pytest.raises(ValueError, match="a query field is 16 bytes"):
        serialize_query(query)
    with pytest.raises(FormatError, match="truncated" if length < KEY_BYTES
                       else "trailing bytes"):
        deserialize_query(blob[:at] + keys[k] + blob[at + KEY_BYTES:])


# --- analyse input validation ----------------------------------------------------


def test_analyse_rejects_mode_mismatch(tmp_path):
    root = write_app(tmp_path, FLOW_APP)
    std = encrypt_application(root, mode="std")
    ore = encrypt_application(root, mode="ore")
    with pytest.raises(FormatError, match="mode"):
        analyse(std.index, authorise(ore.keys, "xss"))


# --- detection walkthrough -------------------------------------------------------


@pytest.fixture(scope="module")
def flow_steps(tmp_path_factory):
    """The intermediate results of each detection step on FLOW_APP."""
    root = write_app(tmp_path_factory.mktemp("flow"), FLOW_APP)
    res = encrypt_application(root, mode="plain")
    (fq,) = authorise(res.keys, "xss").files
    reader = make_reader(res.index)
    raw = find_paths(reader, fq)
    valid = remove_invalid_paths(raw)
    groups = aggregate_paths(valid)
    resolved = resolve_control_flow(groups)
    findings = check_vulnerability(resolved, fq, reader.identity)
    return raw, valid, groups, resolved, findings


def test_traversal_builds_the_two_surviving_paths(flow_steps):
    # the line 6 flow through the line 3 copy loses to the line 4 rewrite
    # at VAR2, so it is never built
    raw = flow_steps[0]
    assert [[node_tuple(n) for n in path] for path in raw] == [
        [(plain("XSS_SENS"), 5, 0, 0, 0), (plain("VAR0"), 5, 0, 0, 0),
         (plain("INPUT"), 1, 0, 0, 0)],
        [(plain("XSS_SENS"), 6, 0, 0, 0), (plain("VAR2"), 6, 0, 0, 0),
         (plain("VAR2"), 4, 0, 0, 0)],
    ]


def test_straight_line_paths_all_pass_validity(flow_steps):
    raw, valid = flow_steps[0], flow_steps[1]
    assert valid == raw


def test_aggregation_groups_by_sink_statement(flow_steps):
    groups = flow_steps[2]
    assert [len(g) for g in groups] == [1, 1]
    assert [g[0][0].line for g in groups] == [5, 6]


def test_resolution_keeps_the_write_nearest_the_sink(flow_steps):
    resolved = flow_steps[3]
    assert len(resolved) == 2
    # of the two flows into the line 6 sink, the line 4 rewrite shadows
    # the line 3 copy because it runs later
    survivor = resolved[1]
    assert node_tuple(survivor[-1]) == (plain("VAR2"), 4, 0, 0, 0)


def test_final_check_reports_one_entry_point_flow(flow_steps):
    findings = flow_steps[4]
    assert len(findings) == 1
    (path,) = findings
    assert node_tuple(path[0]) == (plain("XSS_SENS"), 5, 0, 0, 0)
    assert node_tuple(path[-1]) == (plain("INPUT"), 1, 0, 0, 0)


def test_encrypted_run_decrypts_to_the_same_finding(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="ore")
    report = analyse(res.index, authorise(res.keys, "xss"))
    resolved = decrypt_report(report, res.keys)
    (entry,) = resolved["files"]
    assert entry["file"] == "index.php"
    (finding,) = entry["findings"]
    assert finding["sink"] == {"token": "XSS_SENS", "line": 5, "depth": 0,
                               "order": 0, "type": 0}
    assert finding["source"] == {"token": "INPUT", "line": 1, "depth": 0,
                                 "order": 0, "type": 0}
    assert [n["token"] for n in finding["path"]] == ["XSS_SENS", "VAR0",
                                                     "INPUT"]


# --- step behaviors on constructed paths ----------------------------------------


def node(token, line, depth=0, order=0, cf_type=0) -> PathNode:
    return PathNode(token, line, (depth, order, cf_type))


def test_same_scope_later_line_invalidates_a_path():
    sink = node("S", 5)
    late = [sink, node("A", 7)]
    early = [sink, node("B", 2)]
    assert remove_invalid_paths([late, early]) == [early]


def test_other_scope_later_line_stays_ambiguous():
    sink = node("S", 5)
    branched = [sink, node("A", 7, depth=1, order=1, cf_type=1)]
    assert remove_invalid_paths([branched]) == [branched]


def test_identical_paths_collapse_to_one():
    pair = [node("S", 5), node("A", 2)]
    resolved = resolve_control_flow([[pair, [node("S", 5), node("A", 2)]]])
    assert len(resolved) == 1


def test_divergence_after_the_sink_line_does_not_shadow():
    # a rewrite is decisive only when it executes before the sink
    sink = node("S", 5)
    inside = [sink, node("V", 5), node("A", 2)]
    after = [sink, node("V", 5), node("B", 9)]
    survivors = resolve_control_flow([[inside, after]])
    assert survivors == [inside]


def test_a_later_rewrite_evicts_an_earlier_survivor():
    # the earlier write is listed first, so it survives until the later
    # one beats it and removes it
    sink = node("S", 5)
    early = [sink, node("V", 5), node("A", 2)]
    middle = [sink, node("V", 5), node("C", 3)]
    late = [sink, node("V", 5), node("B", 4)]
    assert resolve_control_flow([[early, late]]) == [late]
    assert resolve_control_flow([[early, middle, late]]) == [late]


def test_different_scope_sets_never_compete():
    sink = node("S", 9)
    flat = [sink, node("V", 9), node("A", 2)]
    branched = [sink, node("V", 9), node("B", 4, depth=1, order=1, cf_type=1)]
    survivors = resolve_control_flow([[flat, branched]])
    assert len(survivors) == 2


def test_final_check_requires_entry_point_and_no_sanitizer():
    fq = FileQuery(0, sens="S", input_id="I", san_id="N")
    good = [node("S", 5), node("V", 5), node("I", 1)]
    sanitized = [node("S", 5), node("N", 3), node("I", 1)]
    dead_end = [node("S", 5), node("V", 2)]
    assert check_vulnerability([good, sanitized, dead_end], fq,
                               Reader.identity) == [good]


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_final_check_derives_each_token_identity_once(tmp_path, mode,
                                                      monkeypatch):
    # nodes carry secrets and the query identities: the check derives
    # the identity of each distinct token it meets once; plain nodes and
    # queries carry identity blocks, which are the identities
    res = encrypt_application(write_app(tmp_path, CORPUS["branching"]),
                              mode=mode)
    query = authorise(res.keys, "xss")
    derived = []

    def counting(secret):
        derived.append(secret)
        return derive_identity(secret)

    monkeypatch.setattr(cca.analysis, "derive_identity", counting)
    report = analyse(res.index, query)
    assert len(report["files"][0]["findings"]) == 6
    if mode == "plain":
        assert derived == []
    else:
        assert derived and len(derived) == len(set(derived))


# --- behavior on the corpus programs ---------------------------------------------


def run_decrypted(tmp_path, name, app, task, mode="std"):
    res = encrypt_application(write_app(tmp_path / name, app), mode=mode)
    report = analyse(res.index, authorise(res.keys, task))
    return decrypt_report(report, res.keys)


def test_parallel_argument_flows_both_survive(tmp_path):
    resolved = run_decrypted(tmp_path, "par", PARALLEL_APP, "xss")
    assert flatten_findings(resolved) == {("index.php", 3, 1),
                                          ("index.php", 3, 2)}


def test_reassignment_shadows_and_revives_taint(tmp_path):
    resolved = run_decrypted(tmp_path, "re", CORPUS["reassign"], "xss")
    assert flatten_findings(resolved) == {("index.php", 7, 6)}


def test_sanitizer_in_one_branch_leaves_the_other_flow(tmp_path):
    resolved = run_decrypted(tmp_path, "br", CORPUS["branch_sanitize"], "xss")
    assert flatten_findings(resolved) == {("index.php", 6, 2)}


def test_both_tasks_see_their_own_flows(tmp_path):
    sqli = run_decrypted(tmp_path, "bt1", CORPUS["both_tasks"], "sqli")
    assert flatten_findings(sqli) == {("index.php", 5, 3)}
    xss = run_decrypted(tmp_path, "bt2", CORPUS["both_tasks"], "xss")
    assert flatten_findings(xss) == {("index.php", 6, 3), ("index.php", 7, 3)}


def test_self_cycle_terminates_without_findings(tmp_path):
    resolved = run_decrypted(tmp_path, "cy", CORPUS["self_cycle"], "xss")
    assert flatten_findings(resolved) == set()


# --- reports and decryption ------------------------------------------------------


def test_plain_report_resolves_without_key_material(tmp_path):
    resolved = run_decrypted(tmp_path, "pl", FLOW_APP, "xss", mode="plain")
    (entry,) = resolved["files"]
    assert entry["file"] == "index.php"
    assert entry["findings"][0]["sink"]["token"] == "XSS_SENS"


def test_report_tokens_are_opaque_before_decryption(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    report = analyse(res.index, authorise(res.keys, "xss"))
    assert list(report) == ["version", "task", "mode", "files"]
    assert report["version"] == 3
    (entry,) = report["files"]
    assert list(entry) == ["file", "tokens", "nodes", "findings"]
    (finding,) = entry["findings"]
    # sink and source are the first and last node, named by index; a row
    # names its token by its block in tokens, from 1, and the entry point,
    # which tokens leaves out, by 0
    sink, source = (entry["nodes"][i] for i in (finding[0], finding[-1]))
    assert (sink[0], source[0]) == (1, 0)
    token = entry["tokens"][:2 * KEY_BYTES]
    assert "XSS" not in token
    # the hex of the sink's 16-byte secret, not a name
    assert bytes.fromhex(token) == authorise(res.keys, "xss").files[0].sens
    assert len(token) == 2 * KEY_BYTES


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
@pytest.mark.parametrize("edit", [lambda t: t * 2, lambda t: t[:-2],
                                  lambda t: t.upper()[:-1] + "A",
                                  lambda t: t[:-1] + "g",
                                  lambda t: "0:XSS_SENS"],
                         ids=["64 digits", "30 digits", "upper case",
                              "not hex", "text identity"])
def test_report_token_that_is_no_token_name_is_a_format_error(
        tmp_path, mode, edit):
    # a report of a version 5 index names tokens by 64 hex digits, and
    # plain reports of query version 5 by FILEID:NAME text: the report is
    # malformed for these keys, not made under others.  The sink's block,
    # block 1, is edited in place, so 64 digits repeat it
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode=mode)
    report = analyse(res.index, authorise(res.keys, "xss"))
    entry = report["files"][0]
    assert entry["nodes"][entry["findings"][0][0]][0] == 1
    entry["tokens"] = edit(entry["tokens"][:32]) + entry["tokens"][32:]
    with pytest.raises(FormatError, match="32 lowercase hex digits"):
        decrypt_report(report, res.keys)


@pytest.mark.parametrize("mode", ["std", "ore"])
def test_decrypt_with_foreign_keystore_is_detected(tmp_path, mode):
    root = write_app(tmp_path, FLOW_APP)
    ours = encrypt_application(root, mode=mode)
    theirs = encrypt_application(root, mode=mode)
    report = analyse(ours.index, authorise(ours.keys, "xss"))
    assert decrypt_report(report, ours.keys)["files"][0]["findings"]
    with pytest.raises(KeyMismatchError):
        decrypt_report(report, theirs.keys)


TWO_FILE_APP = {"a.php": FLOW_APP["index.php"],
                "b.php": PARALLEL_APP["index.php"]}


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_findings_under_another_file_are_a_key_mismatch(tmp_path, mode):
    res = encrypt_application(write_app(tmp_path, TWO_FILE_APP), mode=mode)
    report = analyse(res.index, authorise(res.keys, "xss"))
    a, b = report["files"]
    assert a["findings"] and b["findings"]
    # a finding names nodes of its own file's table, and a row tokens and
    # scope tags of its file's, so move them all; a plain report has no
    # keys to blame
    for key in set(a) - {"file"}:
        a[key], b[key] = b[key], a[key]
    error = FormatError if mode == "plain" else KeyMismatchError
    with pytest.raises(error, match="is no name of file 0"):
        decrypt_report(report, res.keys)


@pytest.mark.parametrize("token", ["VAR0 of file 1", "VAR3 of file 0"])
def test_plain_token_of_no_token_of_its_file_is_a_format_error(tmp_path,
                                                               token):
    # a plain report names tokens by their identity blocks, which open
    # without keys: a block of another file, or of a number past its
    # family's count, is a malformed report, not one of other keys
    res = encrypt_application(write_app(tmp_path, TWO_FILE_APP),
                              mode="plain")
    assert res.keys.counts[0][0] == 3  # file 0 names VAR0 to VAR2
    report = analyse(res.index, authorise(res.keys, "xss"))
    entry = report["files"][0]
    name, _, _, file_id = token.split()
    block = token_block(int(file_id), name)
    set_ref(entry, entry["nodes"][0], 0, block.hex())
    with pytest.raises(FormatError) as caught:
        decrypt_report(report, res.keys)
    assert str(caught.value) == (f"report: token {block.hex()!r} is no name "
                                 "of file 0")
    assert not isinstance(caught.value, KeyMismatchError)


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_report_lists_only_files_with_findings(tmp_path, mode):
    # b.php has no echo: its file id is left out of the report, and the
    # decrypted report still lists it, with no findings
    app = {"a.php": "<?php $a = $_GET['user'];\n",
           "b.php": FLOW_APP["index.php"]}
    res = encrypt_application(write_app(tmp_path, app), mode=mode)
    report = analyse(res.index, authorise(res.keys, "xss"))
    assert [entry["file"] for entry in report["files"]] == [1]
    resolved = decrypt_report(report, res.keys)
    assert [(e["file"], len(e["findings"])) for e in resolved["files"]] == [
        ("a.php", 0), ("b.php", 1)]
    # nor does an sqli report, which finds nothing, list any file
    assert analyse(res.index, authorise(res.keys, "sqli"))["files"] == []


CORPUS_TREE = {f"{name}/{rel}": text for name, app in CORPUS.items()
               for rel, text in app.items()}


@pytest.mark.parametrize("mode, size", [("std", 8067), ("ore", 10156)])
def test_corpus_reports_of_version_3_keep_their_size(tmp_path, mode, size):
    # the 35 corpus apps, one directory each, so file ids are fixed: the
    # xss and sqli reports take exactly this many bytes (version 2: 9,563
    # in std, 13,179 in ore)
    res = encrypt_application(write_app(tmp_path, CORPUS_TREE), mode=mode)
    total = 0
    for task in TASKS:
        report = analyse(res.index, authorise(res.keys, task))
        text = dump_report(report)
        total += len(text.encode())
        # the entry point is token 0, never a block
        blocks = [bytes.fromhex(block) for entry in report["files"]
                  for block in re.findall("[0-9a-f]{32}", entry["tokens"])]
        names = {res.keys.token_name(token[0], token) for token
                 in open_token_keys(res.keys.master.det, blocks)}
        assert blocks and None not in names and "INPUT" not in names
        if mode == "ore":  # each line name once in the report
            assert report["lines"] and all(
                text.count(f'"{name}"') == 1 for name in report["lines"])
    assert total == size


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_report_file_ids_must_ascend(tmp_path, mode):
    res = encrypt_application(write_app(tmp_path, TWO_FILE_APP), mode=mode)
    report = analyse(res.index, authorise(res.keys, "xss"))
    report["files"].reverse()
    with pytest.raises(FormatError,
                       match="file 0 follows file 1; file ids must ascend"):
        decrypt_report(report, res.keys)


@pytest.mark.parametrize("version", [None, 1, 2, "3", 2.0, 3.0, True])
def test_report_of_another_version_is_a_format_error(tmp_path, version):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    report = analyse(res.index, authorise(res.keys, "xss"))
    if version is None:
        del report["version"]
    else:
        report["version"] = version
    with pytest.raises(FormatError, match=re.escape(
            f"report of version {version!r}: this cca reads report version "
            "3 only")):
        decrypt_report(report, res.keys)
    with pytest.raises(FormatError, match="report of version None"):
        decrypt_report([report], res.keys)  # not an object at all


def test_each_distinct_token_and_scope_tag_opens_once(tmp_path, monkeypatch):
    # the diamonds' findings share rows, and their rows share tokens, line
    # names and scope tags; the entry point (token 0) opens by nothing
    res = encrypt_application(write_app(tmp_path, chain_app(7, {3, 5})),
                              mode="ore")
    report = analyse(res.index, authorise(res.keys, "xss"))
    (entry,) = report["files"]
    calls = {"ore_name_value": 0}
    for name in ("open_token_keys", "open_scope_tags"):
        real = getattr(cca.analysis, name)

        def counting(key, *args, real=real, name=name):
            calls[name] = len(args[-1])
            return real(key, *args)

        monkeypatch.setattr(cca.analysis, name, counting)
    real_name_value = cca.analysis.ore_name_value

    def counting_names(*args):
        calls["ore_name_value"] += 1
        return real_name_value(*args)

    monkeypatch.setattr(cca.analysis, "ore_name_value", counting_names)
    resolved = decrypt_report(report, res.keys)
    rows = entry["nodes"]
    assert calls == {"open_token_keys": len({row[0] for row in rows} - {0}),
                     "ore_name_value": len({row[1] for row in rows}),
                     "open_scope_tags": len({row[2] for row in rows})}
    assert max(calls.values()) < len(rows)
    assert decrypted_paths(resolved) == decrypted_paths(
        run_decrypted(tmp_path, "std", chain_app(7, {3, 5}), "xss"))


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_file_id_outside_the_key_store_is_a_key_mismatch(tmp_path, mode):
    res = encrypt_application(write_app(tmp_path, TWO_FILE_APP), mode=mode)
    report = analyse(res.index, authorise(res.keys, "xss"))
    report["files"][1]["file"] = 99
    with pytest.raises(KeyMismatchError, match="file 99"):
        decrypt_report(report, res.keys)


def test_foreign_query_only_warns(tmp_path, caplog):
    root = write_app(tmp_path, FLOW_APP)
    ours = encrypt_application(root, mode="std")
    theirs = encrypt_application(root, mode="std")
    with caplog.at_level(logging.WARNING, logger="cca.analysis"):
        report = analyse(ours.index, authorise(theirs.keys, "xss"))
    assert report["warnings"]
    assert not any(entry["findings"] for entry in report["files"])
    assert any("probe" in rec.getMessage() for rec in caplog.records)


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
@pytest.mark.parametrize("silent", ["a.php", "b.php"])
def test_one_answering_file_keeps_the_probe_warning_away(tmp_path, mode,
                                                         silent):
    # the silent file has no echo, so its sink answers no probe
    app = {"a.php": FLOW_APP["index.php"], "b.php": FLOW_APP["index.php"],
           silent: "<?php $a = $_GET['user'];\n"}
    res = encrypt_application(write_app(tmp_path, app), mode=mode)
    report = analyse(res.index, authorise(res.keys, "xss"))
    assert "warnings" not in report
    assert sum(len(entry["findings"]) for entry in report["files"]) == 1


def test_task_without_tokens_warns_not_fails(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    report = analyse(res.index, authorise(res.keys, "sqli"))
    assert report["warnings"]
    resolved = decrypt_report(report, res.keys)
    assert resolved["warnings"] == report["warnings"]
    assert flatten_findings(resolved) == set()


def test_probe_warning_names_a_missing_sink_as_well_as_the_keys(tmp_path):
    # FLOW_APP has no SQL sink, and the query keys are its own
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    (warning,) = analyse(res.index, authorise(res.keys, "sqli"))["warnings"]
    assert "probe" in warning
    assert "the index has no sink of task sqli" in warning
    assert "or the query keys do not match it" in warning


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
@pytest.mark.parametrize("case", list(NODE_TABLE_DAMAGE))
def test_malformed_node_table_is_a_format_error(tmp_path, mode, case):
    edit, says = NODE_TABLE_DAMAGE[case]
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode=mode)
    report = analyse(res.index, authorise(res.keys, "xss"))
    assert decrypt_report(report, res.keys)["files"][0]["findings"]
    edit(report)
    with pytest.raises(FormatError, match=re.escape(says)):
        decrypt_report(report, res.keys)


# --- order revealing field values -------------------------------------------------


def test_ore_ranks_follow_plaintext_order():
    key = derive_ore_key(os.urandom(16))
    values = [9, 3, 200, 0, 41]
    ranks = ore_ranks([ore_encrypt(key, v) for v in values], 32)
    assert ranks == [2, 1, 4, 0, 3]


def test_ore_ranks_equal_values_share_a_rank():
    key = derive_ore_key(os.urandom(16))
    cts = [ore_encrypt(key, v, 16) for v in (7, 2, 7, 7)]
    assert len(set(cts)) == 4  # equal values, different ciphertext bytes
    assert ore_ranks(cts, 16) == [1, 0, 1, 1]


def test_ore_ranks_reject_malformed_ciphertext():
    key = derive_ore_key(os.urandom(16))
    good = ore_encrypt(key, 1)
    with pytest.raises(FormatError):
        ore_ranks([good, b"\x00" * 20], 32)
    with pytest.raises(FormatError):
        ore_ranks([good], 16)


def test_encrypted_fields_stay_opaque_in_reports(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="ore")
    report = analyse(res.index, authorise(res.keys, "xss"))
    (entry,) = report["files"]
    (finding,) = entry["findings"]
    # an ore row is the token's index, the index of the line's one-block
    # ORE name in the report's lines and that of its scope tag
    for node in entry["nodes"]:
        token, line, scope = row_refs(report, entry, node)
        assert len(node) == 3 and re.fullmatch("[0-9a-f]{18}", line)
        assert re.fullmatch("[0-9a-f]{32}", scope)
        assert token is None or re.fullmatch("[0-9a-f]{32}", token)
    resolved = decrypt_report(report, res.keys)
    assert resolved["files"][0]["findings"][0]["sink"]["line"] == 5


def test_ore_field_under_foreign_field_key_is_detected(tmp_path):
    root = write_app(tmp_path, FLOW_APP)
    ours = encrypt_application(root, mode="ore")
    theirs = encrypt_application(root, mode="ore")
    report = analyse(ours.index, authorise(ours.keys, "xss"))
    # our directory, their order-revealing keys
    mixed = dataclasses.replace(ours.keys, master=dataclasses.replace(
        ours.keys.master, ore_line=theirs.keys.master.ore_line))
    with pytest.raises(KeyMismatchError):
        decrypt_report(report, mixed)


def test_scope_tag_under_foreign_scope_key_is_detected(tmp_path):
    root = write_app(tmp_path, FLOW_APP)
    ours = encrypt_application(root, mode="ore")
    theirs = encrypt_application(root, mode="ore")
    report = analyse(ours.index, authorise(ours.keys, "xss"))
    mixed = dataclasses.replace(ours.keys, master=dataclasses.replace(
        ours.keys.master, scope=theirs.keys.master.scope))
    with pytest.raises(KeyMismatchError, match="scope tag"):
        decrypt_report(report, mixed)


def test_scope_tags_of_another_file_are_a_key_mismatch(tmp_path):
    # both files read their sink in scope (0, 0, 0), and each tag holds
    # its own file id
    res = encrypt_application(write_app(tmp_path, TWO_FILE_APP), mode="ore")
    report = analyse(res.index, authorise(res.keys, "xss"))
    a, b = report["files"]
    tag = row_refs(report, b, b["nodes"][0])[2]
    assert row_refs(report, a, a["nodes"][0])[2] != tag
    set_ref(a, a["nodes"][0], 2, tag)
    with pytest.raises(KeyMismatchError, match="scope tag"):
        decrypt_report(report, res.keys)


@settings(max_examples=30, deadline=None)
@given(mode=st.sampled_from(["plain", "std", "ore"]),
       file_id=st.integers(0, 2**32 - 1),
       counts=st.tuples(st.integers(1, 0xFFFF), st.integers(1, 0xFFFF)),
       data=st.data())
def test_every_d_key_and_scope_tag_opens_back_to_its_identity(
        mode, file_id, counts, data):
    names = data.draw(st.lists(st.one_of(
        st.sampled_from(TOKEN_FAMILIES[:FIRST_NUMBERED]),
        *(st.integers(0, count - 1).map(lambda n, fam=fam: f"{fam}{n}")
          for fam, count in zip(TOKEN_FAMILIES[FIRST_NUMBERED:], counts))),
        min_size=1, max_size=6))
    triples = data.draw(st.lists(st.tuples(
        *[st.integers(-2**31, 2**31 - 1)] * 3), min_size=len(names),
        max_size=len(names)))
    master = generate_master_keys()
    ks = KeyStore(master, mode, {file_id: "a.php"}, {file_id: counts})
    d_keys = [token_block(file_id, name) for name in names]
    if mode != "plain":
        d_keys = derive_secrets(master, b"".join(d_keys))
    tokens: dict[bytes, int] = {}
    tags: dict[bytes, int] = {}

    def ref(table: dict, value: bytes) -> int:
        return table.setdefault(value, len(table))

    entry = {"file": file_id}
    report = {"version": 3, "task": "xss", "mode": mode, "files": [entry]}
    if mode == "ore":
        line = ore_name(ore_encrypt(derive_ore_key(master.ore_line), 7))
        report["lines"] = [line.hex()]
        seal = scope_sealer(master.scope)
        rows = [[1 + ref(tokens, d), 0,
                 ref(tags, seal(struct.pack(">Iiii", file_id, *t)))]
                for d, t in zip(d_keys, triples)]
        entry["scopes"] = b"".join(tags).hex()
    else:
        rows = [[1 + ref(tokens, d), 7, *t] for d, t in zip(d_keys, triples)]
    entry |= {"tokens": b"".join(tokens).hex(), "nodes": rows,
              "findings": [list(range(len(rows)))]}
    (finding,) = decrypt_report(report, ks)["files"][0]["findings"]
    assert [(n["token"], n["line"], n["depth"], n["order"], n["type"])
            for n in finding["path"]] == [(name, 7, *t) for name, t
                                          in zip(names, triples)]


def _flip(text: str) -> str:
    """Hex text with its lowest bit flipped."""
    return text[:-1] + format(int(text[-1], 16) ^ 1, "x")


# How a report row of file 0 is damaged: (the column whose ref it
# replaces, 0 the token or 2 the ore scope tag; the modes it applies to;
# and damage(the row's refs, key store of the report, another key store,
# token) -> the replacement, where token(master keys, identity block) is
# that token as the report's mode writes it)
FOREIGN_FIELDS = {
    "token of another key store": (
        0, ("std", "ore"), lambda row, ks, other, token: token(
            other.master, plain("XSS_SENS"))),
    "token of another file's row": (
        0, MODES, lambda row, ks, other, token: token(
            ks.master, token_block(1, "XSS_SENS"))),
    "token with one bit flipped": (0, MODES, lambda row, ks, other, token:
                                   _flip(row[0])),
    "token numbered at its file's count": (
        0, MODES, lambda row, ks, other, token: token(
            ks.master, plain(f"VAR{ks.counts[0][0]}"))),
    "token of a family its file has none of": (
        0, MODES, lambda row, ks, other, token: token(
            ks.master, plain("FUNC_CALL0"))),
    "token of a fixed name with a number": (
        0, MODES, lambda row, ks, other, token: token(
            ks.master, struct.pack(">IBI7x", 0, 0, 1))),
    "tag of another key store": (2, ("ore",), lambda row, ks, other, token:
                                 scope_sealer(other.master.scope)(
                                     struct.pack(">Iiii", 0, 0, 0, 0)).hex()),
    "tag of another file's row": (2, ("ore",), lambda row, ks, other, token:
                                  scope_sealer(ks.master.scope)(
                                      struct.pack(">Iiii", 1, 0, 0, 0)).hex()),
    "tag with one bit flipped": (2, ("ore",), lambda row, ks, other, token:
                                 _flip(row[2])),
}


@pytest.mark.parametrize("mode, case", [
    (mode, case) for case, (_, modes, _) in FOREIGN_FIELDS.items()
    for mode in ("std", "ore", "plain") if mode in modes])
def test_a_foreign_or_damaged_token_or_tag_is_a_key_mismatch(tmp_path, mode,
                                                             case):
    column, _, damage = FOREIGN_FIELDS[case]
    root = write_app(tmp_path, TWO_FILE_APP)
    res = encrypt_application(root, mode=mode)
    other = encrypt_application(root, mode=mode).keys
    assert res.keys.counts[0] == (3, 0)  # FLOW_APP: VAR0 to VAR2

    def token(master, block):
        if mode != "plain":
            (block,) = derive_secrets(master, block)
        return block.hex()

    report = analyse(res.index, authorise(res.keys, "xss"))
    entry = report["files"][0]
    (row, *_) = entry["nodes"]
    set_ref(entry, row, column, damage(row_refs(report, entry, row),
                                       res.keys, other, token))
    # a plain report, which no key opens, is malformed instead
    with pytest.raises(FormatError if mode == "plain" else KeyMismatchError,
                       match="no name of file 0" if column == 0
                       else "scope tag"):
        decrypt_report(report, res.keys)


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_decrypt_report_derives_no_token_keys(tmp_path, mode, monkeypatch):
    # a report opens by decryption, so its cost follows the report and not
    # the names the application holds
    res = encrypt_application(write_app(tmp_path, CORPUS["multifile"]),
                              mode=mode)
    report = analyse(res.index, authorise(res.keys, "xss"))
    expected = decrypt_report(report, res.keys)
    assert expected["files"] and any(f["findings"] for f in expected["files"])

    def derive(*args):
        raise AssertionError("decrypt_report derived token keys")

    for module in (cca.crypto, cca.index, cca.analysis):
        if hasattr(module, "derive_secrets"):
            monkeypatch.setattr(module, "derive_secrets", derive)
    assert decrypt_report(report, res.keys) == expected


def test_report_mode_must_match_the_key_store(tmp_path):
    root = write_app(tmp_path, FLOW_APP)
    std = encrypt_application(root, mode="std")
    report = analyse(std.index, authorise(std.keys, "xss"))
    with pytest.raises(KeyMismatchError, match="mode"):
        decrypt_report(report, dataclasses.replace(std.keys, mode="plain"))


def test_encrypted_paths_carry_ranks_not_ciphertexts(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="ore")
    (fq,) = authorise(res.keys, "xss").files
    raw = find_paths(make_reader(res.index), fq)
    lines = [[n.line for n in path] for path in raw]
    # plaintext lines 5/1 and 6/4 rank 3/0 and 4/2 among the lines read
    # (1, 3, 4, 5, 6)
    assert lines == [[3, 3, 0], [4, 4, 2]]
    # scopes stay the 16-byte tags the entries hold
    assert all(isinstance(n.scope, bytes) and len(n.scope) == 16
               for path in raw for n in path)


def test_ore_ranks_are_per_file_whatever_the_reader_walked_before(tmp_path):
    # file a's lines 2 and 7 fall between and after file b's lines 1-6, so
    # ranking them together would shift b's ranks
    app = {"a.php": "<?php\n$x = $_GET['q'];\n\n\n\n\necho $x;\n",
           "b.php": FLOW_APP["index.php"]}
    res = encrypt_application(write_app(tmp_path, app), mode="ore")
    fqs = {res.keys.files[fq.file_id]: fq
           for fq in authorise(res.keys, "xss").files}
    reader = make_reader(res.index)
    assert find_paths(reader, fqs["a.php"])
    after_a = find_paths(reader, fqs["b.php"])
    alone = find_paths(make_reader(res.index), fqs["b.php"])
    assert [[node_tuple(n) for n in path] for path in after_a] == \
        [[node_tuple(n) for n in path] for path in alone]
    assert [[n.line for n in path] for path in alone] == [[3, 3, 0], [4, 4, 2]]


def test_an_app_past_line_256_takes_two_blocks_and_agrees_across_modes(
        tmp_path):
    # the shop app with blank lines before its code: every flow line is
    # past 256, so ore lines take two blocks, and report names 10 bytes
    app = {path: "\n" * 300 + text for path, text in CORPUS["app_shop"].items()}
    root = write_app(tmp_path, app)
    found = {}
    for mode in ("plain", "std", "ore"):
        res = encrypt_application(root, mode=mode)
        assert res.index.ore_width == (16 if mode == "ore" else 0)
        for task in TASKS:
            report = analyse(res.index, authorise(res.keys, task))
            if mode == "ore":
                names = report["lines"]
                assert names and all(re.fullmatch("[0-9a-f]{20}", name)
                                     for name in names)
            found[mode, task] = decrypt_report(report, res.keys)["files"]
    for task in TASKS:
        assert found["plain", task] == found["std", task] == found["ore", task]
        lines = [node["line"] for entry in found["ore", task]
                 for finding in entry["findings"] for node in finding["path"]]
        assert lines and min(lines) > 256


@pytest.mark.parametrize("case", list(HOSTILE_SLOTS))
def test_hostile_slot_fails_analysis(tmp_path, case):
    damage, error, says = HOSTILE_SLOTS[case]
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="ore")
    query = authorise(res.keys, "xss")
    assert analyse(res.index, query)["files"][0]["findings"]
    damage(res.index, res.keys)
    with pytest.raises(getattr(cca.errors, error), match=says):
        analyse(res.index, query)


@pytest.mark.parametrize("mode", ["std", "ore"])
@pytest.mark.parametrize("case", list(HOSTILE_ENTRIES))
def test_hostile_entry_fails_analysis(tmp_path, mode, case):
    damage, error, says = HOSTILE_ENTRIES[case]
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode=mode)
    query = authorise(res.keys, "xss")
    assert analyse(res.index, query)["files"][0]["findings"]
    damage(res.index, res.keys)
    with pytest.raises(getattr(cca.errors, error), match=says):
        analyse(res.index, query)


@pytest.mark.parametrize("mode", ["std", "ore"])
def test_probes_are_the_hits_and_one_miss_per_sink(tmp_path, mode,
                                                   monkeypatch):
    # every token but a sink is read by its count: no miss below a sink,
    # and a leaf is never probed
    root = write_app(tmp_path, {f"{name}/{rel}": text
                                for name, app in CORPUS.items()
                                for rel, text in app.items()})
    res = encrypt_application(root, mode=mode)
    probes = []
    lookup = cca.index.EncryptedIndex.lookup

    def counting(index, key):
        value = lookup(index, key)
        probes.append(value is not None)
        return value

    monkeypatch.setattr(cca.index.EncryptedIndex, "lookup", counting)
    sinks = 0
    for task in TASKS:
        query = authorise(res.keys, task)
        analyse(res.index, query)
        sinks += len(query.files)
    assert sinks == 74
    assert (sum(probes), len(probes)) == (281, 281 + sinks)


def test_a_slot_is_opened_once_and_only_when_named(tmp_path, monkeypatch):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="ore")
    query = authorise(res.keys, "xss")
    opened = []

    def counting(key, blob):
        opened.append(blob)
        return rnd_decrypt(key, blob)

    monkeypatch.setattr(cca.analysis, "rnd_decrypt", counting)
    analyse(res.index, query)
    slots = [blob for blob in opened if blob in res.index.slots]
    assert len(slots) == len(set(slots)) > 0
    # line 2 is only in the entry of $c, which no sink reaches, so its
    # slot stays sealed
    assert len(slots) == len(res.index.slots) - 1


# --- larger flows -----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
@pytest.mark.parametrize("app,count", [
    # the diamonds' paths share index entries and one sink entry
    (chain_app(7, diamonds={3, 5}), 4),
    # the two flows run from two entries of one sink statement, and
    # find_paths builds a sink node for each
    (PARALLEL_APP, 2)], ids=["diamonds", "parallel"])
def test_report_lists_each_node_once_in_first_use_order(tmp_path, mode, app,
                                                        count):
    res = encrypt_application(write_app(tmp_path, app), mode=mode)
    report = analyse(res.index, authorise(res.keys, "xss"))
    (entry,) = report["files"]
    nodes, findings = entry["nodes"], entry["findings"]
    assert len(findings) == count
    assert all(len(node) == (3 if mode == "ore" else 5) for node in nodes)
    assert len({tuple(node) for node in nodes}) == len(nodes)
    assert len({f[0] for f in findings}) == 1  # one sink row
    first_use = list(dict.fromkeys(i for f in findings for i in f))
    assert first_use == list(range(len(nodes)))
    assert sum(map(len, findings)) > len(nodes)
    resolved = decrypt_report(report, res.keys)
    oracle = plaintext_analyse([(0, res.files[0].dcfg)], "xss",
                               {0: "index.php"})
    assert resolved["files"] == oracle["files"]


def decrypted_paths(report: dict) -> set[tuple]:
    return {
        tuple((n["token"], n["line"], n["depth"], n["order"], n["type"])
              for n in finding["path"])
        for entry in report["files"] for finding in entry["findings"]
    }


def test_diamond_chain_agrees_across_modes_with_few_comparisons(
        tmp_path, monkeypatch):
    root = write_app(tmp_path, chain_app(7, diamonds={3, 5}))
    calls = []
    real_compare = cca.analysis.ore_compare

    def counting_compare(a, b, width):
        calls.append(1)
        return real_compare(a, b, width)

    monkeypatch.setattr(cca.analysis, "ore_compare", counting_compare)
    found = {}
    for mode in ("std", "ore"):
        res = encrypt_application(root, mode=mode)
        report = analyse(res.index, authorise(res.keys, "xss"))
        found[mode] = decrypted_paths(decrypt_report(report, res.keys))
    (fa,) = res.files
    expected = enumerate_findings(fa.dcfg, "xss")
    assert len(expected) == 4
    assert found["ore"] == found["std"] == expected
    assert 0 < len(calls) <= 1000


def test_long_assignment_chain_gives_one_finding(tmp_path):
    lines = ["<?php $v0 = $_GET['q'];"]
    lines += [f"$v{i} = $v{i - 1};" for i in range(1, 1500)]
    lines.append("echo $v1499;")
    app = {"index.php": "\n".join(lines) + "\n"}
    resolved = run_decrypted(tmp_path, "long", app, "xss")
    assert flatten_findings(resolved) == {("index.php", 1501, 1)}


def test_long_rewrite_chain_selects_without_recursion(tmp_path):
    # 1,500 variables, each assigned twice: the one finding is 3,002 nodes
    # long, and detection must not recurse along it
    res = encrypt_application(write_app(tmp_path, chain_app(1500, set())),
                              mode="std")
    query = authorise(res.keys, "xss")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        report = analyse(res.index, query)
    finally:
        sys.setrecursionlimit(limit)
    resolved = decrypt_report(report, res.keys)
    assert flatten_findings(resolved) == {("index.php", 3002, 1)}
    assert "warnings" not in report


@settings(max_examples=25)
@given(length=st.integers(1, 10), data=st.data(), sanitised=st.booleans())
def test_generated_chains_match_the_exhaustive_oracle(tmp_path_factory,
                                                      length, data,
                                                      sanitised):
    # decrypted std and ore reports and plaintext_analyse all give the
    # findings of the exhaustive enumerator
    diamonds = data.draw(st.sets(st.integers(1, length), max_size=3))
    root = write_app(tmp_path_factory.mktemp("chain"),
                     chain_app(length, diamonds, sanitised))
    (fa,) = encrypt_application(root, mode="plain").files
    expected = enumerate_findings(fa.dcfg, "xss")
    assert len(expected) == (0 if sanitised else 2 ** len(diamonds))
    for mode in ("std", "ore"):
        res = encrypt_application(root, mode=mode)
        report = analyse(res.index, authorise(res.keys, "xss"))
        assert decrypted_paths(decrypt_report(report, res.keys)) == expected
    oracle = plaintext_analyse([(0, fa.dcfg)], "xss")
    assert decrypted_paths(oracle) == expected


@pytest.mark.parametrize("diamonds", [set(), {5, 10}],
                         ids=["straight", "diamond2"])
def test_fourteen_variable_chains_analyse_in_50_ms(tmp_path, diamonds):
    root = write_app(tmp_path, chain_app(14, diamonds))
    (fa,) = encrypt_application(root, mode="plain").files
    expected = enumerate_findings(fa.dcfg, "xss")
    assert len(expected) == 2 ** len(diamonds)
    for mode in ("plain", "std", "ore"):
        res = encrypt_application(root, mode=mode)
        query = authorise(res.keys, "xss")
        seconds = []
        for _ in range(3):  # the best of three, to ride out a busy machine
            started = time.perf_counter()
            report = analyse(res.index, query)
            seconds.append(time.perf_counter() - started)
        assert min(seconds) < 0.05, (mode, seconds)
        assert decrypted_paths(decrypt_report(report, res.keys)) == expected


@pytest.mark.parametrize("diamonds", [set(), {13, 27}],
                         ids=["straight", "diamond2"])
def test_forty_variable_chains_analyse_in_2_s(tmp_path, diamonds):
    # enumerating every walk would take about 2**41 steps
    root = write_app(tmp_path, chain_app(40, diamonds))
    for mode in ("plain", "std", "ore"):
        res = encrypt_application(root, mode=mode)
        query = authorise(res.keys, "xss")
        started = time.perf_counter()
        report = analyse(res.index, query)
        assert time.perf_counter() - started < 2, mode
        assert sum(len(f["findings"]) for f in report["files"]) == \
            2 ** len(diamonds)


def test_report_json_round_trips(tmp_path):
    for mode in ("std", "ore"):
        res = encrypt_application(write_app(tmp_path / mode,
                                            CORPUS["both_tasks"]), mode=mode)
        report = analyse(res.index, authorise(res.keys, "xss"))
        for doc in (report, decrypt_report(report, res.keys)):
            path = tmp_path / f"{mode}.json"
            save_report(path, doc)
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(doc, separators=(",", ":"))
            assert load_report(path) == doc
            assert yaml.safe_load(text) == doc  # any YAML loader reads it


@pytest.mark.parametrize("text", ["files: []\ntask: xss\n", "{\"files\": [",
                                  "[]", "\"files\""],
                         ids=["yaml", "truncated", "list", "string"])
def test_load_report_rejects_what_is_not_a_json_report(tmp_path, text):
    path = tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError):
        load_report(path)
