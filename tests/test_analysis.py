"""Query issuing, the four detection steps, reports and their decryption."""

import dataclasses
import inspect
import json
import logging
import os
import sys
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import cca.analysis

from cca.analysis import (
    FileQuery,
    PathNode,
    Query,
    aggregate_paths,
    analyse,
    authorise,
    check_vulnerability,
    decrypt_report,
    deserialize_query,
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
from cca.crypto import derive_ore_key, derive_token_keys, ore_encrypt
from cca.errors import (
    AuthorizationError,
    FormatError,
    KeyMismatchError,
    UsageError,
)
from cca.index import token_identity
from cca.oracle import enumerate_findings, plaintext_analyse
from cca.pipeline import encrypt_application

from conftest import flatten_findings, write_app
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


def node_tuple(node: PathNode) -> tuple:
    return (node.token, node.line, node.depth, node.order, node.cf_type)


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
    assert fq.sens == "0:XSS_SENS"
    assert fq.input_id == "0:INPUT"
    assert fq.san_id == "0:XSS_SAN"


def test_authorise_token_keys_match_direct_derivation(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    (fq,) = authorise(res.keys, "xss").files
    assert fq.sens == derive_token_keys(res.keys.master,
                                        token_identity(0, "XSS_SENS"))
    input_d, _ = derive_token_keys(res.keys.master, token_identity(0, "INPUT"))
    san_d, _ = derive_token_keys(res.keys.master, token_identity(0, "XSS_SAN"))
    assert fq.input_id == input_d
    assert fq.san_id == san_d


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
    findings = check_vulnerability(resolved, fq)
    return raw, valid, groups, resolved, findings


def test_traversal_builds_the_two_surviving_paths(flow_steps):
    # the line 6 flow through the line 3 copy loses to the line 4 rewrite
    # at VAR2, so it is never built
    raw = flow_steps[0]
    assert [[node_tuple(n) for n in path] for path in raw] == [
        [("0:XSS_SENS", 5, 0, 0, 0), ("0:VAR0", 5, 0, 0, 0),
         ("0:INPUT", 1, 0, 0, 0)],
        [("0:XSS_SENS", 6, 0, 0, 0), ("0:VAR2", 6, 0, 0, 0),
         ("0:VAR2", 4, 0, 0, 0)],
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
    assert node_tuple(survivor[-1]) == ("0:VAR2", 4, 0, 0, 0)


def test_final_check_reports_one_entry_point_flow(flow_steps):
    findings = flow_steps[4]
    assert len(findings) == 1
    (path,) = findings
    assert node_tuple(path[0]) == ("0:XSS_SENS", 5, 0, 0, 0)
    assert node_tuple(path[-1]) == ("0:INPUT", 1, 0, 0, 0)


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
    return PathNode(token, line, depth, order, cf_type)


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
    assert check_vulnerability([good, sanitized, dead_end], fq) == [good]


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
    (finding,) = report["files"][0]["findings"]
    assert list(finding) == ["path"]  # sink and source are path[0] and path[-1]
    token = finding["path"][0]["token"]
    assert "XSS" not in token
    assert bytes.fromhex(token)  # hex encoded key, not a name


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
    a["findings"], b["findings"] = b["findings"], a["findings"]
    with pytest.raises(KeyMismatchError, match="no name of file 0"):
        decrypt_report(report, res.keys)


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


def test_task_without_tokens_warns_not_fails(tmp_path):
    res = encrypt_application(write_app(tmp_path, FLOW_APP), mode="std")
    report = analyse(res.index, authorise(res.keys, "sqli"))
    assert report["warnings"]
    resolved = decrypt_report(report, res.keys)
    assert resolved["warnings"] == report["warnings"]
    assert flatten_findings(resolved) == set()


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
    (finding,) = report["files"][0]["findings"]
    assert finding["path"][0]["line"].startswith("ore:")
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
    assert all(isinstance(n.depth, int) for path in raw for n in path)


# --- larger flows -----------------------------------------------------------------


def chain_app(length: int, diamonds: set[int],
              sanitised: bool = False) -> dict:
    """A rewrite chain from $_GET to echo; diamonds assign in an if/else,
    and a sanitised chain passes its last variable through
    htmlspecialchars first."""
    lines = ["<?php $v0 = $_GET['q'];"]
    for i in range(1, length + 1):
        if i in diamonds:
            lines += [f"if ($v{i - 1} == 'a') {{", f"$v{i} = $v{i - 1};",
                      "} else {", f"$v{i} = $v{i - 1} . 'a';", "}"]
        else:
            lines += [f"$v{i} = $v{i - 1};", f"$v{i} = $v{i} . $v{i - 1};"]
    if sanitised:
        lines.append(f"$s = htmlspecialchars($v{length});")
        lines.append("echo $s;")
    else:
        lines.append(f"echo $v{length};")
    return {"index.php": "\n".join(lines) + "\n"}


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
