"""Both plaintext oracles: shared-step runner and independent enumerator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cca.analysis import (
    BUDGET_WARNING,
    FileQuery,
    aggregate_paths,
    analyse,
    authorise,
    decrypt_report,
    find_paths,
    make_reader,
    remove_invalid_paths,
    resolve_control_flow,
)
from cca.dcfg import (
    DCFG,
    DCFGPair,
    ExtendedITLToken,
    annotate_control_flow,
    build_dcfg,
)
from cca.errors import UsageError
from cca.frontend import lex
from cca.itl import TASKS, load_rules, load_task_knowledge, translate
from cca.oracle import DcfgReader, enumerate_findings, plaintext_analyse
from cca.pipeline import encrypt_application

from conftest import chain_app, finding_paths, write_app
from corpus import CORPUS


def mk(left: str, right: str, line: int, depth: int = 0, order: int = 0,
       cf_type: int = 0) -> DCFGPair:
    return DCFGPair(left, ExtendedITLToken(right, line, depth, order, cf_type))


def build(text: str) -> DCFG:
    rules = load_rules()
    tk = load_task_knowledge()
    itl, ctx = translate(lex(text, "t.php"), rules, tk, "t.php")
    return build_dcfg(annotate_control_flow(itl, "t.php"), ctx)


def oracle_paths(dcfg: DCFG, task: str) -> set[tuple]:
    """plaintext_analyse findings as node-tuple paths, for set comparison."""
    report = plaintext_analyse([(0, dcfg)], task)
    out = set()
    for entry in report["files"]:
        for finding in entry["findings"]:
            out.add(tuple((n["token"], n["line"], n["depth"], n["order"],
                           n["type"]) for n in finding["path"]))
    return out


# --- enumerator on hand built graphs --------------------------------------------


def test_enumerator_rejects_unknown_task():
    with pytest.raises(UsageError):
        enumerate_findings(DCFG([]), "rce")


def test_enumerator_linear_flow():
    dcfg = DCFG([mk("VAR0", "INPUT", 1), mk("XSS_SENS", "VAR0", 2)])
    assert enumerate_findings(dcfg, "xss") == {
        (("XSS_SENS", 2, 0, 0, 0), ("VAR0", 2, 0, 0, 0),
         ("INPUT", 1, 0, 0, 0)),
    }
    assert enumerate_findings(dcfg, "sqli") == set()


def test_enumerator_later_rewrite_shadows_taint():
    dcfg = DCFG([
        mk("VAR0", "INPUT", 1),
        mk("VAR0", "STRING", 2),
        mk("XSS_SENS", "VAR0", 3),
    ])
    assert enumerate_findings(dcfg, "xss") == set()


def test_enumerator_later_rewrite_revives_taint():
    dcfg = DCFG([
        mk("VAR0", "STRING", 1),
        mk("VAR0", "INPUT", 2),
        mk("XSS_SENS", "VAR0", 3),
    ])
    (path,) = enumerate_findings(dcfg, "xss")
    assert path[-1] == ("INPUT", 2, 0, 0, 0)


def test_enumerator_cycle_terminates_and_shadows():
    dcfg = DCFG([
        mk("VAR0", "INPUT", 1),
        mk("VAR0", "VAR0", 2),
        mk("XSS_SENS", "VAR0", 3),
    ])
    assert enumerate_findings(dcfg, "xss") == set()


def test_enumerator_sanitized_chain_is_silent():
    dcfg = DCFG([
        mk("XSS_SAN", "INPUT", 1),
        mk("VAR0", "XSS_SAN", 1),
        mk("XSS_SENS", "VAR0", 2),
    ])
    assert enumerate_findings(dcfg, "xss") == set()
    # the sanitizer for the other task does not help
    dcfg = DCFG([
        mk("SQLi_SAN", "INPUT", 1),
        mk("VAR0", "SQLi_SAN", 1),
        mk("XSS_SENS", "VAR0", 2),
    ])
    (path,) = enumerate_findings(dcfg, "xss")
    assert path[-1][0] == "INPUT"


def test_enumerator_branch_scopes_do_not_compete():
    dcfg = DCFG([
        mk("VAR0", "INPUT", 1),
        mk("VAR0", "STRING", 3, depth=1, order=1, cf_type=1),
        mk("XSS_SENS", "VAR0", 5),
    ])
    (path,) = enumerate_findings(dcfg, "xss")
    assert path[-1] == ("INPUT", 1, 0, 0, 0)


def test_enumerator_drops_impossible_same_scope_flows():
    dcfg = DCFG([
        mk("XSS_SENS", "VAR0", 2),
        mk("VAR0", "INPUT", 5),
    ])
    assert enumerate_findings(dcfg, "xss") == set()


def test_enumerator_parallel_same_line_flows_all_report():
    dcfg = DCFG([
        mk("VAR0", "INPUT", 1),
        mk("VAR1", "INPUT", 2),
        mk("XSS_SENS", "VAR0", 3),
        mk("XSS_SENS", "VAR1", 3),
    ])
    found = enumerate_findings(dcfg, "xss")
    assert {path[1][0] for path in found} == {"VAR0", "VAR1"}


def test_rewrite_after_a_branched_sink_does_not_shadow():
    # the line 3 rewrite is in another scope than the sink, so the flow
    # through it stays valid, but it runs after the sink and cannot win
    dcfg = DCFG([
        mk("VAR0", "INPUT", 1),
        mk("XSS_SENS", "VAR0", 2, depth=1, order=1, cf_type=1),
        mk("VAR0", "STRING", 3),
    ])
    (path,) = enumerate_findings(dcfg, "xss")
    assert path[-1] == ("INPUT", 1, 0, 0, 0)
    assert oracle_paths(dcfg, "xss") == {path}


def test_rewrite_whose_every_flow_is_impossible_does_not_shadow():
    # the line 3 rewrite only continues to a line 7 write in the sink's
    # scope, which step 2 drops, so the line 1 flow is the only one left
    dcfg = DCFG([
        mk("XSS_SENS", "VAR0", 5),
        mk("VAR0", "INPUT", 1),
        mk("VAR0", "VAR1", 3),
        mk("VAR1", "STRING", 7),
    ])
    (path,) = enumerate_findings(dcfg, "xss")
    assert path[-1] == ("INPUT", 1, 0, 0, 0)
    assert oracle_paths(dcfg, "xss") == {path}


def test_repeated_pair_gives_one_finding():
    # the two walks through the repeated pair are duplicates: one is kept
    dcfg = DCFG([
        mk("VAR0", "INPUT", 1),
        mk("VAR0", "INPUT", 1),
        mk("XSS_SENS", "VAR0", 2),
    ])
    path = (("XSS_SENS", 2, 0, 0, 0), ("VAR0", 2, 0, 0, 0),
            ("INPUT", 1, 0, 0, 0))
    assert enumerate_findings(dcfg, "xss") == {path}
    (entry,) = plaintext_analyse([(0, dcfg)], "xss")["files"]
    assert len(entry["findings"]) == 1
    assert oracle_paths(dcfg, "xss") == {path}


def test_plaintext_oracle_reports_the_detection_budget():
    # 24 if/else diamonds give 2**24 findings, past the budget
    lines = ["<?php", "$v0 = $_GET['k'];"]
    for i in range(1, 25):
        lines += [f'if ($v{i - 1} == "a") {{', f"$v{i} = $v{i - 1};",
                  "} else {", f"$v{i} = $v{i - 1} . 'a';", "}"]
    lines.append("echo $v24;")
    report = plaintext_analyse([(5, build("\n".join(lines) + "\n"))], "xss")
    assert report["warnings"] == [BUDGET_WARNING.format(5)]
    assert report["files"] == [{"file": 5, "findings": []}]


# --- shared step oracle -----------------------------------------------------------


def test_oracle_rejects_unknown_task():
    with pytest.raises(UsageError):
        plaintext_analyse([], "rce")


def test_oracle_report_shape_and_naming():
    dcfg = build("<?php $a = $_POST['x'];\necho $a;\n")
    report = plaintext_analyse([(0, dcfg)], "xss",
                               file_names={0: "index.php"})
    assert report["task"] == "xss"
    assert report["mode"] == "oracle"
    (entry,) = report["files"]
    assert entry["file"] == "index.php"
    (finding,) = entry["findings"]
    assert finding["sink"]["token"] == "XSS_SENS"
    assert finding["source"] == {"token": "INPUT", "line": 1, "depth": 0,
                                 "order": 0, "type": 0}


def test_oracle_falls_back_to_file_ids():
    dcfg = build("<?php echo $_GET['x'];\n")
    report = plaintext_analyse([(7, dcfg)], "xss")
    assert report["files"][0]["file"] == 7


def test_oracle_orders_files_by_id():
    dcfg = build("<?php echo $_GET['x'];\n")
    report = plaintext_analyse([(3, dcfg), (1, dcfg)], "xss")
    assert [entry["file"] for entry in report["files"]] == [1, 3]


# --- three way agreement ----------------------------------------------------------


EQUIV_PROGRAMS = ["fig_flow", "branching", "reassign", "branch_sanitize",
                  "both_tasks", "switch", "interpolation", "nested_calls",
                  "xss_sanitized", "sqli_multi"]


@pytest.mark.parametrize("name", EQUIV_PROGRAMS)
@pytest.mark.parametrize("task", ["xss", "sqli"])
def test_oracle_matches_decrypted_run(tmp_path, name, task):
    res = encrypt_application(write_app(tmp_path, CORPUS[name]), mode="ore")
    resolved = decrypt_report(analyse(res.index, authorise(res.keys, task)),
                              res.keys)
    per_file = [(fa.source.file_id, fa.dcfg) for fa in res.files]
    reference = plaintext_analyse(per_file, task, file_names=res.keys.files)
    assert resolved["files"] == reference["files"]


@pytest.mark.parametrize("name", EQUIV_PROGRAMS)
@pytest.mark.parametrize("task", ["xss", "sqli"])
def test_oracle_matches_independent_enumerator(tmp_path, name, task):
    res = encrypt_application(write_app(tmp_path, CORPUS[name]), mode="plain")
    for fa in res.files:
        assert oracle_paths(fa.dcfg, task) == enumerate_findings(fa.dcfg, task)


@pytest.mark.parametrize("mode", ["plain", "std", "ore"])
def test_tainted_array_index_taints_the_element(tmp_path, mode):
    # $arr[$i] reads an element chosen by the input, so $x carries it
    app = {"index.php": "<?php\n$i = $_GET['q'];\n$x = $arr[$i];\n"
                        "echo $x;\n"}
    res = encrypt_application(write_app(tmp_path, app), mode=mode)
    path = (("XSS_SENS", 4, 0, 0, 0), ("VAR1", 4, 0, 0, 0),
            ("VAR0", 3, 0, 0, 0), ("INPUT", 2, 0, 0, 0))
    (fa,) = res.files
    assert enumerate_findings(fa.dcfg, "xss") == {path}
    assert oracle_paths(fa.dcfg, "xss") == {path}
    report = decrypt_report(analyse(res.index, authorise(res.keys, "xss")),
                            res.keys)
    assert finding_paths(report) == {("index.php", path)}


# --- random program property -------------------------------------------------------


_VARS = ("$a", "$b", "$c", "$d")
_VAR = st.sampled_from(_VARS)

statement = st.one_of(
    st.tuples(st.just("input"), _VAR),
    st.tuples(st.just("const"), _VAR),
    st.tuples(st.just("copy"), _VAR, _VAR),
    st.tuples(st.just("mix"), _VAR, _VAR),
    st.tuples(st.just("twice"), _VAR, _VAR),  # equal index entries
    st.tuples(st.just("clean"), _VAR, _VAR),
    st.tuples(st.just("ifelse"), _VAR, _VAR, _VAR),
    st.tuples(st.just("while"), _VAR, _VAR),
    st.tuples(st.just("echo"), _VAR),
)


def render(statements, branch_at) -> str:
    blocks = []
    for desc in statements:
        kind, x = desc[0], desc[1]
        if kind == "input":
            block = [f"{x} = $_GET['k'];"]
        elif kind == "const":
            block = [f'{x} = "lit";']
        elif kind == "copy":
            block = [f"{x} = {desc[2]};"]
        elif kind == "mix":
            block = [f"{x} = {x} . {desc[2]};"]
        elif kind == "twice":
            block = [f"{x} = {desc[2]} . {desc[2]};"]
        elif kind == "clean":
            block = [f"{x} = htmlspecialchars({desc[2]});"]
        elif kind == "ifelse":
            block = [f'if ({desc[2]} == "a") {{', f"{x} = {desc[2]};",
                     "} else {", f"{x} = {desc[3]};", "}"]
        elif kind == "while":
            block = [f'while ({desc[2]} == "a") {{', f"{x} = {x} . {desc[2]};",
                     "}"]
        else:
            block = [f"echo {x};"]
        blocks.append(block)
    if blocks and branch_at is not None:
        i = branch_at % len(blocks)
        blocks[i] = ["if(1 == 1) {", *blocks[i], "}"]
    return "<?php\n" + "\n".join(line for b in blocks for line in b) + "\n"


@settings(max_examples=200)
@given(
    statements=st.lists(statement, min_size=1, max_size=8),
    branch_at=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
)
def test_random_programs_agree_across_oracles(statements, branch_at):
    dcfg = build(render(statements, branch_at))
    for task in ("xss", "sqli"):
        assert oracle_paths(dcfg, task) == enumerate_findings(dcfg, task)


# --- find_paths against the literal steps 2-4 ------------------------------------


def assert_steps_keep_every_path(reader, fq: FileQuery) -> None:
    """Steps 2-4 keep every path find_paths builds, in its order."""
    paths = find_paths(reader, fq)
    steps = resolve_control_flow(aggregate_paths(remove_invalid_paths(paths)))
    assert steps == paths


@settings(max_examples=200)
@given(
    statements=st.lists(statement, min_size=1, max_size=8),
    branch_at=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
)
def test_find_paths_builds_only_what_steps_2_to_4_keep(statements,
                                                       branch_at):
    dcfg = build(render(statements, branch_at))
    for sens, san in TASKS.values():
        fq = FileQuery(0, sens=sens, input_id="INPUT", san_id=san)
        assert_steps_keep_every_path(DcfgReader(dcfg.by_left()), fq)


@pytest.mark.parametrize("mode", ["std", "ore"])
@pytest.mark.parametrize("app", [
    chain_app(7, diamonds={3, 5}),
    chain_app(6, diamonds={1, 2, 6}, sanitised=True),
    chain_app(20, diamonds=set()),
], ids=["diamond2", "sanitised-diamond3", "straight"])
def test_encrypted_chains_build_only_what_steps_2_to_4_keep(tmp_path, mode,
                                                            app):
    res = encrypt_application(write_app(tmp_path, app), mode=mode)
    reader = make_reader(res.index)
    for task in TASKS:
        for fq in authorise(res.keys, task).files:
            assert_steps_keep_every_path(reader, fq)
