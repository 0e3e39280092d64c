"""Control-flow annotation and dependency-pair extraction."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import cca.dcfg
import cca.pipeline
from cca import lex, load_rules, load_task_knowledge, translate
from cca.dcfg import (
    VALUE_FAMILIES,
    annotate_control_flow,
    build_dcfg,
    dump_dcfg,
)
from cca.errors import StructureError
from cca.itl import family
from conftest import write_app
from corpus import CORPUS


def _dcfg(source: str):
    rules, tk = load_rules(), load_task_knowledge()
    tokens, ctx = translate(lex(source), rules, tk)
    return build_dcfg(annotate_control_flow(tokens), ctx)


def _pairs(source: str) -> list[tuple]:
    return [
        (p.left, p.right.token, p.right.line, p.right.depth, p.right.order,
         p.right.cf_type)
        for p in _dcfg(source).pairs
    ]


def _annotated(source: str):
    rules, tk = load_rules(), load_task_knowledge()
    tokens, _ = translate(lex(source), rules, tk)
    return annotate_control_flow(tokens)


# --- worked examples ----------------------------------------------------------

def test_single_assignment_single_pair():
    assert _pairs("<?php $a = $_GET['u'];") == [
        ("VAR0", "INPUT", 1, 0, 0, 0),
    ]


def test_flow_program_produces_six_pairs():
    pairs = _pairs(CORPUS["fig_flow"]["index.php"])

    assert pairs == [
        ("VAR0", "INPUT", 2, 0, 0, 0),
        ("VAR1", "STRING", 3, 0, 0, 0),
        ("VAR2", "VAR0", 4, 0, 0, 0),
        ("VAR2", "VAR2", 5, 0, 0, 0),
        ("XSS_SENS", "VAR0", 6, 0, 0, 0),
        ("XSS_SENS", "VAR2", 7, 0, 0, 0),
    ]
    assert [p[0] for p in pairs[-2:]] == ["XSS_SENS", "XSS_SENS"]


def test_sanitized_call_chain_pairs():
    pairs = _pairs("<?php\n$a = $_GET['u'];\n\n\necho htmlentities($a);")

    assert ("XSS_SENS", "XSS_SAN", 5, 0, 0, 0) in pairs
    assert ("XSS_SAN", "VAR0", 5, 0, 0, 0) in pairs
    assert ("VAR0", "INPUT", 2, 0, 0, 0) in pairs


def test_branch_annotation_triples():
    ext = _annotated(CORPUS["branching"]["index.php"])

    want = {3: (2, 1, 1), 5: (2, 1, -1), 8: (2, 2, 1),
            11: (1, 1, -1), 12: (0, 0, 0)}
    for line, triple in want.items():
        stamped = [e.flow for e in ext if e.line == line
                   and family(e.token) in ("VAR", "INPUT", "XSS_SENS",
                                           "END_ASSIGN", "END_CALL")]
        assert stamped, f"no data tokens on line {line}"
        assert set(stamped) == {triple}, (line, stamped)


def test_straight_line_code_is_unannotated():
    ext = _annotated(CORPUS["fig_flow"]["index.php"])
    assert {e.flow for e in ext} == {(0, 0, 0)}


def test_switch_cases_annotate_like_if_chain():
    source = (
        "<?php\n"
        "switch($k) {\n"
        "    case 1:\n"
        "        $a = 1;\n"
        "        break;\n"
        "    case 2:\n"
        "        $a = 2;\n"
        "        break;\n"
        "    default:\n"
        "        $a = 3;\n"
        "}\n"
    )
    ext = _annotated(source)

    def flow_of(line):
        flows = {e.flow for e in ext
                 if e.line == line and family(e.token) in ("VAR", "NUMBER")}
        assert len(flows) == 1
        return flows.pop()

    assert flow_of(4) == (1, 1, 1)
    assert flow_of(7) == (1, 1, 2)
    assert flow_of(10) == (1, 1, -1)


def test_elseif_chain_types_increment():
    source = (
        "<?php\n"
        "if($m == 1)\n"
        "    $v = 1;\n"
        "elseif($m == 2)\n"
        "    $v = 2;\n"
        "elseif($m == 3)\n"
        "    $v = 3;\n"
        "else\n"
        "    $v = 4;\n"
    )
    ext = _annotated(source)
    by_line = {
        line: {e.flow for e in ext
               if e.line == line and family(e.token) in ("VAR", "NUMBER")}
        for line in (3, 5, 7, 9)
    }
    assert by_line == {
        3: {(1, 1, 1)},
        5: {(1, 1, 2)},
        7: {(1, 1, 3)},
        9: {(1, 1, -1)},
    }


def test_sibling_chains_count_order_within_parent():
    source = (
        "<?php\n"
        "if(1 == 1) { $a = 1; }\n"
        "if(2 == 2) { $b = 2; }\n"
        "if(3 == 3) { if(4 == 4) { $c = 3; } }\n"
    )
    ext = _annotated(source)
    a = next(e for e in ext if e.token == "VAR0")
    b = next(e for e in ext if e.token == "VAR1")
    c = next(e for e in ext if e.token == "VAR2")
    assert a.flow == (1, 1, 1)
    assert b.flow == (1, 2, 1)
    assert c.flow == (2, 1, 1)


def test_loop_bodies_are_transparent():
    source = (
        "<?php\n"
        "while($i < 3) {\n"
        "    $a = 1;\n"
        "}\n"
        "for($i = 0; $i < 2; $i = $i + 1) {\n"
        "    $b = 2;\n"
        "}\n"
    )
    ext = _annotated(source)
    flows = {e.flow for e in ext if e.token in ("VAR1", "VAR2")}
    assert flows == {(0, 0, 0)}


def test_condition_variables_create_no_pairs():
    pairs = _pairs("<?php\nif($a == $b) {\n    $c = 'k';\n}\n")
    lefts = {p[0] for p in pairs}
    rights = {p[1] for p in pairs}
    assert "VAR0" not in lefts and "VAR0" not in rights
    assert "VAR1" not in lefts and "VAR1" not in rights
    assert ("VAR2", "STRING", 3, 1, 1, 1) in pairs


def test_numeric_literals_are_not_value_tokens():
    # The worked six-pair example depends on this: `$b = $b + 1;` adds only
    # the self-reference pair, never a NUMBER pair.
    assert _pairs("<?php $c = 1;") == []


def test_compound_assignment_emits_self_pair_first():
    pairs = _pairs("<?php\n$a = 'x';\n$a .= $b;\n")
    line3 = [p for p in pairs if p[2] == 3]
    assert line3[0][:2] == ("VAR0", "VAR0")
    assert ("VAR0", "VAR1", 3, 0, 0, 0) in pairs


def test_reassignment_creates_new_pairs_with_later_lines():
    pairs = _pairs("<?php\n$a = 1;\n$a = $b;\n")
    assert ("VAR0", "VAR1", 3, 0, 0, 0) in pairs


def test_foreach_binds_loop_variable_to_collection():
    pairs = _pairs("<?php\nforeach($rows as $row) {\n    echo $row;\n}\n")
    assert ("VAR1", "VAR0", 2, 0, 0, 0) in pairs
    assert ("XSS_SENS", "VAR1", 3, 0, 0, 0) in pairs


# translator data flows: source line -> its dependency pairs, all at
# depth, order and type 0
FLOWS = {
    # an accessor inside an accessor surfaces its variable too
    "$a = $b[$c[1]];": [("VAR0", "VAR1"), ("VAR0", "VAR2")],
    # $5 names no variable; an escaped \$c is text, a \\ before $c is not
    '$a = "cost \\$5 for $b";': [("VAR0", "STRING"), ("VAR0", "VAR1")],
    '$a = "cost \\$c for $b";': [("VAR0", "STRING"), ("VAR0", "VAR1")],
    '$a = "\\\\$c";': [("VAR0", "STRING"), ("VAR0", "VAR1")],
    '$a = "price: $";': [("VAR0", "STRING")],
    # a bare block opens no scope, and a group is transparent
    "{ $a = $b; }": [("VAR0", "VAR1")],
    "$b = ($a . 'x');": [("VAR0", "VAR1"), ("VAR0", "STRING")],
}


@pytest.mark.parametrize("source", list(FLOWS))
def test_translated_flows_give_their_pairs(source):
    assert _pairs(f"<?php\n{source}\n") == [
        (left, right, 2, 0, 0, 0) for left, right in FLOWS[source]]


def test_ending_token_that_closes_nothing_fails_annotation():
    # the translator takes an if inside a for header; its END_IF then
    # falls inside the header's condition, which no IF opened
    rules, tk = load_rules(), load_task_knowledge()
    tokens, _ = translate(
        lex("<?php\nfor ($i = if ($a) 0; $i < 3; $i = $i + 1) { }\n"),
        rules, tk, "t.php")
    with pytest.raises(StructureError) as err:
        annotate_control_flow(tokens, "t.php")
    assert str(err.value) == "t.php:2: END_IF closes nothing"


def test_empty_stream_builds_empty_dcfg():
    dcfg = _dcfg("<?php\n")
    assert dcfg.pairs == []


def test_unbalanced_structure_raises_with_line():
    with pytest.raises(StructureError):
        _dcfg("<?php\nif(1 == 1) {\n$a = 1;\n")


# --- container behavior -------------------------------------------------------

def test_by_left_groups_in_order():
    dcfg = _dcfg(CORPUS["fig_flow"]["index.php"])
    grouped = dcfg.by_left()

    assert list(grouped) == ["VAR0", "VAR1", "VAR2", "XSS_SENS"]
    assert [p.right.token for p in grouped["XSS_SENS"]] == ["VAR0", "VAR2"]


def test_no_duplicate_pairs():
    dcfg = _dcfg("<?php\n$a = $b . $b;\n")
    keys = [(p.left, p.right.token, p.right.line, p.right.flow)
            for p in dcfg.pairs]
    assert len(keys) == len(set(keys))


def test_dump_format():
    dump = dump_dcfg(_dcfg("<?php $a = $_GET['u'];"))
    assert dump.splitlines() == ["VAR0 -> (INPUT,1,0,0,0)"]


def test_build_is_deterministic():
    source = CORPUS["branching"]["index.php"]
    assert dump_dcfg(_dcfg(source)) == dump_dcfg(_dcfg(source))


def test_pipeline_annotates_each_file_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return annotate_control_flow(*args, **kwargs)

    monkeypatch.setattr(cca.pipeline, "annotate_control_flow", counting)
    monkeypatch.setattr(cca.dcfg, "annotate_control_flow", counting)
    res = cca.pipeline.encrypt_application(
        write_app(tmp_path, CORPUS["multifile"]), mode="plain")
    assert len(calls) == len(res.files) == 3


# --- structural properties ----------------------------------------------------

_SIMPLE_LINES = st.lists(
    st.sampled_from([
        "$a = $_GET['x'];",
        "$b = $a;",
        "$c = $b . 'tail';",
        "$a = $c;",
        "echo $a;",
        "echo htmlentities($b);",
        "$d = other($a, $b);",
    ]),
    min_size=1,
    max_size=10,
)


@given(_SIMPLE_LINES)
def test_pair_sides_use_allowed_families(stmts):
    dcfg = _dcfg("<?php\n" + "\n".join(stmts) + "\n")
    for pair in dcfg.pairs:
        assert family(pair.left) in ("VAR", "FUNC_CALL", "XSS_SENS",
                                     "SQLi_SENS", "XSS_SAN", "SQLi_SAN")
        assert family(pair.right.token) in VALUE_FAMILIES | {"NUMBER", "BOOL",
                                                             "NULL"}


@given(_SIMPLE_LINES)
def test_straight_line_pairs_carry_zero_annotations(stmts):
    dcfg = _dcfg("<?php\n" + "\n".join(stmts) + "\n")
    assert all(p.right.flow == (0, 0, 0) for p in dcfg.pairs)


@given(st.integers(min_value=1, max_value=6))
def test_nesting_depth_tracks_if_nesting(depth):
    lines = ["<?php"]
    for level in range(depth):
        lines.append("if(1 == 1) {")
    lines.append("$probe = 1;")
    lines.extend("}" for _ in range(depth))
    ext = _annotated("\n".join(lines) + "\n")

    probe = next(e for e in ext if family(e.token) == "VAR")
    assert probe.depth == depth
    assert probe.order == 1
    assert probe.cf_type == 1
