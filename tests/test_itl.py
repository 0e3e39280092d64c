"""Translation into the intermediate token language."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cca
from cca import lex, load_rules, load_task_knowledge, translate
from cca.errors import ConfigError, StructureError, TranslationError
from cca.itl import (
    ALL_FAMILIES,
    BASE_FAMILIES,
    ENDING_TOKENS,
    TASK_TOKENS,
    RuleSet,
    TaskKnowledge,
    dump_itl,
    family,
)
from corpus import CORPUS


def _translate(source: str, rules, tk):
    return translate(lex(source), rules, tk)


# --- vocabulary census --------------------------------------------------------

def test_family_counts():
    assert len(ENDING_TOKENS) == 12
    assert len(TASK_TOKENS) == 5
    assert len(BASE_FAMILIES) == 23
    assert len(ALL_FAMILIES) == 40
    assert len(set(ALL_FAMILIES)) == 40


def test_family_of_suffixed_tokens():
    assert family("VAR12") == "VAR"
    assert family("OP0") == "OP"
    assert family("FUNC_CALL3") == "FUNC_CALL"
    assert family("END_IF") == "END_IF"
    assert family("INPUT") == "INPUT"


@given(st.sampled_from(ALL_FAMILIES),
       st.one_of(st.just(""), st.integers(0, 10**6).map(str)))
def test_family_strips_exactly_the_number(name, suffix):
    assert family(name + suffix) == name
    assert family(name + suffix) == re.sub(r"\d+$", "", name + suffix)


# --- configuration loading ----------------------------------------------------

def test_default_rules_cover_all_ending_tokens(default_rules, default_tk):
    # The ending tokens are fixed names; the corpus closes every kind.
    emitted = {t.token for app in CORPUS.values() for text in app.values()
               for t in _translate(text, default_rules, default_tk)[0]}
    assert set(ENDING_TOKENS) <= emitted
    assert default_rules == RuleSet(split_string_interpolation=True)


def test_unknown_ending_token_rejected(tmp_path):
    bad = tmp_path / "rules.yaml"
    bad.write_text("ending_tokens:\n  assignment_end: END_BOGUS\n")
    with pytest.raises(ConfigError) as err:
        load_rules(bad)
    assert "'ending_tokens' is no longer configurable" in str(err.value)


def test_rules_file_sets_string_splitting(tmp_path, default_tk):
    rules = tmp_path / "rules.yaml"
    rules.write_text("split_string_interpolation: false\n")
    assert load_rules(rules) == RuleSet(split_string_interpolation=False)
    tokens, _ = _translate('<?php $m = "hi $a";', load_rules(rules), default_tk)
    assert [t.token for t in tokens] == ["VAR0", "OP0", "STRING", "END_ASSIGN"]


def _names_by_token(tk: TaskKnowledge) -> dict[str, set[str]]:
    names: dict[str, set[str]] = {}
    for name, token in tk.calls.items():
        names.setdefault(token, set()).add(name)
    return names


def test_task_knowledge_defaults(default_tk):
    assert "$_get" not in default_tk.inputs  # variables match exactly
    assert "$_GET" in default_tk.inputs
    assert len(default_tk.inputs) == 10
    names = _names_by_token(default_tk)
    assert names["XSS_SENS"] == {"echo", "print", "exit"}
    assert len(names["SQLi_SENS"]) == 9
    assert len(names["XSS_SAN"]) == 5
    assert len(names["SQLi_SAN"]) == 5


TK_BLOCK_STYLE = """\
INPUT:
  - $_GET
  - $_POST
XSS_SENS: [echo, print]
SQLi_SENS: [mysql_query, 'pg_query']  # flow style, quoted
XSS_SAN:
- htmlspecialchars
SQLi_SAN: [addslashes]
"""


def test_block_and_flow_style_task_knowledge_loads(tmp_path):
    tk = tmp_path / "tk.yaml"
    tk.write_text(TK_BLOCK_STYLE)
    assert load_task_knowledge(tk) == TaskKnowledge(
        inputs=frozenset({"$_GET", "$_POST"}),
        calls={"echo": "XSS_SENS", "print": "XSS_SENS",
               "mysql_query": "SQLi_SENS", "pg_query": "SQLi_SENS",
               "htmlspecialchars": "XSS_SAN", "addslashes": "SQLi_SAN"})


_LOAD_TK = """\
import sys
import cca.itl
from cca.errors import ConfigError
try:
    cca.itl.load_task_knowledge(sys.argv[1])
except ConfigError as exc:
    print(f"ConfigError: {exc}")
"""

# case -> (task knowledge text, what the ConfigError says)
BAD_YAML = {
    "not YAML": ("INPUT: [\n", "not parseable"),
    "tab indentation": ("INPUT:\n\t- $_GET\n", "not parseable"),
    "closed nesting": ("[" * 30000 + "]" * 30000, "not parseable"),
    "block nesting": ("- " * 30000 + "x", "not parseable"),
    "deepest nesting for libyaml": ("[" * 1000 + "]" * 1000, ""),
    "unknown section": (
        (Path(cca.__file__).parent / "data" / "task_knowledge.yaml").read_text("utf-8")
        + "XSS_SENSE: [printf]\n", "unknown section 'XSS_SENSE'"),
}


# The one loader is PyYAML's pure-Python SafeLoader.
@pytest.mark.parametrize("loader", ["python"])
@pytest.mark.parametrize("case", list(BAD_YAML))
def test_malformed_or_over_nested_yaml_is_a_config_error(tmp_path, case,
                                                         loader):
    text, says = BAD_YAML[case]
    tk = tmp_path / "tk.yaml"
    tk.write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(cca.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    # a child process, so a crash in the parser cannot end the run
    done = subprocess.run([sys.executable, "-c", _LOAD_TK, str(tk)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"ConfigError: {tk}: {says}")


def test_task_knowledge_sets_disjoint(default_tk):
    # each call name has one token, and the 22 names of the bundled file
    # all stay in the mapping
    counts = Counter(default_tk.calls.values())
    assert counts == {"XSS_SENS": 3, "SQLi_SENS": 9, "XSS_SAN": 5,
                      "SQLi_SAN": 5}
    assert not default_tk.inputs & default_tk.calls.keys()


def test_function_lookup_is_case_insensitive(default_tk):
    assert default_tk.function_token("HTMLEntities") == "XSS_SAN"
    assert default_tk.function_token("MYSQLI_QUERY") == "SQLi_SENS"
    assert default_tk.function_token("strtolower") is None


# --- translation examples -----------------------------------------------------

def test_first_assignment_from_entry_point(default_rules, default_tk):
    tokens, _ = _translate("<?php\n$a = $_GET['user'];", default_rules,
                           default_tk)
    assert [(t.token, t.line) for t in tokens] == [
        ("VAR0", 2), ("OP0", 2), ("INPUT", 2), ("END_ASSIGN", 2),
    ]


def test_interpolated_string_splits_around_variables(default_rules, default_tk):
    source = "<?php" + "\n" * 14 + '$msg = "Welcome {$user} to XXX";'
    tokens, _ = _translate(source, default_rules, default_tk)

    families = [family(t.token) for t in tokens]
    assert families == ["VAR", "OP", "STRING", "VAR", "STRING", "END_ASSIGN"]
    assert {t.line for t in tokens} == {15}
    assert tokens[0].token != tokens[3].token  # $msg and $user differ


def test_sanitized_sink_call(default_rules, default_tk):
    tokens, _ = _translate("<?php echo htmlentities($a);", default_rules,
                           default_tk)
    assert [family(t.token) for t in tokens] == [
        "XSS_SENS", "XSS_SAN", "VAR", "END_CALL", "END_CALL",
    ]


def test_same_variable_same_alias(default_rules, default_tk):
    tokens, _ = _translate("<?php\n$a = 1;\n$b = $a;\n$a = $b;",
                           default_rules, default_tk)
    vars_only = [t.token for t in tokens if family(t.token) == "VAR"]
    assert vars_only == ["VAR0", "VAR1", "VAR0", "VAR0", "VAR1"]


def test_variable_aliases_are_case_sensitive(default_rules, default_tk):
    tokens, _ = _translate("<?php\n$a = 1;\n$A = 2;", default_rules,
                           default_tk)
    vars_only = [t.token for t in tokens if family(t.token) == "VAR"]
    assert len(set(vars_only)) == 2


def test_operator_aliases_by_first_appearance(default_rules, default_tk):
    tokens, _ = _translate("<?php\n$a = 1 + 2;\n$b = 3 + 4;",
                           default_rules, default_tk)
    ops = [t.token for t in tokens if family(t.token) == "OP"]
    assert ops == ["OP0", "OP1", "OP0", "OP1"]


def test_unknown_function_gets_positional_alias(default_rules, default_tk):
    tokens, _ = _translate("<?php\n$x = custom_helper($y);\n$z = other($x);",
                           default_rules, default_tk)
    calls = [t.token for t in tokens if family(t.token) == "FUNC_CALL"]
    assert calls == ["FUNC_CALL0", "FUNC_CALL1"]


def test_every_input_source_maps_to_input_token(default_rules, default_tk):
    for name in sorted(default_tk.inputs):
        tokens, _ = _translate(f"<?php $x = {name};", default_rules,
                               default_tk)
        assert tokens[2].token == "INPUT", name


def test_statements_end_with_ending_tokens(default_rules, default_tk):
    source = CORPUS["branching"]["index.php"]
    tokens, _ = _translate(source, default_rules, default_tk)

    by_line: dict[int, list[str]] = {}
    for t in tokens:
        by_line.setdefault(t.line, []).append(t.token)
    for line, toks in by_line.items():
        assert family(toks[-1]) in ENDING_TOKENS, (line, toks)


def test_translation_context_records_assignment_ops(default_rules, default_tk):
    _, ctx = _translate("<?php\n$a = 1;\n$a .= 'x';\n$b = $a == 1;",
                        default_rules, default_tk)
    assigns = ctx.assignment_ops()
    compounds = ctx.compound_ops()
    assert compounds <= assigns
    assert len(assigns) == 2
    assert len(compounds) == 1


def test_unbalanced_braces_rejected(default_rules, default_tk):
    with pytest.raises(StructureError):
        _translate("<?php if(1 == 1) { echo 'x';", default_rules, default_tk)


# source line 2 -> (error class, its message after "t.php")
REJECTED = {
    "if ($a == 1)": (StructureError, ": branch body missing at end of file"),
    "f(1;": (StructureError, ": unbalanced parentheses at end of file"),
    "function f($x) return $x;": (StructureError,
                                  ":2: function body must be braced"),
    "do { } while ($a);": (TranslationError,
                           ":2: do-while is outside the supported subset"),
    "}": (StructureError, ":2: unmatched closing brace"),
    "if ($a) }": (StructureError, ":2: unexpected closing brace"),
    "$a = 1);": (StructureError, ":2: unmatched closing parenthesis"),
    "elseif ($a) { }": (StructureError, ":2: elseif without if"),
    "else { }": (StructureError, ":2: else without if"),
    "case 1:": (StructureError, ":2: case label outside switch"),
    "if $a { }": (StructureError,
                  ":2: if requires a parenthesised condition"),
    "$a = $b[1;": (StructureError, ": unterminated array access"),
    "$a = [1, 2];": (TranslationError,
                     ":2: no translation rule for LexToken LBRACKET"),
}


@pytest.mark.parametrize("source", list(REJECTED))
def test_out_of_subset_structure_rejected(default_rules, default_tk, source):
    error, says = REJECTED[source]
    with pytest.raises(error) as err:
        translate(lex(f"<?php\n{source}\n"), default_rules, default_tk,
                  "t.php")
    assert type(err.value) is error
    assert str(err.value) == "t.php" + says


# --- leakage and determinism --------------------------------------------------

_SECRETS = ("$password_field", "fetch_billing_rows", "'super secret'",
            '"Hello Doctor"')


def test_no_concrete_names_survive_translation(default_rules, default_tk):
    source = (
        "<?php\n"
        "$password_field = $_POST['pw'];\n"
        "$greeting = \"Hello Doctor\";\n"
        "$rows = fetch_billing_rows($password_field, 'super secret');\n"
        "echo $greeting;\n"
    )
    dump = dump_itl(_translate(source, default_rules, default_tk)[0])

    for secret in ("password", "billing", "secret", "Hello", "Doctor",
                   "greeting", "rows", "pw"):
        assert secret not in dump


def test_dump_is_deterministic(default_rules, default_tk):
    source = CORPUS["both_tasks"]["index.php"]
    first = dump_itl(_translate(source, default_rules, default_tk)[0])
    second = dump_itl(_translate(source, default_rules, default_tk)[0])
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


def test_dump_line_format(default_rules, default_tk):
    dump = dump_itl(_translate("<?php $a = 1;", default_rules, default_tk)[0])
    assert dump.splitlines()[0] == "(VAR0,1)(OP0,1)(NUMBER,1)(END_ASSIGN,1)"


# --- properties over generated sources ----------------------------------------

_IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)


@st.composite
def _programs(draw):
    lines = []
    names = draw(st.lists(_IDENT, min_size=1, max_size=4, unique=True))
    for name in names:
        lines.append(f"${name} = {draw(st.integers(0, 999))};")
    tail = draw(st.sampled_from(names))
    lines.append(f"echo ${tail};")
    return "<?php\n" + "\n".join(lines) + "\n"


@given(_programs())
def test_translated_tokens_use_known_families(source):
    rules = load_rules()
    tk = load_task_knowledge()
    tokens, _ = _translate(source, rules, tk)
    for t in tokens:
        assert family(t.token) in ALL_FAMILIES


@given(_programs())
def test_no_source_identifier_leaks(source):
    rules = load_rules()
    tk = load_task_knowledge()
    dump = dump_itl(_translate(source, rules, tk)[0])
    for name in re.findall(r"\$([a-z][a-z0-9_]*)", source):
        assert re.search(rf"\b{name}\b", dump) is None
