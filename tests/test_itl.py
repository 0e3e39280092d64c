"""Translation into the intermediate token language."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from cca import lex, load_rules, load_task_knowledge, translate
from cca.errors import ConfigError, StructureError
from cca.itl import (
    ALL_FAMILIES,
    BASE_FAMILIES,
    ENDING_TOKENS,
    TASK_TOKENS,
    RuleSet,
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


def test_task_knowledge_defaults(default_tk):
    assert "$_get" not in default_tk.inputs  # variables match exactly
    assert "$_GET" in default_tk.inputs
    assert len(default_tk.inputs) == 10
    assert default_tk.xss_sens == frozenset({"echo", "print", "exit"})
    assert len(default_tk.sqli_sens) == 9
    assert len(default_tk.xss_san) == 5
    assert len(default_tk.sqli_san) == 5


def test_task_knowledge_sets_disjoint(default_tk):
    groups = [default_tk.xss_sens, default_tk.sqli_sens,
              default_tk.xss_san, default_tk.sqli_san]
    for i, a in enumerate(groups):
        for b in groups[i + 1:]:
            assert not (a & b)


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
