"""Source collection and lexer behavior."""

from __future__ import annotations

import logging
import os
import time

import pytest
from hypothesis import given, strategies as st

from cca import collect_sources, lex
from cca.errors import LexError, UnsupportedSyntaxError
from cca.frontend import TOKEN_GROUPS, LexToken, dump_lextokens


# --- collect_sources ----------------------------------------------------------

def test_collect_only_php_files(tmp_path):
    (tmp_path / "a.php").write_text("<?php $a = 1;\n")
    (tmp_path / "b.txt").write_text("not php\n")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "c.php").write_text("<?php $c = 2;\n")

    sources = collect_sources(tmp_path)

    assert [s.rel for s in sources] == ["a.php", "sub/c.php"]
    assert [s.file_id for s in sources] == [0, 1]
    assert sources[0].text.startswith("<?php")


def test_collect_empty_directory(tmp_path):
    assert collect_sources(tmp_path) == []


def test_collect_skips_unreadable_file_with_warning(tmp_path, caplog):
    # Undecodable bytes exercise the same skip path as an I/O failure and
    # do not depend on file permissions (the suite may run as root).
    (tmp_path / "broken.php").write_bytes(b"<?php \xff\xfe garbage")
    (tmp_path / "ok.php").write_text("<?php $a = 1;\n")

    with caplog.at_level(logging.WARNING):
        sources = collect_sources(tmp_path)

    assert [s.rel for s in sources] == ["ok.php"]
    assert any("broken.php" in rec.getMessage() for rec in caplog.records)


def test_collect_ids_are_dense_after_a_skip(tmp_path):
    (tmp_path / "broken.php").write_bytes(b"\xff\xfe")
    (tmp_path / "x.php").write_text("<?php $a = 1;\n")
    (tmp_path / "y.php").write_text("<?php $b = 2;\n")

    sources = collect_sources(tmp_path)

    assert [s.rel for s in sources] == ["x.php", "y.php"]
    assert [s.file_id for s in sources] == [0, 1]


def test_collect_walk_keeps_the_pathlib_rules(tmp_path):
    # Suffix as Path.suffix reads it, case-insensitive; links to
    # directories are not followed, links to files are files.
    (tmp_path / "UP.PHP").write_text("<?php $u = 1;\n")
    (tmp_path / ".php").write_text("<?php $hidden = 1;\n")
    (tmp_path / "..php").write_text("<?php $dots = 1;\n")
    (tmp_path / "dir.php").mkdir()
    sub = tmp_path / "sub"
    (sub / "deeper").mkdir(parents=True)
    (sub / "s.php").write_text("<?php $s = 1;\n")
    (sub / "deeper" / "d.php").write_text("<?php $d = 1;\n")
    (tmp_path / "sub.php.txt").write_text("not php\n")
    (tmp_path / "linkdir").symlink_to(sub, target_is_directory=True)
    (tmp_path / "linkfile.php").symlink_to(sub / "s.php")
    (tmp_path / "dangling.php").symlink_to(tmp_path / "missing.php")

    sources = collect_sources(tmp_path)

    assert [s.rel for s in sources] == [
        "..php", "UP.PHP", "linkfile.php", "sub/deeper/d.php", "sub/s.php"]
    assert [s.file_id for s in sources] == [0, 1, 2, 3, 4]
    assert sources[2].text == "<?php $s = 1;\n"
    assert sources[3].path == tmp_path / "sub" / "deeper" / "d.php"


def test_collect_passes_over_an_unreadable_directory(tmp_path, monkeypatch):
    # Permissions do not stop a root user, so the listing itself fails.
    (tmp_path / "a.php").write_text("<?php $a = 1;\n")
    (tmp_path / "locked").mkdir()
    (tmp_path / "locked" / "b.php").write_text("<?php $b = 1;\n")
    scandir = os.scandir

    def refusing(path="."):
        if os.fspath(path).endswith("locked"):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refusing)
    assert [s.rel for s in collect_sources(tmp_path)] == ["a.php"]


# --- token stream shape -------------------------------------------------------

def test_assignment_from_superglobal_tokens():
    tokens = lex("<?php\n$a = $_GET['user'];\n")

    assert tokens == [
        LexToken("VAR", "$a", 2),
        LexToken("EQUALS", "=", 2),
        LexToken("VAR", "$_GET", 2),
        LexToken("LBRACKET", "[", 2),
        LexToken("STRING", "'user'", 2),
        LexToken("RBRACKET", "]", 2),
        LexToken("SEMI", ";", 2),
    ]


def test_single_line_statement_has_seven_tokens():
    assert len(lex("<?php $a = $_GET['user'];")) == 7


def test_comment_lines_do_not_shift_line_numbers():
    tokens = lex("<?php\n// comment\n$x = 1;\n")

    assert len(tokens) == 4
    assert {t.line for t in tokens} == {3}
    assert [t.type for t in tokens] == ["VAR", "EQUALS", "NUMBER", "SEMI"]


def test_block_and_hash_comments_are_dropped():
    tokens = lex("<?php /* a\nb */ $x = 1; # tail\n")
    assert [t.type for t in tokens] == ["VAR", "EQUALS", "NUMBER", "SEMI"]


def test_token_kind_census():
    groups = {name: len(kinds) for name, kinds in TOKEN_GROUPS.items()}

    assert groups == {
        "keywords": 18,
        "operators": 17,
        "metacharacters": 9,
        "literals": 4,
    }
    total = sum(groups.values())
    assert total == 48


def test_text_outside_php_regions_is_ignored():
    text = "<html>\n<body>\n<?php\n$a = 1;\n?>\n<p>text</p>\n<?php\necho $a;\n"
    tokens = lex(text)

    kinds = [t.type for t in tokens]
    assert "VAR" in kinds and "FUNC_CALL" in kinds
    assert tokens[0].line == 4
    assert tokens[-1].line == 8


def test_no_php_region_means_no_tokens():
    assert lex("<html><body>plain page</body></html>") == []


def test_double_quoted_string_is_one_token():
    tokens = lex('<?php $m = "a {$b} c";')
    assert [t.type for t in tokens] == ["VAR", "EQUALS", "STRING", "SEMI"]
    assert tokens[2].value == '"a {$b} c"'


def test_function_call_and_keyword_kinds():
    tokens = lex("<?php if(isset($a)) { echo $a; }")
    kinds = [t.type for t in tokens]
    assert kinds[0] == "IF"
    assert "ISSET" in kinds
    assert "FUNC_CALL" in kinds  # echo


def test_unsupported_object_syntax_rejected():
    with pytest.raises(UnsupportedSyntaxError):
        lex("<?php $a->method();")
    with pytest.raises(UnsupportedSyntaxError):
        lex("<?php class Foo {}")
    with pytest.raises(UnsupportedSyntaxError):
        lex("<?php $x = $a ?: $b;")


@pytest.mark.parametrize("word", ["endif", "endwhile", "endfor",
                                  "endforeach", "ENDSWITCH"])
def test_alternative_control_syntax_rejected(word):
    # the colon form closes its body with an end word; read as a braceless
    # body it would end after one statement and misplace the rest
    with pytest.raises(UnsupportedSyntaxError,
                       match=rf"x\.php:4: keyword '{word}' is outside"):
        lex(f"<?php\nif ($c):\n    $a = 1;\n{word};\n", path="x.php")


def test_unsupported_is_a_lex_error():
    assert issubclass(UnsupportedSyntaxError, LexError)


def test_lex_error_on_stray_character():
    with pytest.raises(LexError):
        lex("<?php $a = `whoami`;")


def test_lex_error_carries_path_and_line():
    with pytest.raises(LexError) as err:
        lex("<?php\n$a = `x`;", path="app/bad.php")
    assert "app/bad.php" in str(err.value)
    assert ":2" in str(err.value)


def test_dump_format_is_tab_separated():
    dump = dump_lextokens(lex("<?php $a = 1;"))
    lines = dump.splitlines()
    assert lines[0] == "VAR\t$a\t1"
    assert lines[-1] == "SEMI\t;\t1"


def test_lexing_time_is_linear_in_the_file_size():
    # Each bare word looks ahead for "(" from where it ends, never copying
    # the rest of the file: this one took 35 s when it did.
    lines = [f"$a{i} = FOO . bar . BAZ;" for i in range(90_000)]
    text = "<?php\n" + "\n".join(lines) + "\n"
    assert len(text) >= 2_000_000
    started = time.perf_counter()
    tokens = lex(text)
    assert time.perf_counter() - started < 8
    assert len(tokens) == 8 * len(lines)
    assert tokens[-2] == LexToken("IDENT", "BAZ", len(lines) + 1)


# --- lexer properties ---------------------------------------------------------

_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_NUMBERS = st.integers(min_value=0, max_value=99999).map(str)
_STRINGS = st.from_regex(r"[a-zA-Z0-9 _.-]{0,12}", fullmatch=True).map(
    lambda s: f"'{s}'"
)


@st.composite
def _statements(draw):
    name = draw(_NAMES)
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return f"${name} = {draw(_NUMBERS)};"
    if kind == 1:
        return f"${name} = {draw(_STRINGS)} . ${draw(_NAMES)};"
    if kind == 2:
        return f"echo ${name};"
    return f"${name} = {draw(_NAMES)}(${draw(_NAMES)}, {draw(_NUMBERS)});"


@given(st.lists(_statements(), min_size=1, max_size=8))
def test_token_values_appear_in_source_order(stmts):
    source = "<?php\n" + "\n".join(stmts) + "\n"
    tokens = lex(source)

    cursor = 0
    for tok in tokens:
        found = source.find(tok.value, cursor)
        assert found >= 0, f"token {tok} not found after offset {cursor}"
        cursor = found + len(tok.value)


@given(st.lists(_statements(), min_size=1, max_size=8))
def test_token_lines_are_nondecreasing(stmts):
    source = "<?php\n" + "\n".join(stmts) + "\n"
    tokens = lex(source)

    lines = [t.line for t in tokens]
    assert lines == sorted(lines)
    assert all(1 <= ln <= source.count("\n") + 1 for ln in lines)
