"""Command line interface: the full protocol, dumps, and exit codes."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import cca
import cca.cli
from cca import __version__
from cca.analysis import NODE_FIELDS, ORE_NODE_FIELDS
from cca.cli import main
from cca.crypto import load_keys, token_block
from cca.index import load_index, payload_struct, plain_key, save_index

from conftest import (
    HOSTILE_ENTRIES,
    HOSTILE_SLOTS,
    NODE_TABLE_DAMAGE,
    ref_columns,
    row_refs,
    set_ref,
    write_app,
)

APP = {
    "index.php": (
        "<?php $a = $_GET['user'];\n"
        '$c = "0";\n'
        "$b = $a;\n"
        "$b = $b + 1;\n"
        "echo $a;\n"
        "echo $b;\n"
    ),
}

FINDING_LINE = "XSS: sink line 5, source INPUT line 1 [index.php]"

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE_ROOT = Path(cca.__file__).resolve().parents[1]


@pytest.fixture()
def app_dir(tmp_path):
    return write_app(tmp_path / "app", APP)


def run(*argv) -> int:
    return main([str(a) for a in argv])


# --- the four protocol commands ---------------------------------------------------


def test_protocol_roundtrip(tmp_path, app_dir, capsys):
    index = tmp_path / "app.ccaidx"
    keys = tmp_path / "app.ccakeys"
    query = tmp_path / "xss.ccaq"
    report = tmp_path / "report.json"

    assert run("encrypt", "--src", app_dir, "--index", index,
               "--keys", keys) == 0
    out = capsys.readouterr().out
    assert "indexed 1 file(s), 6 entries [mode=ore]" in out
    assert index.exists() and keys.exists()

    assert run("authorise", "--keys", keys, "--task", "XSS",
               "--out", query) == 0
    assert "authorised task XSS for 1 file(s)" in capsys.readouterr().out
    assert query.exists()

    assert run("analyse", "--index", index, "--query", query,
               "--out", report) == 0
    assert "analysis complete: 1 finding(s)" in capsys.readouterr().out

    assert run("decrypt-report", "--report", report, "--keys", keys) == 0
    assert FINDING_LINE in capsys.readouterr().out


def test_analyse_accepts_no_key_material(tmp_path, app_dir, capsys):
    index = tmp_path / "i"
    keys = tmp_path / "k"
    query = tmp_path / "q"
    run("encrypt", "--src", app_dir, "--index", index, "--keys", keys)
    run("authorise", "--keys", keys, "--task", "xss", "--out", query)
    capsys.readouterr()
    code = run("analyse", "--index", index, "--query", query, "--keys", keys)
    assert code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_default_artifact_names(app_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("encrypt", "--src", app_dir) == 0
    assert (tmp_path / "app.ccaidx").exists()
    assert (tmp_path / "app.ccakeys").exists()
    assert run("authorise", "--keys", "app.ccakeys", "--task", "sqli") == 0
    assert (tmp_path / "sqli.ccaq").exists()
    capsys.readouterr()


def test_decrypted_report_file(tmp_path, app_dir, capsys):
    index, keys = tmp_path / "i", tmp_path / "k"
    query, report = tmp_path / "q", tmp_path / "r"
    resolved = tmp_path / "resolved.json"
    run("encrypt", "--src", app_dir, "--index", index, "--keys", keys)
    run("authorise", "--keys", keys, "--task", "xss", "--out", query)
    run("analyse", "--index", index, "--query", query, "--out", report)
    capsys.readouterr()
    assert run("decrypt-report", "--report", report, "--keys", keys,
               "--out", resolved) == 0
    assert f"decrypted report -> {resolved}" in capsys.readouterr().out
    data = yaml.safe_load(resolved.read_text())
    (finding,) = data["files"][0]["findings"]
    assert finding["sink"]["line"] == 5
    assert finding["source"]["token"] == "INPUT"


@pytest.mark.parametrize("flag,mode", [("--no-encryption", "plain"),
                                       ("--no-ore", "std")])
def test_reduced_modes_reach_the_same_verdict(tmp_path, app_dir, capsys,
                                              flag, mode):
    index, keys = tmp_path / "i", tmp_path / "k"
    query, report = tmp_path / "q", tmp_path / "r"
    assert run("encrypt", flag, "--src", app_dir, "--index", index,
               "--keys", keys) == 0
    assert f"[mode={mode}]" in capsys.readouterr().out
    run("authorise", "--keys", keys, "--task", "xss", "--out", query)
    run("analyse", "--index", index, "--query", query, "--out", report)
    capsys.readouterr()
    assert run("decrypt-report", "--report", report, "--keys", keys) == 0
    assert FINDING_LINE in capsys.readouterr().out


def test_no_findings_message(tmp_path, capsys):
    src = write_app(tmp_path / "clean", {"index.php": '<?php $a = "x";\n'})
    index, keys = tmp_path / "i", tmp_path / "k"
    query, report = tmp_path / "q", tmp_path / "r"
    run("encrypt", "--src", src, "--index", index, "--keys", keys)
    run("authorise", "--keys", keys, "--task", "xss", "--out", query)
    run("analyse", "--index", index, "--query", query, "--out", report)
    capsys.readouterr()
    assert run("decrypt-report", "--report", report, "--keys", keys) == 0
    assert "XSS: no vulnerable paths" in capsys.readouterr().out


# --- inspection commands -----------------------------------------------------------


def test_dump_flags_show_every_stage(tmp_path, app_dir, capsys):
    assert run("encrypt", "--src", app_dir, "--index", tmp_path / "i",
               "--keys", tmp_path / "k", "--dump-lextokens", "--dump-itl",
               "--dump-dcfg") == 0
    out = capsys.readouterr().out
    assert "# lextokens index.php" in out
    assert "VAR\t$a\t1" in out
    assert "# itl index.php" in out
    assert "(VAR0,1)(OP0,1)(INPUT,1)(END_ASSIGN,1)" in out
    assert "# dcfg index.php" in out
    assert "VAR0 -> (INPUT,1,0,0,0)" in out


def test_skipped_files_are_reported_not_fatal(tmp_path, capsys):
    src = write_app(tmp_path / "mixed", {
        "good.php": "<?php echo $_GET['x'];\n",
        "bad.php": "<?php $o->m();\n",
    })
    assert run("encrypt", "--src", src, "--index", tmp_path / "i",
               "--keys", tmp_path / "k") == 0
    captured = capsys.readouterr()
    assert "indexed 1 file(s)" in captured.out
    assert "warning: skipped bad.php" in captured.err


@pytest.mark.parametrize("command", [
    ("encrypt", "--index", "i", "--keys", "k"),
    ("oracle", "--task", "xss"),
    ("bench", "--reps", "2"),
], ids=lambda argv: argv[0])
def test_unsupported_file_is_skipped_once(tmp_path, command):
    src = write_app(tmp_path / "mixed", {
        "good.php": "<?php echo $_GET['x'];\n",
        "bad.php": "<?php class Foo {}\n",
    })
    # a child process, so the log configuration of main() applies
    done = subprocess.run(
        [sys.executable, "-m", "cca.cli", *command, "--src", str(src)],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
        timeout=120)
    assert done.returncode == 0, done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("warning: skipped bad.php: ")
    assert "bad.php" not in done.stdout


# PHP's colon syntax: echo runs only after the rewrite to "safe"
ALTERNATIVE_SYNTAX = ('<?php\n$a = $_GET["x"];\nif ($c):\n    $a = "safe";\n'
                      "    echo $a;\nendif;\n")


@pytest.mark.parametrize("command", [
    ("encrypt", "--index", "i", "--keys", "k"),
    ("oracle", "--task", "xss"),
], ids=lambda argv: argv[0])
def test_alternative_syntax_file_is_skipped_not_misanalysed(
        tmp_path, capsys, monkeypatch, command):
    src = write_app(tmp_path / "mixed", {
        "good.php": "<?php echo $_GET['x'];\n",
        "alt.php": ALTERNATIVE_SYNTAX,
    })
    monkeypatch.chdir(tmp_path)
    assert run(*command, "--src", src) == 0
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("warning: skipped alt.php: ")
    assert "keyword 'endif'" in line
    assert "alt.php" not in captured.out


def test_string_splitting_rule_decides_interpolated_flows(tmp_path, capsys):
    src = write_app(tmp_path / "app", {
        "index.php": "<?php $a = $_GET['x'];\necho \"hi $a\";\n"})
    rules = tmp_path / "rules.yaml"
    rules.write_text("split_string_interpolation: false\n")
    found = {}
    for name, extra in (("default", ()), ("unsplit", ("--rules", rules))):
        assert run("oracle", "--src", src, "--task", "xss", *extra) == 0
        report = json.loads(capsys.readouterr().out)
        found[name] = sum(len(e["findings"]) for e in report["files"])
    assert found == {"default": 1, "unsplit": 0}


def test_empty_source_tree_warns(tmp_path, capsys):
    src = tmp_path / "empty"
    src.mkdir()
    assert run("encrypt", "--src", src, "--index", tmp_path / "i",
               "--keys", tmp_path / "k") == 0
    assert "no supported source files" in capsys.readouterr().err


def test_oracle_command_prints_reference_report(app_dir, capsys):
    assert run("oracle", "--src", app_dir, "--task", "xss") == 0
    out = capsys.readouterr().out
    report = yaml.safe_load(out)
    assert out == json.dumps(report, separators=(",", ":")) + "\n"
    assert report["mode"] == "oracle"
    (entry,) = report["files"]
    assert entry["file"] == "index.php"
    (finding,) = entry["findings"]
    assert finding["sink"]["line"] == 5
    assert finding["source"]["line"] == 1


def test_stats_command(tmp_path, app_dir, capsys):
    index = tmp_path / "i"
    run("encrypt", "--src", app_dir, "--index", index, "--keys",
        tmp_path / "k")
    capsys.readouterr()
    assert run("stats", "--index", index) == 0
    out = capsys.readouterr().out
    assert "mode: ore" in out
    assert "entries: 6" in out
    # lines 1-6: one slot each
    assert "slots: 6" in out.splitlines()


@pytest.mark.parametrize("flag,width", [("", 66), ("--no-ore", 37),
                                        ("--no-encryption", 21)])
def test_stats_prints_the_record_widths(tmp_path, app_dir, capsys, flag,
                                        width):
    index = tmp_path / "i"
    run("encrypt", "--src", app_dir, "--index", index, "--keys",
        tmp_path / "k", *filter(None, [flag]))
    capsys.readouterr()
    assert run("stats", "--index", index) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "key_bytes: [16]" in lines
    assert f"value_bytes: [{width}]" in lines
    # the line width in bits, next to the slot count: in ore mode lines
    # 1-6 take one block
    at = lines.index(f"ore_width: {0 if flag else 8}")
    assert lines[at - 1] == f"slots: {0 if flag else 6}"
    # then the integer widths in bytes: every count, field (lines 1-6,
    # depth 0) and slot number of this app fits one byte
    assert lines[at + 1] == ("int_bytes: count=1 slot=1" if not flag else
                             "int_bytes: count=1 line=1 depth=1 order=1 "
                             "type=1")
    # the header (30 bytes and the widths), 6 records of 16 + width, and
    # in ore the line width byte, the slot count and 6 slots of 125 bytes
    size = 30 + (2 if not flag else 5) + 6 * (16 + width)
    if not flag:
        size += 1 + 4 + 6 * 125
    assert lines[-1] == f"container_bytes: {size}"


def test_bench_command(app_dir, capsys):
    assert run("bench", "--src", app_dir, "--reps", "1") == 0
    out = capsys.readouterr().out
    assert "benchmark over 1 file(s), 1 repetitions" in out
    assert "encryption overhead (DET+RND):" in out
    assert "encryption overhead (+ORE):" in out
    # the paper's figure is named as what it is, not as a reference for
    # the index-build overhead printed beside it
    assert "% of front end + plain index build" in out
    assert "reference average" not in out
    assert "42.7% average is the overhead of the whole confidential " \
        "analysis" in out
    assert "index size (bytes): plain=" in out


# --- exit codes ---------------------------------------------------------------------


def test_usage_error_is_exit_code_1(tmp_path, app_dir, capsys):
    keys = tmp_path / "k"
    run("encrypt", "--src", app_dir, "--index", tmp_path / "i", "--keys", keys)
    capsys.readouterr()
    assert run("authorise", "--keys", keys, "--task", "rce") == 1
    assert "usage error:" in capsys.readouterr().err
    assert run("encrypt") == 1  # missing required --src
    capsys.readouterr()


def test_unknown_task_is_rejected_before_any_work(tmp_path, app_dir, capsys,
                                                 monkeypatch):
    def no_compiling(*args, **kwargs):
        raise AssertionError("compile_sources called")

    monkeypatch.setattr(cca.cli, "compile_sources", no_compiling)
    keys = tmp_path / "k"
    errs = []
    for argv in (("authorise", "--keys", keys, "--task", "foo"),
                 ("oracle", "--src", app_dir, "--task", "foo")):
        assert run(*argv) == 1
        errs.append(capsys.readouterr().err)
    assert errs == ["usage error: unknown task 'foo'; expected one of "
                    "('xss', 'sqli')\n"] * 2


@pytest.mark.parametrize("argv", [
    ("bench", "--reps", "0"),
    ("bench", "--reps", "two"),
    # the DET hash and the ORE width are fixed by the container formats
    ("encrypt", "--det-hash", "sha1"),
    ("encrypt", "--ore-width", "32"),
    ("bench", "--det-hash", "sha1"),
    ("bench", "--ore-width", "32"),
])
def test_bad_numeric_flags_are_usage_errors(tmp_path, app_dir, capsys,
                                           monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    command, flag, value = argv
    assert run(command, "--src", app_dir, flag, value) == 1
    err = capsys.readouterr().err
    assert err.count("usage error:") == 1 and flag in err and value in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.cca*"))  # nothing was written


def test_bench_without_supported_files_is_a_usage_error(tmp_path, capsys):
    src = write_app(tmp_path / "app", {"bad.php": "<?php class Foo {}\n"})
    assert run("bench", "--src", src, "--reps", "1") == 1
    err = capsys.readouterr().err
    assert "warning: skipped bad.php" in err
    assert "usage error: no supported source files" in err


def test_missing_source_directory_is_exit_code_2(tmp_path, capsys):
    assert run("bench", "--src", tmp_path / "void") == 2
    assert "source directory not found" in capsys.readouterr().err


# case -> (rules file text, what the error says)
BAD_RULES = {
    "metacharacter_drops list": ("metacharacter_drops: [SEMI]\n",
                                 "'metacharacter_drops' is no longer"),
    "metacharacter_drops 5": ("metacharacter_drops: 5\n",
                              "'metacharacter_drops' is no longer"),
    "ending_tokens list": ("ending_tokens: [END_IF]\n",
                           "'ending_tokens' is no longer"),
    "ending_tokens swapped": (
        "ending_tokens:\n  if_end: END_ELSE\n  else_end: END_IF\n",
        "'ending_tokens' is no longer"),
    "abstract_names": ("abstract_names: {variables: V}\n",
                       "'abstract_names' is no longer"),
    "unknown key": ("variables: V\n", "unknown key 'variables'"),
    "split as a string": ('split_string_interpolation: "no"\n',
                          "'split_string_interpolation' must be true or false"),
    "split as a number": ("split_string_interpolation: 1\n",
                          "'split_string_interpolation' must be true or false"),
    "not a mapping": ("- split_string_interpolation\n", "not a mapping"),
    "not YAML": ("split_string_interpolation: [\n", "not parseable"),
    "nested too deeply": ("[" * 20000, "not parseable"),
    "not UTF-8": ("# \xff\n", "not UTF-8"),
}


@pytest.mark.parametrize("case", list(BAD_RULES))
def test_bad_rules_file_is_exit_code_2(tmp_path, app_dir, capsys,
                                       monkeypatch, case):
    text, says = BAD_RULES[case]
    monkeypatch.chdir(tmp_path)
    rules = tmp_path / "rules.yaml"
    rules.write_bytes(text.encode("latin-1"))
    assert run("encrypt", "--src", app_dir, "--rules", rules) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rules}: ") and says in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.cca*"))  # nothing was written


def test_deeply_nested_task_knowledge_is_exit_code_2(tmp_path, app_dir, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    tk = tmp_path / "tk.yaml"
    tk.write_text("[" * 20000)
    assert run("encrypt", "--src", app_dir, "--task-knowledge", tk) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tk}: not parseable")
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("*.cca*"))  # nothing was written


# A task knowledge database, section by section; each case replaces one
TASK_KNOWLEDGE = {"INPUT": "[$_GET]", "XSS_SENS": "[echo]",
                  "SQLi_SENS": "[mysql_query]",
                  "XSS_SAN": "[htmlspecialchars]",
                  "SQLi_SAN": "[mysql_real_escape_string]"}

# case -> (section, its new list or None to drop it, what the error says)
BAD_TASK_KNOWLEDGE = {
    "missing section": ("SQLi_SAN", None,
                        "missing or empty section 'SQLi_SAN'"),
    "bad name": ("XSS_SENS", "[echo, 5]", "bad name 5 under XSS_SENS"),
    "entry point without $": ("INPUT", "[_GET]",
                              "entry point '_GET' must be a variable"),
    "function name with $": (
        "XSS_SAN", "[$clean]",
        "function name '$clean' must not be a variable"),
    "name under two sections": (
        "XSS_SAN", "[ECHO]", "'echo' appears under both XSS_SENS and XSS_SAN"),
    "extra section": ("XSS_SENSE", "[printf]",
                      "unknown section 'XSS_SENSE'"),
}


@pytest.mark.parametrize("case", list(BAD_TASK_KNOWLEDGE))
def test_bad_task_knowledge_is_exit_code_2(tmp_path, app_dir, capsys,
                                          monkeypatch, case):
    section, names, says = BAD_TASK_KNOWLEDGE[case]
    monkeypatch.chdir(tmp_path)
    sections = {**TASK_KNOWLEDGE, section: names}
    tk = tmp_path / "tk.yaml"
    tk.write_text("".join(f"{token}: {value}\n"
                          for token, value in sections.items() if value))
    assert run("encrypt", "--src", app_dir, "--task-knowledge", tk) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tk}: {says}\n"
    assert not list(tmp_path.glob("*.cca*"))  # nothing was written


def test_detection_budget_is_exit_code_2_and_the_warning_survives(
        tmp_path, capsys):
    # 24 if/else diamonds make 2**24 findings, past the detection budget
    lines = ["<?php $v0 = $_GET['q'];"]
    for i in range(1, 25):
        lines += [f"if ($v{i - 1} == 'a') {{", f"$v{i} = $v{i - 1};",
                  "} else {", f"$v{i} = $v{i - 1} . 'a';", "}"]
    lines.append("echo $v24;")
    src = write_app(tmp_path / "app", {"index.php": "\n".join(lines) + "\n"})
    index, keys = tmp_path / "a.ccaidx", tmp_path / "a.ccakeys"
    query, report = tmp_path / "xss.ccaq", tmp_path / "report.json"
    assert run("encrypt", "--src", src, "--index", index, "--keys", keys,
               "--no-ore") == 0
    assert run("authorise", "--keys", keys, "--task", "xss",
               "--out", query) == 0
    capsys.readouterr()
    assert run("analyse", "--index", index, "--query", query,
               "--out", report) == 2
    captured = capsys.readouterr()
    warning = ("file 0: detection budget of 100000 exceeded; findings are "
               "incomplete")
    assert f"warning: {warning}" in captured.err
    assert "analysis incomplete:" in captured.out
    assert json.loads(report.read_text())["warnings"] == [warning]
    resolved = tmp_path / "resolved.json"
    assert run("decrypt-report", "--report", report, "--keys", keys,
               "--out", resolved) == 0
    assert f"warning: {warning}" in capsys.readouterr().err
    assert json.loads(resolved.read_text())["warnings"] == [warning]


def test_stage_failure_is_exit_code_2(tmp_path, capsys):
    mangled = tmp_path / "mangled"
    mangled.write_bytes(b"not an index container")
    assert run("stats", "--index", mangled) == 2
    assert "error:" in capsys.readouterr().err


def _first_finding(report: dict) -> list:
    return report["files"][0]["findings"][0]


def _edit_report(change):
    def damage(paths):
        report = json.loads(paths["report"].read_text())
        change(report)
        paths["report"].write_text(json.dumps(report))
    return damage


class _NodeView:
    """A report node's fields by name, written through to its table row;
    a field that is an index reads the string it names (`row_refs`) and
    is written as a new one: a block of its file's tokens or scopes, or
    an ore line name of the report."""

    def __init__(self, report: dict) -> None:
        self.report = report
        self.entry = report["files"][0]
        self.row = self.entry["nodes"][_first_finding(report)[0]]
        self.refs = ref_columns(report)
        self.fields = ORE_NODE_FIELDS if report["mode"] == "ore" else NODE_FIELDS

    def __getitem__(self, field: str):
        k = self.fields.index(field)
        if field in self.refs:
            return row_refs(self.report, self.entry, self.row)[k]
        return self.row[k]

    def update(self, **fields) -> None:
        for field, value in fields.items():
            k = self.fields.index(field)
            if field in self.refs and field == "line":
                self.row[k] = len(self.report["lines"])
                self.report["lines"].append(value)
            elif field in self.refs:
                set_ref(self.entry, self.row, k, value)
            else:
                self.row[k] = value


def _sink(report: dict) -> _NodeView:
    """File 0's first sink row."""
    return _NodeView(report)


def _edit_sink_scope_tag(change):
    """Edit the scope tag of an ore report's first sink row."""
    def edit(report: dict) -> None:
        _sink(report).update(scope=change(_sink(report)["scope"]))
    return _edit_report(edit)


# file 0's first XSS_SENS entry in a plain index
PLAIN_SINK_KEY = plain_key(token_block(0, "XSS_SENS"), 1)


def _set_sink_value(right: bytes):
    """Damage: the first sink entry of a plain index names right, with no
    entries, line 5 and scope (0, 0, 0)."""
    def damage(paths):
        index = load_index(paths["index"])
        index.table[PLAIN_SINK_KEY] = payload_struct(
            "plain", index.widths).pack(right, 0, 5, 0, 0, 0)
        save_index(paths["index"], index)
    return damage


def _block(code: int, number: int, check: bytes = bytes(7)) -> bytes:
    """An identity block of file 0: u32 file id, family code, u32 number
    and the check bytes, as `crypto.token_block` packs one."""
    return struct.pack(">IBI7s", 0, code, number, check)


def _damage_index(damage):
    def apply(paths):
        index = load_index(paths["index"])
        damage(index, load_keys(paths["keys"]))
        save_index(paths["index"], index)
    return apply


def _resize_query_field(k: int, n: int):
    """Damage: field k of the query's first file (0 the sink S, 1 the
    entry-point identity) as n bytes.  The 16-byte fields follow a header
    and file count of 15 bytes and the file's u32 id."""
    def damage(paths):
        data = paths["query"].read_bytes()
        at = 15 + 4 + 16 * k
        field = (data[at:at + 16] * 2)[:n]
        paths["query"].write_bytes(data[:at] + field + data[at + 16:])
    return damage


def _replace_bytes(name: str, old: bytes, new: bytes):
    def damage(paths):
        data = paths[name].read_bytes()
        assert old in data
        paths[name].write_bytes(data.replace(old, new, 1))
    return damage


def _set_byte(name: str, offset: int, value: int):
    def damage(paths):
        data = bytearray(paths[name].read_bytes())
        data[offset] = value
        paths[name].write_bytes(bytes(data))
    return damage


def _set_ore_width_byte(blocks: int):
    """Damage: an ore container's line width byte, after its entries: a
    header of 30 bytes and 2 integer widths, and records of 16 + 66 bytes
    at one byte per integer."""
    def damage(paths):
        (count,) = struct.unpack_from(">I", paths["index"].read_bytes(), 28)
        _set_byte("index", 32 + count * (16 + 66), blocks)(paths)
    return damage


# The integer width bytes follow the 16-byte salt at byte 26, in the
# order of cca.index.NARROWED: count, line, depth, order, type in plain
# and std, count, slot in ore
WIDTH_AT = {name: 26 + i for i, name in enumerate(
    ("count", "line", "depth", "order", "type"))} | {"slot": 27}
# (mode, encrypt flag, integer, width byte) -> what the error names
BAD_WIDTHS = {
    ("std", "--no-ore", "count", 0): "count width 0, not 1 or 2 bytes",
    ("std", "--no-ore", "count", 4): "count width 4, not 1 or 2 bytes",
    ("std", "--no-ore", "line", 3): "line width 3, not 1, 2 or 4 bytes",
    ("std", "--no-ore", "type", 5): "type width 5, not 1, 2 or 4 bytes",
    ("plain", "--no-encryption", "depth", 0):
        "depth width 0, not 1, 2 or 4 bytes",
    ("ore", "", "count", 3): "count width 3, not 1 or 2 bytes",
    ("ore", "", "slot", 0): "slot width 0, not 1, 2 or 4 bytes",
    ("ore", "", "slot", 3): "slot width 3, not 1, 2 or 4 bytes",
    ("ore", "", "slot", 5): "slot width 5, not 1, 2 or 4 bytes",
}


COMMANDS = {
    "authorise": lambda p: ("authorise", "--keys", p["keys"], "--task", "xss",
                            "--out", p["query"]),
    "analyse": lambda p: ("analyse", "--index", p["index"], "--query",
                          p["query"], "--out", p["report"]),
    "decrypt-report": lambda p: ("decrypt-report", "--report", p["report"],
                                 "--keys", p["keys"]),
    "stats": lambda p: ("stats", "--index", p["index"]),
}

# case -> (encrypt flag, "" for ore mode; damage to the artifacts; command
# that reads them)
MALFORMED = {
    "report files is a number": (
        "--no-ore", _edit_report(lambda r: r.update(files=3)),
        "decrypt-report"),
    "report field ore:zz": (
        "", _edit_report(lambda r: _sink(r).update(line="ore:zz")),
        "decrypt-report"),
    "report line is a list": (
        "--no-ore", _edit_report(lambda r: _sink(r).update(line=[1])),
        "decrypt-report"),
    "report is not JSON": (
        "--no-ore", lambda p: p["report"].write_text("files: []\ntask: xss\n"),
        "decrypt-report"),
    "report mode differs from the key store": (
        "--no-ore", _set_byte("keys", 9, 0), "decrypt-report"),
    # VAR1 with a check byte set, family code 8, and INPUT numbered 1
    "plain value with non-zero check bytes": (
        "--no-encryption", _set_sink_value(_block(6, 1, bytes(6) + b"\x01")),
        "analyse"),
    "plain value with an unknown family code": (
        "--no-encryption", _set_sink_value(_block(8, 1)), "analyse"),
    "plain value with a numbered fixed name": (
        "--no-encryption", _set_sink_value(_block(0, 1)), "analyse"),
    "query entry-point identity truncated to 7 bytes": (
        "--no-ore", _resize_query_field(1, 7), "analyse"),
    "key store text not UTF-8": (
        "--no-ore", _replace_bytes("keys", b"index.php", b"\xffndex.php"),
        "authorise"),
    "index repeats a lookup key": (
        "--no-encryption", _replace_bytes(
            "index", plain_key(token_block(0, "XSS_SENS"), 2), PLAIN_SINK_KEY),
        "analyse"),
    "index repeats a lookup key (stats)": (
        "--no-encryption", _replace_bytes(
            "index", plain_key(token_block(0, "XSS_SENS"), 2), PLAIN_SINK_KEY),
        "stats"),
    "ore index of version 2": ("", _set_byte("index", 8, 2), "analyse"),
    "ore index of version 3": ("", _set_byte("index", 8, 3), "analyse"),
    "ore index of version 4": ("", _set_byte("index", 8, 4), "analyse"),
    "key store of version 3": ("--no-ore", _set_byte("keys", 8, 3), "authorise"),
    "key store of version 4": ("--no-ore", _set_byte("keys", 8, 4), "authorise"),
    "query of version 1": ("--no-ore", _set_byte("query", 8, 1), "analyse"),
    "ore index of version 5": ("", _set_byte("index", 8, 5), "analyse"),
    "query of version 2": ("--no-ore", _set_byte("query", 8, 2), "analyse"),
    "ore index of version 7": ("", _set_byte("index", 8, 7), "analyse"),
    "ore index of version 8": ("", _set_byte("index", 8, 8), "analyse"),
    "ore index of version 8 (stats)": ("", _set_byte("index", 8, 8), "stats"),
    "key store of version 6": ("", _set_byte("keys", 8, 6), "decrypt-report"),
    "query of version 3": ("", _set_byte("query", 8, 3), "analyse"),
    "query with a 32-byte sink secret": (
        "--no-ore", _resize_query_field(0, 32), "analyse"),
    "ore index of version 9": ("", _set_byte("index", 8, 9), "analyse"),
    "ore index of version 9 (stats)": ("", _set_byte("index", 8, 9), "stats"),
    "query of version 4": ("", _set_byte("query", 8, 4), "analyse"),
    "key store of version 7": ("", _set_byte("keys", 8, 7), "decrypt-report"),
    "ore index of version 10": ("", _set_byte("index", 8, 10), "analyse"),
    "ore index of version 11": ("", _set_byte("index", 8, 11), "analyse"),
    "ore index with line width byte 0": (
        "", _set_ore_width_byte(0), "analyse"),
    "ore index with line width byte 5": (
        "", _set_ore_width_byte(5), "analyse"),
    "ore index with line width byte 5 (stats)": (
        "", _set_ore_width_byte(5), "stats"),
    "ore index of version 12": ("", _set_byte("index", 8, 12), "analyse"),
    "std index of version 12 (stats)": (
        "--no-ore", _set_byte("index", 8, 12), "stats"),
    **{f"{mode} index with {name} width byte {size}": (
        flag, _set_byte("index", WIDTH_AT[name], size), "analyse")
       for mode, flag, name, size in BAD_WIDTHS},
    "ore index with slot width byte 5 (stats)": (
        "", _set_byte("index", WIDTH_AT["slot"], 5), "stats"),
    # a name is n slot bytes and 8 check bytes, for n of 1 to 4
    "report ore name of 8 bytes": (
        "", _edit_report(lambda r: _sink(r).update(line="ab" * 8)),
        "decrypt-report"),
    "report ore name of 13 bytes": (
        "", _edit_report(lambda r: _sink(r).update(line="ab" * 13)),
        "decrypt-report"),
    **{f"{mode} index with {case}": (flag, _damage_index(damage), "analyse")
       for case, (damage, _, _) in HOSTILE_ENTRIES.items()
       for mode, flag in (("ore", ""), ("std", "--no-ore"))},
    "report token of 64 hex digits": (
        "", _edit_report(lambda r: _sink(r).update(token=_sink(r)["token"] * 2)),
        "decrypt-report"),
    # how plain reports named tokens before query version 6
    "plain report token in text": (
        "--no-encryption", _edit_report(
            lambda r: _sink(r).update(token="0:XSS_SENS")), "decrypt-report"),
    "query of version 5": ("--no-encryption", _set_byte("query", 8, 5),
                           "analyse"),
    "report file id outside the key store": (
        "--no-ore", _edit_report(lambda r: r["files"][0].update(file=99)),
        "decrypt-report"),
    "report of version 1": (
        "", _edit_report(lambda r: r.update(version=1)), "decrypt-report"),
    "report without a version": (
        "--no-ore", _edit_report(lambda r: r.pop("version")),
        "decrypt-report"),
    "ore report row of five columns": (
        "", _edit_report(lambda r: _sink(r).row.extend(_sink(r).row[1:3])),
        "decrypt-report"),
    "report scope tag in upper case": (
        "", _edit_sink_scope_tag(lambda tag: tag[:-1] + "F"), "decrypt-report"),
    "report scope tag under other keys": (
        "", _edit_sink_scope_tag(lambda tag: tag[:-1] + "01"[tag[-1] == "0"]),
        "decrypt-report"),
    **{f"ore index with a {case}": ("", _damage_index(damage), "analyse")
       for case, (damage, _, _) in HOSTILE_SLOTS.items()},
    # replaces the HOSTILE_SLOTS case of this name: a container of
    # fixed-width slots cannot hold one of another length, and one byte
    # short it is a truncated container
    "ore index with a slot of the wrong length": (
        "", lambda p: p["index"].write_bytes(p["index"].read_bytes()[:-1]),
        "analyse"),
    **{f"report {case}": ("--no-ore", _edit_report(edit), "decrypt-report")
       for case, (edit, _) in NODE_TABLE_DAMAGE.items()},
}
# case -> what its one error line must say, where more than the prefix counts
MALFORMED_SAYS = {"index repeats a lookup key": "repeated lookup key",
                  "plain value with non-zero check bytes": "names no token",
                  "plain value with an unknown family code": "names no token",
                  "plain value with a numbered fixed name": "names no token",
                  "index repeats a lookup key (stats)": "repeated lookup key",
                  "ore index of version 2": "unsupported version 2",
                  "ore index of version 3": "unsupported version 3",
                  "ore index of version 4": "unsupported version 4",
                  "key store of version 3": "unsupported version 3",
                  "key store of version 4": "unsupported version 4",
                  "query of version 1": "unsupported version 1",
                  "ore index of version 5": "unsupported version 5",
                  "query of version 2": "unsupported version 2",
                  "ore index of version 7": "unsupported version 7",
                  "ore index of version 8": "unsupported version 8",
                  "ore index of version 8 (stats)": "unsupported version 8",
                  "key store of version 6": "unsupported version 6",
                  "query of version 3": "unsupported version 3",
                  # fields are fixed-width: the file is long or short
                  "query with a 32-byte sink secret":
                      "trailing bytes after the last field",
                  "query entry-point identity truncated to 7 bytes":
                      "query: truncated",
                  "ore index of version 9": "unsupported version 9",
                  "ore index of version 9 (stats)": "unsupported version 9",
                  "query of version 4": "unsupported version 4",
                  "key store of version 7": "unsupported version 7",
                  "ore index of version 10": "unsupported version 10",
                  "ore index of version 11": "unsupported version 11",
                  "ore index with line width byte 0":
                      "ORE lines of 0 blocks, not 1 to 4",
                  "ore index with line width byte 5":
                      "ORE lines of 5 blocks, not 1 to 4",
                  "ore index with line width byte 5 (stats)":
                      "ORE lines of 5 blocks, not 1 to 4",
                  "ore index of version 12": "unsupported version 12",
                  "std index of version 12 (stats)": "unsupported version 12",
                  **{f"{mode} index with {name} width byte {size}": says
                     for (mode, _, name, size), says in BAD_WIDTHS.items()},
                  "ore index with slot width byte 5 (stats)":
                      "slot width 5, not 1, 2 or 4 bytes",
                  "report ore name of 8 bytes": "is not an ore name",
                  "report ore name of 13 bytes": "is not an ore name",
                  **{f"{mode} index with {case}": says
                     for case, (_, _, says) in HOSTILE_ENTRIES.items()
                     for mode in ("ore", "std")},
                  "report token of 64 hex digits": "32 lowercase hex digits",
                  "plain report token in text": "32 lowercase hex digits",
                  "report of version 1": "report of version 1: this cca "
                                         "reads report version 3 only",
                  "report without a version": "report of version None",
                  "query of version 5": "unsupported version 5",
                  "report file id outside the key store": "file 99",
                  "ore report row of five columns":
                      "a node is not a list of token, line, scope",
                  "report scope tag in upper case": "32 lowercase hex digits",
                  "report scope tag under other keys":
                      "scope tag does not decrypt under this key store",
                  **{f"report {case}": says
                     for case, (_, says) in NODE_TABLE_DAMAGE.items()},
                  **{f"ore index with a {case}": says
                     for case, (_, _, says) in HOSTILE_SLOTS.items()},
                  "ore index with a slot of the wrong length": "truncated"}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_artifact_is_exit_code_2(tmp_path, app_dir, capsys, case):
    flag, damage, command = MALFORMED[case]
    paths = {name: tmp_path / name for name in ("index", "keys", "query",
                                                "report")}
    assert run("encrypt", "--src", app_dir, "--index", paths["index"],
               "--keys", paths["keys"], *filter(None, [flag])) == 0
    for step in ("authorise", "analyse"):
        assert run(*COMMANDS[step](paths)) == 0
    damage(paths)
    capsys.readouterr()
    assert run(*COMMANDS[command](paths)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("error:") == 1 and MALFORMED_SAYS.get(case, "") in err


def test_deeply_nested_report_is_exit_code_2(tmp_path, app_dir):
    keys = tmp_path / "k"
    assert run("encrypt", "--src", app_dir, "--index", tmp_path / "i",
               "--keys", keys) == 0
    report = tmp_path / "deep.json"
    report.write_text("[" * 30000 + "]" * 30000)
    # a child process, so a crash in the report parser cannot end the run
    done = subprocess.run(
        [sys.executable, "-m", "cca.cli", "decrypt-report", "--report",
         str(report), "--keys", str(keys)],
        capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


def test_missing_file_is_exit_code_2(tmp_path, capsys):
    assert run("stats", "--index", tmp_path / "absent") == 2
    assert "error:" in capsys.readouterr().err


# command -> its argv, writing to `target`, from the artifacts of paths
WRITES = {
    "encrypt --index": lambda p, target: (
        "encrypt", "--src", p["app"], "--index", target, "--keys", p["keys"]),
    "analyse --out": lambda p, target: (
        *COMMANDS["analyse"](p)[:-1], target),
    "decrypt-report --out": lambda p, target: (
        *COMMANDS["decrypt-report"](p), "--out", target),
}


@pytest.mark.parametrize("command", list(WRITES))
def test_writing_into_a_missing_directory_names_the_path(tmp_path, app_dir,
                                                        capsys, command):
    paths = {name: tmp_path / name for name in ("index", "keys", "query",
                                                "report")} | {"app": app_dir}
    assert run(*WRITES["encrypt --index"](paths, paths["index"])) == 0
    for step in ("authorise", "analyse"):
        assert run(*COMMANDS[step](paths)) == 0
    capsys.readouterr()
    target = tmp_path / "nodir" / "out.json"
    assert run(*WRITES[command](paths, target)) == 2
    # the path given, not the temp file the write went through
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{target}'\n")
    assert not list(tmp_path.rglob("*.tmp"))


def test_policy_denial_is_exit_code_3(tmp_path, app_dir, capsys):
    keys = tmp_path / "k"
    policy = tmp_path / "policy.txt"
    policy.write_text("allow sqli\n")
    run("encrypt", "--src", app_dir, "--index", tmp_path / "i", "--keys", keys)
    capsys.readouterr()
    assert run("authorise", "--keys", keys, "--task", "xss",
               "--policy", policy) == 3
    assert "authorization denied:" in capsys.readouterr().err


def test_policy_naming_an_unknown_task_is_exit_code_1(tmp_path, app_dir,
                                                      capsys):
    keys = tmp_path / "k"
    policy = tmp_path / "policy.txt"
    policy.write_text("allow rce\n")
    run("encrypt", "--src", app_dir, "--index", tmp_path / "i", "--keys", keys)
    capsys.readouterr()
    assert run("authorise", "--keys", keys, "--task", "xss",
               "--policy", policy) == 1
    # the line's place, then the message --task gives, with the tasks
    assert capsys.readouterr().err == (
        f"usage error: {policy}:1: unknown task 'rce'; expected one of "
        "('xss', 'sqli')\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


# --- declared entry point -----------------------------------------------------------

# What the launcher that `pip install` writes for a console script does.
LAUNCHER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "sys.argv[0] = 'cca'\n"
    "sys.exit(EntryPoint('cca', {spec!r}, 'console_scripts').load()())\n"
)


def child_env() -> dict[str, str]:
    """Environment in which a child interpreter imports this `cca`, from any cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return env


def test_console_script_runs_the_protocol(tmp_path, app_dir):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["cca"]
    launcher = LAUNCHER.format(spec=spec)
    env = child_env()

    def cca(*argv):
        return subprocess.run([sys.executable, "-c", launcher,
                               *map(str, argv)], capture_output=True,
                              text=True, cwd=tmp_path, env=env, timeout=120)

    done = cca("encrypt", "--src", app_dir, "--index", "i", "--keys", "k")
    assert done.returncode == 0, done.stderr
    done = cca("authorise", "--keys", "k", "--task", "xss", "--out", "q")
    assert done.returncode == 0, done.stderr
    done = cca("analyse", "--index", "i", "--query", "q", "--out", "r")
    assert done.returncode == 0, done.stderr
    done = cca("decrypt-report", "--report", "r", "--keys", "k")
    assert done.returncode == 0, done.stderr
    assert FINDING_LINE in done.stdout


def test_module_invocation_matches_version(tmp_path):
    done = subprocess.run([sys.executable, "-m", "cca.cli", "--version"],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=child_env(), timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == __version__


def test_each_report_warning_is_printed_once(tmp_path, app_dir):
    # A child process, so that the CLI's own logging set-up is live.
    def cca(*argv):
        return subprocess.run([sys.executable, "-m", "cca.cli",
                               *map(str, argv)], capture_output=True,
                              text=True, cwd=tmp_path, env=child_env(),
                              timeout=120)

    for argv in (("encrypt", "--src", app_dir, "--index", "i", "--keys", "k"),
                 ("authorise", "--keys", "k", "--task", "sqli", "--out", "q")):
        done = cca(*argv)
        assert done.returncode == 0, done.stderr
    warning = "no sensitive entries answered any probe"
    for verbose in ((), ("-v",)):
        done = cca(*verbose, "analyse", "--index", "i", "--query", "q",
                   "--out", "r")
        assert done.returncode == 0, done.stderr
        assert done.stderr.count(warning) == 1, done.stderr
    done = cca("decrypt-report", "--report", "r", "--keys", "k")
    assert done.returncode == 0, done.stderr
    assert done.stderr.count(warning) == 1, done.stderr
    assert "SQLi: no vulnerable paths" in done.stdout
