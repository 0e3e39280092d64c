"""Command line interface: the full protocol, dumps, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import cca
from cca import __version__
from cca.analysis import load_query, save_query
from cca.cli import main
from cca.index import load_index, save_index

from conftest import write_app

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


def test_bench_command(app_dir, capsys):
    assert run("bench", "--src", app_dir, "--reps", "1") == 0
    out = capsys.readouterr().out
    assert "benchmark over 1 file(s), 1 repetitions" in out
    assert "encryption overhead (DET+RND):" in out
    assert "encryption overhead (+ORE):" in out
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


def _first_finding(report: dict) -> dict:
    return report["files"][0]["findings"][0]


def _edit_report(change):
    def damage(paths):
        report = json.loads(paths["report"].read_text())
        change(report)
        paths["report"].write_text(json.dumps(report))
    return damage


def _sink(report: dict) -> dict:
    return _first_finding(report)["path"][0]


def _set_sink_value(value: bytes):
    def damage(paths):
        index = load_index(paths["index"])
        entry = next(e for e in index.entries if e.key == b"0:XSS_SENS#1")
        entry.value = value
        save_index(paths["index"], index)
    return damage


def _truncate_query_r_key(n: int):
    def damage(paths):
        query = load_query(paths["query"])
        d_key, r_key = query.files[0].sens
        query.files[0].sens = (d_key, r_key[:n])
        save_query(paths["query"], query)
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


COMMANDS = {
    "authorise": lambda p: ("authorise", "--keys", p["keys"], "--task", "xss",
                            "--out", p["query"]),
    "analyse": lambda p: ("analyse", "--index", p["index"], "--query",
                          p["query"], "--out", p["report"]),
    "decrypt-report": lambda p: ("decrypt-report", "--report", p["report"],
                                 "--keys", p["keys"]),
}

# case -> (encrypt flag, "" for ore mode; damage to the artifacts; command
# that reads them)
MALFORMED = {
    "report finding without sink": (
        "--no-ore", _edit_report(lambda r: _first_finding(r).update(path=[])),
        "decrypt-report"),
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
    "plain value with too few fields": (
        "--no-encryption", _set_sink_value(b"0:VAR1|5"), "analyse"),
    "plain value with a non-integer field": (
        "--no-encryption", _set_sink_value(b"0:VAR1|5|x|0|0"), "analyse"),
    "plain query text not UTF-8": (
        "--no-encryption", _replace_bytes("query", b"0:XSS_SENS", b"\xff:XSS_SENS"),
        "analyse"),
    "query R key truncated to 7 bytes": (
        "--no-ore", _truncate_query_r_key(7), "analyse"),
    "key store text not UTF-8": (
        "--no-ore", _replace_bytes("keys", b"index.php", b"\xffndex.php"),
        "authorise"),
    "ore index of version 2": ("", _set_byte("index", 8, 2), "analyse"),
    "ore index of version 3": ("", _set_byte("index", 8, 3), "analyse"),
    "key store of version 3": ("--no-ore", _set_byte("keys", 8, 3), "authorise"),
    "key store of version 4": ("--no-ore", _set_byte("keys", 8, 4), "authorise"),
    "query of version 1": ("--no-ore", _set_byte("query", 8, 1), "analyse"),
    "report file id outside the key store": (
        "--no-ore", _edit_report(lambda r: r["files"][0].update(file=99)),
        "decrypt-report"),
}
# case -> what its one error line must say, where more than the prefix counts
MALFORMED_SAYS = {"ore index of version 2": "unsupported version 2",
                  "ore index of version 3": "unsupported version 3",
                  "key store of version 3": "unsupported version 3",
                  "key store of version 4": "unsupported version 4",
                  "query of version 1": "unsupported version 1",
                  "report file id outside the key store": "file 99"}


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


def test_policy_denial_is_exit_code_3(tmp_path, app_dir, capsys):
    keys = tmp_path / "k"
    policy = tmp_path / "policy.txt"
    policy.write_text("allow sqli\n")
    run("encrypt", "--src", app_dir, "--index", tmp_path / "i", "--keys", keys)
    capsys.readouterr()
    assert run("authorise", "--keys", keys, "--task", "xss",
               "--policy", policy) == 3
    assert "authorization denied:" in capsys.readouterr().err


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
