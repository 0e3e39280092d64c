"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from corpus import CORPUS  # noqa: E402

try:
    from hypothesis import settings

    settings.register_profile("suite", deadline=None, max_examples=60)
    settings.load_profile("suite")
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass


# --- acceptance criterion reporting -------------------------------------------

_CRITERION_LINES: list[str] = []


def record_criterion(number: int, passed: bool, note: str = "") -> None:
    """Record one acceptance-criterion verdict for the terminal summary."""
    line = f"[criterion {number}] {'PASS' if passed else 'FAIL'}"
    if note:
        line += f" - {note}"
    _CRITERION_LINES.append(line)
    print(line, file=sys.stderr)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)


# --- helpers -------------------------------------------------------------------

def write_app(root: Path, files: dict[str, str]) -> Path:
    """Materialize an application's files below root and return root."""
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return root


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


def flatten_findings(report: dict) -> set[tuple]:
    """(file, sink line, source line) triples of a resolved report."""
    out = set()
    for entry in report["files"]:
        for finding in entry["findings"]:
            out.add((entry["file"], finding["sink"]["line"],
                     finding["source"]["line"]))
    return out


def finding_paths(report: dict) -> set[tuple]:
    """Full node paths of a resolved report, for exact comparisons."""
    out = set()
    for entry in report["files"]:
        for finding in entry["findings"]:
            path = tuple(
                (n["token"], n["line"], n["depth"], n["order"], n["type"])
                for n in finding["path"]
            )
            out.add((entry["file"], path))
    return out


def _sink_secret(keys) -> bytes:
    from cca.crypto import derive_secrets, token_block

    (secret,) = derive_secrets(keys.master, token_block(0, "XSS_SENS"))
    return secret


def reseal_sink_entry(index, keys, edit) -> bytes:
    """Re-seal file 0's first XSS_SENS entry of a std or ore index, with
    its payload replaced by edit(payload).  Returns the payload it held
    before."""
    from cca.crypto import (
        counter_nonce,
        derive_value_key,
        det_encrypt,
        rnd_decrypt,
        value_sealer,
    )

    secret = _sink_secret(keys)
    value_key = derive_value_key(secret, index.salt)
    probe = det_encrypt(secret, (1).to_bytes(4, "big"))
    payload = rnd_decrypt(value_key, counter_nonce(1) + index.table[probe])
    index.table[probe] = value_sealer(value_key)(1, edit(payload))
    return payload


def reseal_sink_line_slot(index, keys, edit) -> tuple[int, bytes]:
    """Re-seal file 0's first XSS_SENS entry of an ore index, with the
    (slot number, slot key) of its line field replaced by edit(number,
    key).  Returns the number and key it named before."""
    from cca.index import payload_struct

    # right, count, slot number, slot key, scope tag
    fields = payload_struct(index.mode, index.widths)

    def reref(payload: bytes) -> bytes:
        right, count, number, key, tag = fields.unpack(payload)
        return fields.pack(right, count, *edit(number, key), tag)

    return tuple(fields.unpack(reseal_sink_entry(index, keys, reref))[2:4])


def _slot_past_the_end(index, keys):
    reseal_sink_line_slot(index, keys, lambda n, k: (len(index.slots), k))


def _flipped_slot_key(index, keys):
    reseal_sink_line_slot(index, keys,
                          lambda n, k: (n, bytes([k[0] ^ 1]) + k[1:]))


def _flipped_slot_byte(index, keys):
    number, _ = reseal_sink_line_slot(index, keys, lambda n, k: (n, k))
    slot = bytearray(index.slots[number])
    slot[20] ^= 1
    index.slots[number] = bytes(slot)


def _short_slot(index, keys):
    from cca.crypto import rnd_decrypt, rnd_encrypt

    number, key = reseal_sink_line_slot(index, keys, lambda n, k: (n, k))
    ct = rnd_decrypt(key, index.slots[number])
    index.slots[number] = rnd_encrypt(key, ct[:-1])


# case -> (damage(index, keys) to an ore index whose file 0 has an XSS
# sink, the cca.errors class analysing it raises, what its message says)
HOSTILE_SLOTS = {
    "slot number past the table": (_slot_past_the_end, "FormatError",
                                   "past the end"),
    "flipped slot key byte": (_flipped_slot_key, "IntegrityError", "tag"),
    "flipped slot byte": (_flipped_slot_byte, "IntegrityError", "tag"),
    # a 97-byte ciphertext of one block, one byte short
    "slot of the wrong length": (_short_slot, "FormatError", "holds 96 bytes"),
}


def _set_sink_right_count(count):
    """Damage: file 0's first sink entry gives its right token count(n)
    entries, where it has n."""
    def damage(index, keys):
        from cca.index import payload_struct

        fields = payload_struct(index.mode, index.widths)

        def recount(payload: bytes) -> bytes:
            right, n, *rest = fields.unpack(payload)
            return fields.pack(right, count(n, len(index)), *rest)

        reseal_sink_entry(index, keys, recount)
    return damage


def _right_entry_deleted(index, keys):
    """Damage: the first entry of the right token of file 0's first sink
    entry is gone from the table."""
    from cca.crypto import det_encrypt
    from cca.index import payload_struct

    payload = reseal_sink_entry(index, keys, lambda p: p)
    right, count, *_ = payload_struct(index.mode, index.widths).unpack(payload)
    assert count > 0
    del index.table[det_encrypt(right, (1).to_bytes(4, "big"))]


def _sink_entries_swapped(index, keys):
    """Damage: file 0's first two sink entries trade places, each value
    under the other's counter."""
    from cca.crypto import det_encrypt

    secret = _sink_secret(keys)
    one, two = (det_encrypt(secret, c.to_bytes(4, "big")) for c in (1, 2))
    index.table[one], index.table[two] = index.table[two], index.table[one]


# case -> (damage(index, keys) to a std or ore index whose file 0 has an
# XSS sink of at least two entries, the first naming a token with
# entries, the cca.errors class analysing it raises, what its message says)
HOSTILE_ENTRIES = {
    "count past the index": (
        _set_sink_right_count(lambda n, size: size + 1), "FormatError",
        "more than the index's"),
    "count one past the entries": (
        _set_sink_right_count(lambda n, size: n + 1), "FormatError",
        "is missing"),
    "entry missing below its count": (_right_entry_deleted, "FormatError",
                                      "entry 1 of a token of"),
    "two values swap counters": (_sink_entries_swapped, "IntegrityError",
                                 "tag"),
}


def _file0(report: dict) -> dict:
    return report["files"][0]


def _old_format(report: dict) -> None:
    """Rewrite the report in the layout of version 1, as older versions
    wrote it: no version, and each row with its strings written out in
    place of indices, an ore line name prefixed with "ore:" (the entry
    point, which later versions leave out, as 32 zeros)."""
    for entry in report["files"]:
        for row in entry["nodes"]:
            refs = row_refs(report, entry, row)
            row[:len(refs)] = [("ore:" if k == 1 else "") + (ref or "0" * 32)
                               for k, ref in enumerate(refs)]
        del entry["tokens"]
        entry.pop("scopes", None)
    del report["version"]
    report.pop("lines", None)


def ref_columns(report: dict) -> tuple[str, ...]:
    """The columns of a report's rows that are indices of strings."""
    return ("token", "line", "scope") if report["mode"] == "ore" else ("token",)


def _block(text: str, k: int) -> str:
    """Block k of a hex string of 16-byte blocks."""
    return text[32 * k:32 * k + 32]


def row_refs(report: dict, entry: dict, row: list) -> list:
    """The strings a row names: its token's block (None for token 0, the
    entry point), and in ore mode its line name and scope tag."""
    refs = [_block(entry["tokens"], row[0] - 1) if row[0] else None]
    if report["mode"] == "ore":
        refs += [report["lines"][row[1]], _block(entry["scopes"], row[2])]
    return refs


def set_ref(entry: dict, row: list, column: int, text) -> None:
    """Point a row's column, 0 its token or 2 its ore scope tag, at text,
    appended as a new block of its file's tokens or scopes."""
    key = "scopes" if column else "tokens"
    row[column] = len(entry[key]) // 32 + (key == "tokens")
    entry[key] += text


def _first_ref(report: dict) -> str:
    """The block of file 0's first row's token, the sink: block 1."""
    assert _file0(report)["nodes"][0][0] == 1
    return _block(_file0(report)["tokens"], 0)


def _token_index(index):
    """Edit: file 0's first row names ref index(report) for its token."""
    def edit(report: dict) -> None:
        _file0(report)["nodes"][0][0] = index(report)
    return edit


def _row_of_the_other_shape(report: dict) -> None:
    """Give file 0's first row the other shape: five columns in an ore
    report, as older versions wrote it, and three in a plain or std one."""
    row = _file0(report)["nodes"][0]
    row[1:] = [row[1]] * (4 if report["mode"] == "ore" else 2)


def _last_field_cut_to_31_characters(report: dict) -> None:
    """File 0's first row with its last field, the ref index of the scope
    tag of an ore report or the type of a plain or std one, as 31
    characters of text."""
    row = _file0(report)["nodes"][0]
    row[-1] = str(row[-1]).rjust(31, "0")[:31]


# case -> (edit to an analyser report whose file 0 has a finding, what
# the FormatError that decrypting it raises says in every mode)
NODE_TABLE_DAMAGE = {
    "finding index past the table": (
        lambda r: _file0(r)["findings"][0].append(len(_file0(r)["nodes"])),
        "not an index into the file's"),
    "negative finding index": (
        lambda r: _file0(r)["findings"][0].append(-1),
        "finding names node -1"),
    "bool finding index": (
        lambda r: _file0(r)["findings"][0].append(True),
        "finding names node True"),
    "float finding index": (
        lambda r: _file0(r)["findings"][0].append(0.0),
        "finding names node 0.0"),
    "finding without sink": (lambda r: _file0(r)["findings"][0].clear(),
                             "empty finding"),
    "node of four fields": (lambda r: _file0(r)["nodes"][0].pop(),
                            "a node is not a list of token, line, "),
    "node of six fields": (lambda r: _file0(r)["nodes"][0].append(0),
                           "a node is not a list of token, line, "),
    "node as an object": (
        lambda r: _file0(r)["nodes"].append({"token": "INPUT"}),
        "a node is not a list of token, line, "),
    "node shaped for the other mode": (_row_of_the_other_shape,
                                       "a node is not a list of token, line, "),
    "last node field cut to 31 characters": (
        _last_field_cut_to_31_characters, "report: node field '"),
    "nodes is an object": (lambda r: _file0(r).update(nodes={}),
                           "field 'nodes' has the wrong type"),
    "findings is a number": (lambda r: _file0(r).update(findings=3),
                             "field 'findings' has the wrong type"),
    "finding of the old shape": (
        lambda r: _file0(r)["findings"].append({"path": []}),
        "a finding is not a list of indices into its file's nodes"),
    # a report of version 1 fails on its version, whatever its shape
    "file entry of the old format": (_old_format, "report of version None"),
    "ref index past the refs": (
        _token_index(lambda r: len(_file0(r)["tokens"]) // 32 + 1),
        "node field 'token' names ref"),
    "negative ref index": (_token_index(lambda r: -1), "names ref -1"),
    "bool ref index": (_token_index(lambda r: True),
                       "node field 'token' has the wrong type"),
    "ref not hex": (
        lambda r: set_ref(_file0(r), _file0(r)["nodes"][0], 0, "zz" * 16),
        "the tokens of file 0 are not distinct blocks of 32 lowercase "
        "hex digits"),
    "ref of the wrong length for its column": (
        lambda r: set_ref(_file0(r), _file0(r)["nodes"][0], 0,
                          _first_ref(r)[:-2]),
        "the tokens of file 0 are not distinct blocks of 32 lowercase "
        "hex digits"),
    "repeated token block": (
        lambda r: set_ref(_file0(r), _file0(r)["nodes"][0], 0, _first_ref(r)),
        "the tokens of file 0 are not distinct blocks"),
    "ref that is not a string": (lambda r: _file0(r).update(tokens=7),
                                 "field 'tokens' has the wrong type"),
    "refs is an object": (lambda r: _file0(r).update(tokens={}),
                          "field 'tokens' has the wrong type"),
    "duplicated file id": (lambda r: r["files"].append(_file0(r)),
                           "file 0 follows file 0; file ids must ascend"),
}


@pytest.fixture(scope="session")
def default_rules():
    from cca import load_rules

    return load_rules()


@pytest.fixture(scope="session")
def default_tk():
    from cca import load_task_knowledge

    return load_task_knowledge()


@pytest.fixture()
def fig_app(tmp_path):
    root = tmp_path / "fig_app"
    root.mkdir()
    return write_app(root, CORPUS["fig_flow"])


@pytest.fixture()
def branching_app(tmp_path):
    root = tmp_path / "branching_app"
    root.mkdir()
    return write_app(root, CORPUS["branching"])
