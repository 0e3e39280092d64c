"""The three binary containers and the report, as untrusted input.

Bytes written by the serialisers read back and re-serialise unchanged in
every mode; damaged bytes or a damaged report raise a CcaError and
nothing else.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cca.analysis import (
    analyse,
    authorise,
    decrypt_report,
    deserialize_query,
    serialize_query,
)
from cca.crypto import MODES, deserialize_keys, serialize_keys
from cca.errors import CcaError, FormatError
from cca.index import deserialize_index, serialize_index
from cca.pipeline import encrypt_application

from conftest import write_app

APP = {"index.php": "<?php\n$a = $_GET['x'];\n$b = $a;\necho $b;\n"}

CODECS = {
    "index": (serialize_index, deserialize_index),
    "keys": (serialize_keys, deserialize_keys),
    "query": (serialize_query, deserialize_query),
}

# Header byte offsets: 8 magic bytes and a version, then (task and) mode.
HEADER = {
    "index": {"mode": 9},
    "keys": {"mode": 9},
    "query": {"task": 9, "mode": 10},
}


class Run:
    """One protocol run over APP: its three containers and its report."""

    def __init__(self, root, mode: str) -> None:
        res = encrypt_application(write_app(root, APP), mode=mode)
        query = authorise(res.keys, "xss")
        self.keys = res.keys
        self.query = query
        self.report = analyse(res.index, query)
        self.blobs = {"index": serialize_index(res.index),
                      "keys": serialize_keys(res.keys),
                      "query": serialize_query(query)}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {mode: Run(tmp_path_factory.mktemp(mode), mode) for mode in MODES}


@pytest.mark.parametrize("mode", MODES)
def test_containers_reserialise_byte_identically(runs, mode):
    for kind, (write, read) in CODECS.items():
        blob = runs[mode].blobs[kind]
        assert write(read(blob)) == blob, kind


@pytest.mark.parametrize("kind", sorted(CODECS))
def test_headers_reject_unknown_codes(runs, kind):
    good = runs["std"].blobs[kind]
    read = CODECS[kind][1]
    for name, offset in HEADER[kind].items():
        for value in (3, 255):
            bad = bytearray(good)
            bad[offset] = value
            with pytest.raises(FormatError, match=f"unknown {name} code"):
                read(bytes(bad))


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """data cut short and/or with a few bytes flipped, often in the header."""
    out = bytearray(data[:draw(st.integers(0, len(data)))]
                    if draw(st.booleans()) else data)
    for _ in range(draw(st.integers(0 if len(out) < len(data) else 1, 3))):
        if out:
            pos = draw(st.integers(0, min(len(out) - 1, 40))
                       | st.integers(0, len(out) - 1))
            out[pos] ^= draw(st.integers(1, 255))
    return bytes(out)


@pytest.mark.parametrize("kind", sorted(CODECS))
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=25)
@given(data=st.data())
def test_damaged_containers_raise_only_cca_errors(runs, mode, kind, data):
    blob = data.draw(damaged(runs[mode].blobs[kind]))
    try:
        CODECS[kind][1](blob)
    except CcaError:
        pass


@settings(max_examples=50)
@given(data=st.data())
def test_analyse_on_a_damaged_plain_index_raises_only_cca_errors(runs, data):
    run = runs["plain"]
    try:
        analyse(deserialize_index(data.draw(damaged(run.blobs["index"]))),
                run.query)
    except CcaError:
        pass


def _addresses(doc, here=()):
    """Key paths of every value nested inside a report."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield here + (key,)
        if isinstance(value, (dict, list)):
            yield from _addresses(value, here + (key,))


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.just("ore:zz"), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(["token", "line", "file"]),
                    st.integers(), max_size=2),
)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=40)
@given(data=st.data())
def test_damaged_report_raises_only_cca_errors(runs, mode, data):
    report = copy.deepcopy(runs[mode].report)
    for _ in range(data.draw(st.integers(1, 3))):
        *path, last = data.draw(st.sampled_from(list(_addresses(report))))
        parent = report
        for key in path:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = data.draw(JUNK)
    try:
        decrypt_report(report, runs[mode].keys)
    except CcaError:
        pass
