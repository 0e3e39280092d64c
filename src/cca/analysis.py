"""Vulnerability detection over the inverted index.

The analyser holds only a query: per file, the key pair of the task's
sensitive-sink token plus the bare identities of the entry-point and
sanitizer tokens.  Each decrypted index value hands over the keys of the
next token, so detection can walk flows outward from the sinks and nowhere
else.  Detection has the semantics of four steps: enumerate candidate
paths, drop impossible orderings, aggregate per sink statement, then
resolve branch alternatives down to the flow that reaches the sink.  Only
the paths steps 2 and 4 keep are built, each choice settled where paths
diverge from memoised token summaries (IFDS summary edges: Reps, Horwitz
and Sagiv, POPL 1995), so cost follows findings, not 2**n walks.

The same steps run in every mode and over plaintext dependency pairs
(see the oracle module); only the reader differs.  The steps see field
values as ints.  The plain and std readers decode them as such.  The ore
reader, once a file's walk is done, sorts the field ciphertexts it read
for that file, one field at a time, with the comparison order-revealing
encryption already offers, and replaces each by its rank.  Ranks within
one file tell the analyser nothing the comparisons did not; reports still
name ore fields by part of their left half, never by rank (docs/formats.md).
"""

from __future__ import annotations

import functools
import json
import logging
import struct
from dataclasses import dataclass

from .crypto import (
    DEFAULT_ORE_WIDTH,
    MODES,
    KeyStore,
    derive_det_keys,
    derive_token_keys,
    det_encrypter,
    ore_ciphertext_bytes,
    ore_compare,
    ore_field_keys,
    ore_left_bytes,
    ore_name,
    ore_name_value,
    rnd_decrypt,
)
from .errors import (
    AuthorizationError,
    FormatError,
    KeyMismatchError,
    UsageError,
)
from .fileio import Cursor, atomic_write, blob
from .index import EncryptedIndex, report_names, token_identity
from .itl import TASKS

log = logging.getLogger(__name__)

_D_BYTES = 32


@dataclass(slots=True)
class PathNode:
    """One token occurrence on a flow: its identity and its flow fields.

    A reader hands out one node per decoded index entry, and every path
    through that entry shares it.  The ore reader fills the four fields
    with ranks once the file's walk is done; until then they are None.
    """

    token: object  # opaque identity: D bytes or plain token identity
    line: int
    depth: int
    order: int
    cf_type: int
    ref: object = None  # expands the token: (D, R) keys, or plain identity
    cts: tuple[bytes, ...] | None = None  # ore field ciphertexts

    def same_scope(self, other: "PathNode") -> bool:
        return (self.depth == other.depth and self.order == other.order
                and self.cf_type == other.cf_type)


def ref_identity(ref) -> object:
    """Stable identity of a token reference, usable in visited sets."""
    return ref[0] if isinstance(ref, tuple) else ref


# --- queries ------------------------------------------------------------------

@dataclass
class FileQuery:
    file_id: int
    sens: object       # token reference of the sensitive-sink token
    input_id: object   # identity of the entry-point token
    san_id: object     # identity of the sanitizer token


@dataclass
class Query:
    task: str
    mode: str
    files: list[FileQuery]


def read_policy(path) -> dict[str, bool]:
    """Parse an authorisation policy: lines of `allow TASK` / `deny TASK`."""
    decisions: dict[str, bool] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: policy file is not UTF-8: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("allow", "deny"):
            raise UsageError(f"{path}:{lineno}: bad policy line {raw.strip()!r}")
        task = parts[1].lower()
        if task not in TASKS:
            raise UsageError(f"{path}:{lineno}: unknown task {parts[1]!r}")
        # deny wins over allow regardless of order
        if decisions.get(task) is not False:
            decisions[task] = parts[0] == "allow"
    return decisions


def authorise(ks: KeyStore, task: str, policy_path=None) -> Query:
    """Issue the analysis query for one task, gated by the policy.

    Without a policy file the owner is authorising themselves and every
    task is available; with one, a task runs only if explicitly allowed.
    """
    task = task.lower()
    if task not in TASKS:
        raise UsageError(
            f"unknown task {task!r}; expected one of {tuple(TASKS)}")
    if policy_path is not None:
        decisions = read_policy(policy_path)
        if not decisions.get(task, False):
            raise AuthorizationError(f"policy denies task {task!r}")
    sens_name, san_name = TASKS[task]
    files = []
    for file_id in sorted(ks.files):
        sens, input_id, san_id = (token_identity(file_id, name)
                                  for name in (sens_name, "INPUT", san_name))
        if ks.mode != "plain":
            sens = derive_token_keys(ks.master, sens)
            input_id, san_id = derive_det_keys(ks.master, [input_id, san_id])
        files.append(FileQuery(file_id, sens, input_id, san_id))
    return Query(task, ks.mode, files)


_QRY_MAGIC = b"CCAQRY1\x00"
_QRY_VERSION = 2


def serialize_query(query: Query) -> bytes:
    out = bytearray(_QRY_MAGIC)
    out += bytes([_QRY_VERSION, list(TASKS).index(query.task),
                  MODES.index(query.mode)])
    out += struct.pack(">I", len(query.files))
    for fq in query.files:
        out += struct.pack(">I", fq.file_id)
        if query.mode == "plain":
            out += blob(fq.sens.encode()) + blob(b"")
            out += blob(fq.input_id.encode()) + blob(fq.san_id.encode())
        else:
            out += blob(fq.sens[0]) + blob(fq.sens[1])
            out += blob(fq.input_id) + blob(fq.san_id)
    return bytes(out)


def deserialize_query(data: bytes) -> Query:
    cur = Cursor(data, "query", _QRY_MAGIC, _QRY_VERSION)
    task = cur.code(TASKS, "task")
    mode = cur.code(MODES, "mode")
    files = []
    for _ in range(cur.unpack(">I")[0]):
        (file_id,) = cur.unpack(">I")
        if mode == "plain":
            sens, _ = cur.text(), cur.blob()
            files.append(FileQuery(file_id, sens, cur.text(), cur.text()))
        else:
            sens = (cur.blob(), cur.blob())
            files.append(FileQuery(file_id, sens, cur.blob(), cur.blob()))
    cur.finish()
    return Query(task, mode, files)


def save_query(path, query: Query) -> None:
    atomic_write(path, serialize_query(query), private=True)


def load_query(path) -> Query:
    with open(path, "rb") as handle:
        return deserialize_query(handle.read())


# --- index readers ------------------------------------------------------------

class Reader:
    """Lists a token's entries in counter order, reading each token once.

    Subclasses supply `_read`.  `rank` makes the field values read since
    its last call comparable as ints; it has nothing to do where they are
    ints already.
    """

    def __init__(self, index: EncryptedIndex) -> None:
        self.index = index
        self._cache: dict[object, list[PathNode]] = {}

    def entries(self, ref) -> list[PathNode]:
        key = ref_identity(ref)
        edges = self._cache.get(key)
        if edges is None:
            edges = self._cache[key] = self._read(ref)
        return edges

    def rank(self) -> None:
        pass


class PlainReader(Reader):
    """Reader for the unencrypted debugging mode."""

    def _read(self, ref: str) -> list[PathNode]:
        edges: list[PathNode] = []
        while (blob := self.index.lookup(
                f"{ref}#{len(edges) + 1}".encode())) is not None:
            try:  # a ValueError also covers bad UTF-8 and a wrong field count
                right, *fields = blob.decode().split("|")
                line, depth, order, cf_type = map(int, fields)
            except ValueError:
                raise FormatError("index: malformed plain-mode value") from None
            edges.append(PathNode(right, line, depth, order, cf_type, ref=right))
        return edges


class IndexReader(Reader):
    """Counter-probing reader for std mode: fields are plain integers."""

    field_bytes = 4

    def _read(self, ref) -> list[PathNode]:
        d_key, r_key = ref
        probe = det_encrypter(d_key)
        edges: list[PathNode] = []
        while True:
            blob = self.index.lookup(probe((len(edges) + 1).to_bytes(4, "big")))
            if blob is None:
                return edges
            payload = rnd_decrypt(r_key, blob)
            if len(payload) != 2 * _D_BYTES + 4 * self.field_bytes:
                raise FormatError("index value has unexpected payload size")
            right = (payload[:_D_BYTES], payload[_D_BYTES:2 * _D_BYTES])
            edges.append(self._node(right, payload[2 * _D_BYTES:]))

    def _node(self, right, fields: bytes) -> PathNode:
        return PathNode(right[0], *struct.unpack(">iiii", fields), ref=right)


class OreReader(IndexReader):
    """Reader for ore mode: field ciphertexts become per-file ranks."""

    field_bytes = ore_ciphertext_bytes()

    def __init__(self, index: EncryptedIndex) -> None:
        super().__init__(index)
        self._walked: dict[bytes, list[PathNode]] = {}

    def entries(self, ref) -> list[PathNode]:
        edges = super().entries(ref)
        self._walked[ref[0]] = edges
        return edges

    def _node(self, right, fields: bytes) -> PathNode:
        fb = self.field_bytes
        cts = tuple(fields[k:k + fb] for k in range(0, 4 * fb, fb))
        return PathNode(right[0], None, None, None, None, ref=right, cts=cts)

    def rank(self) -> None:
        """Rank, field by field, the entries handed out since the last call."""
        nodes = [node for edges in self._walked.values() for node in edges]
        self._walked.clear()
        for k, name in enumerate(("line", "depth", "order", "cf_type")):
            ranks = ore_ranks([node.cts[k] for node in nodes])
            for node, rank in zip(nodes, ranks):
                setattr(node, name, rank)


def ore_ranks(cts: list[bytes], width: int = DEFAULT_ORE_WIDTH) -> list[int]:
    """Dense ranks of order-revealing ciphertexts made under one key.

    Ranks follow plaintext order and equal plaintexts share a rank.  Left
    halves are deterministic, so they key out duplicates before the sort.
    """
    size, left = ore_ciphertext_bytes(width), ore_left_bytes(width)
    if any(len(ct) != size for ct in cts):
        raise FormatError("malformed order-revealing ciphertext")
    distinct = {ct[:left]: ct for ct in cts}
    ordered = sorted(distinct.values(), key=functools.cmp_to_key(
        lambda a, b: ore_compare(a, b, width)))
    rank_of = {ct[:left]: rank for rank, ct in enumerate(ordered)}
    return [rank_of[ct[:left]] for ct in cts]


def make_reader(index: EncryptedIndex) -> Reader:
    readers = {"plain": PlainReader, "std": IndexReader, "ore": OreReader}
    return readers[index.mode](index)


# --- detection steps ----------------------------------------------------------

# Selection work one file may take (docs/formats.md)
DETECTION_BUDGET = 100_000
BUDGET_WARNING = ("file {}: detection budget of %d exceeded; findings are "
                  "incomplete" % DETECTION_BUDGET)
_END = (0,)  # the summary below a path's last node: it adds no scope


class _OverBudget(Exception):
    """Selection in one file needed more than DETECTION_BUDGET."""


def find_paths(reader, fq: FileQuery) -> list[list[PathNode]]:
    """Steps 1, 2 and 4 at once: the paths backwards from the task's
    sinks that steps 2 and 4 keep, built without the others.

    A path follows index entries token by token and stops at a token with
    no entries or one it already expanded (a cycle).  Every token the sink
    reaches is read once, depth-first in entry order, then ranked.

    Step 4 compares two paths of one sink line and scope signature (the
    set of their nodes' scopes) at their first differing nodes: entries
    of one token after one prefix.  The later line before the sink wins,
    one line keeps both, and if neither is before the sink the first
    wins.  So the walk runs that tournament among a node's entries that
    can still finish a valid path of the signature, read from summaries
    (a token's completion signatures, memoised by token and the tokens
    before it, per sink line and scope: all they depend on), and descends
    into the winners only; equal entries count once.  Paths come out by
    sink line, signature as first met, then walk order, as from the four
    steps.  Past DETECTION_BUDGET it raises _OverBudget.
    """
    sens_id = ref_identity(fq.sens)
    edges = reader.entries(fq.sens)
    if not edges:
        return []
    ids = {sens_id: 0}  # token -> its index in graph
    graph = [edges]  # each token's entries, in reading order
    todo = edges[::-1]
    while todo:
        node = todo.pop()
        if node.token not in ids:
            ids[node.token] = len(graph)
            graph.append(reader.entries(node.ref))
            todo += graph[-1][::-1]
    reader.rank()
    bits: dict[tuple, int] = {}  # scope -> its bit in a signature
    kids = []  # per token: its distinct entries, (line, token, scope bit, node)
    last = []  # per token: the latest line of its entries
    for edges in graph:
        if not edges:
            kids.append(())
            last.append(None)
            continue
        if len(edges) == 1:  # the common case, with nothing to drop
            (e,) = edges
            scope = (e.depth, e.order, e.cf_type)
            kids.append(((e.line, ids[e.token],
                          bits.setdefault(scope, 1 << len(bits)), e),))
            last.append(e.line)
            continue
        row: dict[tuple, tuple] = {}  # equal entries count once
        for e in edges:
            scope = (e.depth, e.order, e.cf_type)
            k = (e.line, ids[e.token], bits.setdefault(scope, 1 << len(bits)))
            row.setdefault(k, (*k, e))
        kids.append(tuple(row.values()))
        last.append(max(row)[0])
    memos: dict[tuple, dict] = {}  # per sink line and scope: summaries
    found = []  # ((sink line, signature), path), in walk order
    order: dict[tuple, None] = {}  # (sink line, signature), as first met
    work = 0
    for line, first, scope, head in kids[0]:
        sink = PathNode(sens_id, line, head.depth, head.order,
                        head.cf_type, fq.sens, head.cts)
        # token, tokens before it, signature, targets (None: any), path
        stack = [(first, 1, scope, None, [sink, head])]
        while stack:
            t, seen, acc, want, path = stack.pop()
            work += 1
            if work > DETECTION_BUDGET:
                raise _OverBudget
            if not kids[t] or seen >> t & 1:
                if want is None:
                    order.setdefault((line, acc))
                found.append(((line, acc), path))
                continue
            below = seen | 1 << t
            valid = kids[t]
            if last[t] > line:
                valid = [k for k in valid if k[2] != scope or k[0] <= line]
            if want is None and (len(valid) < 2 or all(
                    k[0] == valid[0][0] for k in valid)):
                # one line: every entry wins whatever it can finish
                for _, c, b, node in reversed(valid):
                    stack.append((c, below, acc | b, None, path + [node]))
                continue
            memo = memos.setdefault((line, scope), {})
            work += _summarise(kids, last, memo, line, scope, valid,
                               below, DETECTION_BUDGET - work)
            options = []
            best: dict[int, int] = {}  # signature -> winning line
            for k in valid:
                ln, c, b, _ = k
                can = []
                for m in (_END if not kids[c] or below >> c & 1
                          else memo[c, below]):
                    s = acc | b | m
                    if want is None:
                        order.setdefault((line, s))
                    elif s not in want:
                        continue
                    can.append(s)
                    got = best.get(s)
                    if got is None or ln < line and (got >= line
                                                     or ln > got):
                        best[s] = ln
                options.append((k, can))
            for (ln, c, b, node), can in reversed(options):
                won = set()
                for s in can:
                    if best[s] == ln:
                        won.add(s)
                if won:
                    stack.append((c, below, acc | b, won,
                                  path + [node]))
    if len(order) > 1:
        rank = {k: i for i, k in enumerate(sorted(order, key=lambda k: k[0]))}
        found.sort(key=lambda item: rank[item[0]])
    return [path for _, path in found]


def _summarise(kids, last, memo, line, scope, valid, below, budget) -> int:
    """Memoise the summaries below these entries: valid completion
    signatures, as first met.  Returns the work done (docs/formats.md)."""
    work = 0
    todo = [(k[1], below, None) for k in valid]
    while todo:
        t, seen, valid = todo.pop()
        below = seen | 1 << t
        if valid is None:
            if kids[t] and not seen >> t & 1 and (t, seen) not in memo:
                valid = kids[t]
                if last[t] > line:
                    valid = [k for k in valid if k[2] != scope or k[0] <= line]
                todo.append((t, seen, valid))
                todo += [(k[1], below, None) for k in valid]
            continue
        sigs: dict[int, None] = {}
        for _, c, b, _ in valid:
            sub = _END if not kids[c] or below >> c & 1 else memo[c, below]
            work += 1 + len(sub)
            for m in sub:
                sigs[b | m] = None
        if work > budget:
            raise _OverBudget
        memo[t, seen] = sigs
    return work


def remove_invalid_paths(paths: list[list[PathNode]]) -> list[list[PathNode]]:
    """Step 2: drop flows that would run backwards inside one scope.

    A node later in the file than the sink cannot feed it when both sit in
    the same branch scope; across different scopes order stays ambiguous
    (alternation may execute either first), so those paths survive.
    """
    kept = []
    for nodes in paths:
        sink = nodes[0]
        if not any(node.line > sink.line and node.same_scope(sink)
                   for node in nodes[1:]):
            kept.append(nodes)
    return kept


def aggregate_paths(paths: list[list[PathNode]]) -> list[list[list[PathNode]]]:
    """Step 3: group paths by sink statement, ordered by sink line."""
    groups: dict[tuple, list[list[PathNode]]] = {}
    for nodes in paths:
        groups.setdefault((nodes[0].token, nodes[0].line), []).append(nodes)
    return sorted(groups.values(), key=lambda group: group[0][0].line)


def resolve_control_flow(
    groups: list[list[list[PathNode]]],
) -> list[list[PathNode]]:
    """Step 4: among alternative flows into one sink, keep the decisive one.

    Paths whose nodes past the sink cover the same branch scopes may be
    sequential rewrites of one flow (reassignments of the variable the
    sink reads), and only the write nearest the sink counts.  Rewrites
    reveal themselves by diverging at nodes on distinct lines; paths that
    diverge on one line are parallel flows of a single statement (several
    call arguments, several value tokens of one expression) and are all
    kept.  Paths covering different scope combinations come from
    different branches and always survive.
    """
    selected: list[list[PathNode]] = []
    for group in groups:
        buckets: dict[frozenset, list[list[PathNode]]] = {}
        for nodes in group:
            signature = frozenset([(n.depth, n.order, n.cf_type)
                                   for n in nodes[1:]])
            buckets.setdefault(signature, []).append(nodes)
        for bucket in buckets.values():
            selected += _tournament(bucket) if len(bucket) > 1 else bucket
    return selected


def _tournament(bucket: list[list[PathNode]]) -> list[list[PathNode]]:
    """Step 4 in one bucket.  A candidate meets each survivor where they
    first differ: on one line both stay, else it wins only by a later line
    before the sink, and a duplicate loses.  If it loses once it is
    dropped, else those it beat are.  Survivors sit in a trie of node
    fields, so it meets all that leave it at one node at once."""
    root: dict = {}  # node fields -> subtrie; None -> index of a path ending
    survivors: dict[int, list[PathNode]] = {}
    for i, nodes in enumerate(bucket):
        line = nodes[0].line
        keys = [(n.token, n.line, n.depth, n.order, n.cf_type) for n in nodes]
        keys.append(None)
        beaten, trie, depth, lost = [], root, 0, False
        while not lost:
            key = keys[depth]
            c_line = key and key[1]
            for other in trie:
                s_line = other and other[1]
                if other == key:
                    lost = key is None  # a duplicate
                elif s_line is None or s_line != c_line:
                    lost = not (c_line is not None and c_line < line and (
                        s_line is None or s_line >= line or c_line > s_line))
                    beaten.append((trie, other))
                if lost:
                    break
            if lost or key is None or key not in trie:
                break
            trie, depth = trie[key], depth + 1
        if lost:
            continue
        for parent, key in beaten:
            stack = [parent.pop(key)]
            while stack:
                sub = stack.pop()
                if isinstance(sub, int):
                    del survivors[sub]
                else:
                    stack += sub.values()
        for key in keys[depth:-1]:
            trie = trie.setdefault(key, {})
        trie[None] = i
        survivors[i] = nodes
    return list(survivors.values())


def check_vulnerability(paths: list[list[PathNode]],
                        fq: FileQuery) -> list[list[PathNode]]:
    """Final filter: flows that start at an entry point and skip sanitizers."""
    findings = []
    for nodes in paths:
        if nodes[-1].token != fq.input_id:
            continue
        if any(node.token == fq.san_id for node in nodes):
            continue
        findings.append(nodes)
    return findings


def detect(reader, fq: FileQuery) -> tuple[bool, list[list[PathNode]], bool]:
    """Run every detection step over one file, for `analyse` and the
    plaintext oracle: whether any sink entry answered, the findings, and
    False if the file ran out of DETECTION_BUDGET (then it has none)."""
    answered, complete = bool(reader.entries(fq.sens)), True
    try:
        paths = find_paths(reader, fq)
    except _OverBudget:
        paths, complete = [], False
    groups = aggregate_paths(remove_invalid_paths(paths))
    return answered, check_vulnerability(resolve_control_flow(groups), fq), \
        complete


# --- full run and reports -------------------------------------------------------

def _node_to_dict(node: PathNode) -> dict:
    """Report form of a node; ore fields are named by `crypto.ore_name`."""
    token = node.token.hex() if isinstance(node.token, bytes) else node.token
    if node.cts is None:
        fields = (node.line, node.depth, node.order, node.cf_type)
    else:
        fields = ["ore:" + ore_name(ct).hex() for ct in node.cts]
    return {"token": token, "line": fields[0], "depth": fields[1],
            "order": fields[2], "type": fields[3]}


def analyse(index: EncryptedIndex, query: Query) -> dict:
    """Run the full detection over one index with one query."""
    if query.mode != index.mode:
        raise FormatError(
            f"query was authorised for mode {query.mode!r} but the index "
            f"was built in mode {index.mode!r}"
        )
    reader = make_reader(index)
    report: dict = {"task": query.task, "mode": query.mode, "files": []}
    probed_any = False
    warnings = []
    for fq in sorted(query.files, key=lambda f: f.file_id):
        answered, findings, complete = detect(reader, fq)
        probed_any = probed_any or answered
        if not complete:
            warnings.append(BUDGET_WARNING.format(fq.file_id))
        report["files"].append({"file": fq.file_id, "findings": [
            {"path": [_node_to_dict(n) for n in nodes]}
            for nodes in findings]})
    if not probed_any and len(index) > 0:
        warnings.append("no sensitive entries answered any probe; the query "
                        "keys may not match this index")
    for message in warnings:
        log.warning(message)
    if warnings:
        report["warnings"] = warnings
    return report


def dump_report(report: dict) -> str:
    """A report as compact JSON, the one report format."""
    return json.dumps(report, separators=(",", ":"))


def save_report(path, report: dict) -> None:
    atomic_write(path, dump_report(report).encode())


def load_report(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not a readable JSON report: {exc}") from None
    if not isinstance(data, dict) or "files" not in data:
        raise FormatError(f"{path}: not an analysis report")
    return data


def _get(mapping, key: str, kind):
    """mapping[key], which must be an instance of kind (bools never are)."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise FormatError(f"report: missing field {key!r}")
    value = mapping[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"report: field {key!r} has the wrong type")
    return value


def decrypt_report(report: dict, ks: KeyStore) -> dict:
    """Resolve an analysis report into file paths, token names and lines.

    The report comes back from the analyser, so each field is checked
    where it is read: a malformed report raises FormatError, and one made
    under other keys or in another mode raises KeyMismatchError, as does a
    file id the key store does not hold or a token that no name of its
    file derives to.  Each finding's sink and source are the first and
    last node of its path.
    """
    mode = _get(report, "mode", str)
    if mode != ks.mode:
        raise KeyMismatchError(f"report was made in mode {mode!r} but the "
                               f"key store is for mode {ks.mode!r}")
    field_kind = str if mode == "ore" else int
    ore_keys = ore_field_keys(ks.master)
    names: dict[tuple[str, str], int] = {}
    file_tokens = functools.cache(functools.partial(report_names, ks))

    def resolve_field(field: str, value: int | str) -> int:
        if mode != "ore":
            return value
        got = names.get((field, value))
        if got is None:
            if not value.startswith("ore:"):
                raise FormatError(f"report: field value {value!r} is not a "
                                  "ciphertext name")
            try:
                name = bytes.fromhex(value[4:])
            except ValueError:
                raise FormatError(
                    f"report: bad ciphertext name {value!r}") from None
            key, signed = ore_keys[field]
            got = ore_name_value(key, name, signed=signed)
            names[field, value] = got
        return got

    def resolve_node(file_id: int, node) -> dict:
        token = _get(node, "token", str)
        out = {"token": file_tokens(file_id).get(token)}
        if out["token"] is None:
            raise KeyMismatchError(
                f"token {token!r} is no name of file {file_id} under this "
                "key store; the report was produced from an index built "
                "with different keys")
        for field in ("line", "depth", "order", "type"):
            out[field] = resolve_field(field, _get(node, field, field_kind))
        return out

    task = _get(report, "task", str)
    if task not in TASKS:
        raise FormatError(f"report: unknown task {task!r}")
    out = {"task": task, "mode": mode, "files": []}
    for entry in _get(report, "files", list):
        file_id = _get(entry, "file", int)
        if file_id not in ks.files:
            raise KeyMismatchError(f"report names file {file_id}, which this "
                                   "key store does not hold")
        resolved = {"file": ks.files[file_id], "findings": []}
        for finding in _get(entry, "findings", list):
            path = [resolve_node(file_id, n)
                    for n in _get(finding, "path", list)]
            if not path:
                raise FormatError("report: finding with an empty path")
            resolved["findings"].append(
                {"sink": path[0], "source": path[-1], "path": path})
        out["files"].append(resolved)
    if "warnings" in report:
        out["warnings"] = list(_get(report, "warnings", list))
    return out
