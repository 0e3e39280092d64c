"""Vulnerability detection over the inverted index.

The analyser holds only a query: per file, the secret of the task's
sensitive-sink token plus the one-way identities of the entry-point and
sanitizer tokens, which open nothing; in plain mode all three are
identity blocks, which are also the tokens' identities.  Each decrypted
index value hands over the secret of the next token and its entry
count, so detection can walk flows outward from the sinks and nowhere
else, probing below a sink only the entries that exist.  Detection has
the semantics of four steps: enumerate candidate paths, drop impossible
orderings, aggregate per sink statement, then resolve branch
alternatives down to the flow that reaches the sink.
`detect` runs `find_paths`, then the final check.  `find_paths` builds
only the paths steps 2 and 4 keep, in their order, each choice settled
where paths diverge from memoised token summaries (IFDS summary edges:
Reps, Horwitz and Sagiv, POPL 1995), so cost follows findings, not 2**n
walks.  Steps 2-4 stay as the literal reference the tests hold it to.

Detection runs alike in every mode and over plaintext dependency pairs
(see the oracle module); only the reader differs.  One reader walk per
sink reads each token the file's sink reaches once and hands `find_paths`
that graph with int token positions, int lines and scopes, which
detection only tests for equality.  Readers differ only in how a
token's reference (its secret, or in plain mode its identity block)
makes lookup keys and opens values, and in how they decode an entry:
the plain and std readers decode lines and (depth, order, type) scopes
as ints.  The ore reader keeps each scope tag as it is and, once the
walk is done, sorts the file's line ciphertexts with the comparison
order-revealing encryption offers and replaces each by its rank.  Ranks
tell the analyser nothing the comparisons did not; reports still name
ore lines by part of their left half, never by rank (docs/formats.md).
"""

from __future__ import annotations

import functools
import json
import logging
import re
import struct
from dataclasses import dataclass

from .crypto import (
    DEFAULT_ORE_WIDTH,
    KEY_BYTES,
    MODES,
    ORE_BLOCK_BITS,
    ORE_CHECK_BYTES,
    KeyStore,
    derive_identity,
    derive_ore_key,
    derive_secrets,
    derive_value_key,
    det_encrypt,
    ore_ciphertext_bytes,
    ore_compare,
    ore_left_bytes,
    ore_name,
    ore_name_value,
    open_scope_tags,
    open_token_blocks,
    open_token_keys,
    rnd_decrypt,
    token_block,
    value_opener,
)
from .errors import (
    AuthorizationError,
    FormatError,
    KeyMismatchError,
    UsageError,
)
from .fileio import Cursor, atomic_write
from .index import EncryptedIndex, payload_struct, plain_key
from .itl import TASKS, task_name

log = logging.getLogger(__name__)
# Marks a log record whose message the report also carries as a warning,
# so a caller that prints the report's warnings can drop the record.
IN_REPORT = {"in_report": True}


@dataclass(slots=True)
class PathNode:
    """One token occurrence on a flow: its token, line and scope.

    A reader hands out one node per decoded index entry, and every path
    through that entry shares it.  The ore reader fills the line with its
    rank once the file's walk is done; until then it is None.
    """

    # the token's reference, which expands it: its secret, or in plain
    # mode its identity block; the oracle's: its name
    token: object
    line: int
    scope: object  # (depth, order, type), or the ore scope tag
    ct: bytes | None = None  # ore: the line's ciphertext
    count: int | None = None  # index readers: the entries token expands to


# --- queries ------------------------------------------------------------------

@dataclass
class FileQuery:
    file_id: int
    # in a query 16 bytes each, in plain mode the tokens' identity blocks;
    # the oracle names the tokens instead
    sens: object       # secret of the sensitive-sink token
    input_id: object   # one-way identity of the entry-point token
    san_id: object     # one-way identity of the sanitizer token


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
        try:
            task = task_name(parts[1])
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
        # deny wins over allow regardless of order
        if decisions.get(task) is not False:
            decisions[task] = parts[0] == "allow"
    return decisions


def authorise(ks: KeyStore, task: str, policy_path=None) -> Query:
    """Issue the analysis query for one task, gated by the policy.

    Without a policy file the owner is authorising themselves and every
    task is available; with one, a task runs only if explicitly allowed.
    """
    task = task_name(task)
    if policy_path is not None:
        decisions = read_policy(policy_path)
        if not decisions.get(task, False):
            raise AuthorizationError(f"policy denies task {task!r}")
    sens_name, san_name = TASKS[task]
    file_ids = sorted(ks.files)
    refs = [token_block(file_id, name) for file_id in file_ids
            for name in (sens_name, "INPUT", san_name)]
    if ks.mode != "plain":  # every secret of the query in one batch
        refs = derive_secrets(ks.master, b"".join(refs))
        # the entry point and the sanitizer are named by their identities
        refs = [derive_identity(ref) if k % 3 else ref
                for k, ref in enumerate(refs)]
    return Query(task, ks.mode, [FileQuery(file_id, *refs[3 * i:3 * i + 3])
                                 for i, file_id in enumerate(file_ids)])


_QRY_MAGIC = b"CCAQRY1\x00"
_QRY_VERSION = 6


def serialize_query(query: Query) -> bytes:
    """The container: header, then per file its id and its three 16-byte
    fields; a field of another width is a ValueError."""
    out = bytearray(_QRY_MAGIC)
    out += bytes([_QRY_VERSION, list(TASKS).index(query.task),
                  MODES.index(query.mode)])
    out += struct.pack(">I", len(query.files))
    for fq in query.files:
        refs = (fq.sens, fq.input_id, fq.san_id)
        if any(len(ref) != KEY_BYTES for ref in refs):
            raise ValueError(f"a query field is {KEY_BYTES} bytes")
        out += struct.pack(">I", fq.file_id) + b"".join(refs)
    return bytes(out)


def deserialize_query(data: bytes) -> Query:
    cur = Cursor(data, "query", _QRY_MAGIC, _QRY_VERSION)
    task = cur.code(TASKS, "task")
    mode = cur.code(MODES, "mode")
    files = [FileQuery(*cur.unpack(">I"),
                       *(cur.take(KEY_BYTES) for _ in range(3)))
             for _ in range(cur.unpack(">I")[0])]
    cur.finish()
    return Query(task, mode, files)


def save_query(path, query: Query) -> None:
    atomic_write(path, serialize_query(query), private=True)


def load_query(path) -> Query:
    with open(path, "rb") as handle:
        return deserialize_query(handle.read())


# --- index readers ------------------------------------------------------------

class Reader:
    """Reads the flow graph below a sink, token by token.

    `_read(ref, count)` gives a token's entries in counter order, `count`
    of them, or for a sink (count None) up to the first probe that
    misses: it probes the lookup keys `_key` makes from the token's
    reference and opens each value found with the `_opener` of that
    reference, which subclasses supply.  `identity` gives the identity of
    a node's token that the final check compares with the query's: here
    the token itself.  `answered` is whether any probe has hit; a walk
    reads its sink's entries first, so it is whether any sink had entries.
    """

    answered = False

    def __init__(self, index) -> None:
        self.index = index
        self.size = len(index)  # no token has more entries

    @staticmethod
    def identity(token):
        return token

    @functools.cached_property
    def payload(self) -> struct.Struct:
        """An index payload at the index's integer widths."""
        return payload_struct(self.index.mode, self.index.widths)

    def graph(self, ref) -> list[list[tuple[int, PathNode]]]:
        """Walk the tokens a sink reaches, depth-first in entry order, and
        read each once.  Returns each token's entries, the sink's first and
        the rest in reading order, each with the position in that list of
        the token it names.  Tokens are told apart by their references,
        which on an honest index name them exactly as their identities
        do."""
        ids = {ref: 0}
        graph = [self._read(ref, None)]
        todo = graph[0][::-1]
        while todo:
            node = todo.pop()
            if node.token not in ids:
                ids[node.token] = len(graph)
                # a token of no entries (a leaf) is not probed
                graph.append([] if node.count == 0
                             else self._read(node.token, node.count))
                todo += graph[-1][::-1]
        self.answered = self.answered or bool(graph[0])
        return [[(ids[node.token], node) for node in edges] for edges in graph]

    def _read(self, ref, count: int | None) -> list[PathNode]:
        edges: list[PathNode] = []
        open_value = None  # made once a probe answers
        for counter in self._counters(count):
            value = self.index.lookup(self._key(ref, counter))
            if value is None:
                self._missed(counter, count)
                break
            open_value = open_value or self._opener(ref)
            payload = open_value(counter, value)
            if len(payload) != self.payload.size:
                raise FormatError("index value has unexpected payload size")
            edges.append(self._node(self.payload.unpack(payload)))
        return edges

    def _node(self, fields: tuple) -> PathNode:
        right, count, line, *scope = fields
        return PathNode(right, line, tuple(scope), count=count)

    def _counters(self, count: int | None) -> range:
        """The counters to probe for a token of count entries: 1 to count,
        or for a sink (count None) up to one past the index's entries, by
        which its first miss must come.  A count past the index's entries
        is a FormatError."""
        if count is None:
            return range(1, self.size + 2)
        if count > self.size:
            raise FormatError(f"index: a value gives its token {count} "
                              f"entries, more than the index's {self.size}")
        return range(1, count + 1)

    @staticmethod
    def _missed(counter: int, count: int | None) -> None:
        """A probe missed: that ends a sink's entries (count None), and
        below a count it is a FormatError."""
        if count is not None:
            raise FormatError(f"index: entry {counter} of a token of "
                              f"{count} entries is missing")


class PlainReader(Reader):
    """Reader for the unencrypted debugging mode.  A token's identity
    block keys its entries (`plain_key`) and is its identity, and a value
    is its payload.  A right block must name a token, as
    `open_token_keys` checks an opened secret."""

    _key = staticmethod(plain_key)

    @staticmethod
    def _opener(block: bytes):
        return lambda counter, value: value

    def _node(self, fields: tuple) -> PathNode:
        if open_token_blocks(fields[0]) == [None]:
            raise FormatError(
                "index: a plain value names no token: its identity block "
                "has non-zero check bytes, an unknown family code, or a "
                "fixed name with a number")
        return super()._node(fields)


class IndexReader(Reader):
    """Counter-probing reader for std mode: fields are plain integers.
    A token's secret makes its lookup keys and, once one answers, its
    value key under the index's salt; entry c opens under the implicit
    nonce of counter c.  The identity of each secret the final check
    meets is derived once per reader."""

    def __init__(self, index) -> None:
        super().__init__(index)
        self.identity = functools.cache(derive_identity)

    @staticmethod
    def _key(secret: bytes, counter: int) -> bytes:
        return det_encrypt(secret, counter.to_bytes(4, "big"))

    def _opener(self, secret: bytes):
        return value_opener(derive_value_key(secret, self.index.salt))


class OreReader(IndexReader):
    """Reader for ore mode: lines become per-file ranks, scopes stay tags.

    A line names a slot of the index's table and the key that opens it.
    A slot is opened when a decrypted entry first names it with that key,
    and kept for the reader's life.  Lines compare at the index's width."""

    def __init__(self, index) -> None:
        super().__init__(index)
        # (slot number, slot key) -> ciphertext
        self._opened: dict[tuple[int, bytes], bytes] = {}

    def _node(self, fields: tuple) -> PathNode:
        right, count, number, key, scope = fields
        return PathNode(right, None, scope, ct=self._open(number, key),
                        count=count)

    def _open(self, number: int, key: bytes) -> bytes:
        ct = self._opened.get((number, key))
        if ct is None:
            if number >= len(self.index.slots):
                raise FormatError(f"index: slot {number} is past the end of "
                                  f"the {len(self.index.slots)}-slot table")
            ct = rnd_decrypt(key, self.index.slots[number])
            if len(ct) != ore_ciphertext_bytes(self.index.ore_width):
                raise FormatError(f"index: slot {number} holds {len(ct)} "
                                  "bytes, not an order-revealing ciphertext")
            self._opened[number, key] = ct
        return ct

    def graph(self, ref) -> list[list[tuple[int, PathNode]]]:
        """As Reader.graph, with the walk's lines ranked."""
        graph = super().graph(ref)
        nodes = [node for edges in graph for _, node in edges]
        ranks = ore_ranks([node.ct for node in nodes], self.index.ore_width)
        for node, rank in zip(nodes, ranks):
            node.line = rank
        return graph


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
    no entries or one it already expanded (a cycle).  The tokens the sink
    reaches come from one reader walk (`Reader.graph`).

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
    graph = reader.graph(fq.sens)
    if not graph[0]:
        return []
    bits: dict[object, int] = {}  # scope -> its bit in a signature
    kids = []  # per token: its distinct entries, (line, token, scope bit, node)
    last = []  # per token: the latest line of its entries
    for edges in graph:
        row: dict[tuple, tuple] = {}  # equal entries count once
        for c, e in edges:
            k = (e.line, c, bits.setdefault(e.scope, 1 << len(bits)))
            row.setdefault(k, (*k, e))
        kids.append(tuple(row.values()))
        last.append(max(row)[0] if row else None)
    memos: dict[tuple, dict] = {}  # per sink line and scope: summaries
    found = []  # ((sink line, signature), path), in walk order
    order: dict[tuple, None] = {}  # (sink line, signature), as first met
    work = 0
    for line, first, scope, head in kids[0]:
        sink = PathNode(fq.sens, line, head.scope, head.ct)
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


# Steps 2-4 as the paper states them: find_paths keeps what they keep.
def remove_invalid_paths(paths: list[list[PathNode]]) -> list[list[PathNode]]:
    """Step 2: drop flows that would run backwards inside one scope.

    A node later in the file than the sink cannot feed it when both sit in
    the same branch scope; across different scopes order stays ambiguous
    (alternation may execute either first), so those paths survive.
    """
    kept = []
    for nodes in paths:
        sink = nodes[0]
        if not any(node.line > sink.line and node.scope == sink.scope
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
            signature = frozenset([n.scope for n in nodes[1:]])
            buckets.setdefault(signature, []).append(nodes)
        for bucket in buckets.values():
            selected += _tournament(bucket) if len(bucket) > 1 else bucket
    return selected


def _tournament(bucket: list[list[PathNode]]) -> list[list[PathNode]]:
    """Step 4 in one bucket, pairwise; detection never runs it, as
    find_paths settles the same contest as it walks.  A candidate meets
    each survivor where they first differ: on one line both stay, else it
    wins only by a later line before the sink, and a duplicate loses.  If
    it loses once it is dropped, else those it beat are."""
    line, kept = bucket[0][0].line, []  # kept: (node fields, path) pairs
    for nodes in bucket:
        keys = [(n.token, n.line, n.scope) for n in nodes]
        beaten = set()
        for i, (other, _) in enumerate(kept):
            at = next((j for j, pair in enumerate(zip(other, keys))
                       if pair[0] != pair[1]), min(len(other), len(keys)))
            s_line = other[at][1] if at < len(other) else None
            c_line = keys[at][1] if at < len(keys) else None
            if s_line is not None and s_line == c_line:
                continue
            if c_line is None or c_line >= line or (
                    s_line is not None and s_line < line and c_line <= s_line):
                break  # lost, a duplicate included
            beaten.add(i)
        else:
            kept = [k for i, k in enumerate(kept) if i not in beaten]
            kept.append((keys, nodes))
    return [nodes for _, nodes in kept]


def check_vulnerability(paths: list[list[PathNode]], fq: FileQuery,
                        identity) -> list[list[PathNode]]:
    """Final filter: flows that start at an entry point and skip sanitizers.

    The query names the entry point and the sanitizer by their
    identities, and `identity` gives that of a node's token: the
    reader's (`Reader.identity`)."""
    return [nodes for nodes in paths
            if identity(nodes[-1].token) == fq.input_id
            and all(identity(node.token) != fq.san_id for node in nodes)]


def detect(reader, fq: FileQuery) -> tuple[list[list[PathNode]], bool]:
    """Detection over one file, for `analyse` and the plaintext oracle:
    `find_paths`, then the final check.  Returns the findings, and False
    if the file ran out of DETECTION_BUDGET (then it has none)."""
    try:
        paths = find_paths(reader, fq)
    except _OverBudget:
        return [], False
    return check_vulnerability(paths, fq, reader.identity), True


# --- full run and reports -------------------------------------------------------

REPORT_VERSION = 3
# The fields of a node in a decrypted report, and the columns of a plain or
# std report's node table; an ore report's rows are ORE_NODE_FIELDS
NODE_FIELDS = ("token", "line", "depth", "order", "type")
ORE_NODE_FIELDS = ("token", "line", "scope")
# A file's tokens and ore scope tags are each one hex string of 16-byte
# blocks; an ore line name is n slot bytes and 8 check bytes (ore_name)
_BLOCKS = re.compile("(?:[0-9a-f]{32})*")
_LINE = re.compile("(?:[0-9a-f]{2}){9,12}")


def node_to_dict(node: PathNode) -> dict:
    """Decrypted-report form of a plaintext node."""
    return dict(zip(NODE_FIELDS, (node.token, node.line, *node.scope)))


def report_entry(file_id: int, findings: list[list[PathNode]], width: int,
                 lines: dict[bytes, int]) -> dict:
    """A file's report entry (docs/formats.md): its tokens but the entry
    point (token 0) and in ore mode its scope tags, each once in first-use
    order; its nodes, each once, with ore lines named in `lines`, which
    this extends; and its findings, as indices of their nodes."""
    tokens = {findings[0][-1].token: 0}  # the entry point, where all end
    scopes: dict[bytes, int] = {}

    def row(node: PathNode) -> tuple:
        token = tokens.setdefault(node.token, len(tokens))
        if not width:
            return token, node.line, *node.scope
        return (token, lines.setdefault(ore_name(node.ct, width), len(lines)),
                scopes.setdefault(node.scope, len(scopes)))

    table: dict[tuple, int] = {}  # every path has a sink node of its own
    paths = [[table.setdefault(row(n), len(table)) for n in nodes]
             for nodes in findings]
    entry = {"file": file_id, "tokens": b"".join(list(tokens)[1:]).hex()}
    if width:
        entry["scopes"] = b"".join(scopes).hex()
    return entry | {"nodes": [list(n) for n in table], "findings": paths}


def analyse(index: EncryptedIndex, query: Query) -> dict:
    """Run the full detection over one index with one query.  The report
    holds the entry (`report_entry`) of each file with findings, and in
    ore mode before them `lines`, each line name they use once."""
    if query.mode != index.mode:
        raise FormatError(
            f"query was authorised for mode {query.mode!r} but the index "
            f"was built in mode {index.mode!r}"
        )
    reader = make_reader(index)
    report: dict = {"version": REPORT_VERSION, "task": query.task,
                    "mode": query.mode}
    lines: dict[bytes, int] = {}
    files, warnings = [], []
    for fq in sorted(query.files, key=lambda f: f.file_id):
        findings, complete = detect(reader, fq)
        if not complete:
            warnings.append(BUDGET_WARNING.format(fq.file_id))
        if findings:
            files.append(report_entry(fq.file_id, findings, index.ore_width,
                                      lines))
    if index.mode == "ore":
        report["lines"] = [name.hex() for name in lines]
    report["files"] = files
    if not reader.answered and len(index) > 0:
        warnings.append(
            "no sensitive entries answered any probe: the index has no sink "
            f"of task {query.task}, or the query keys do not match it")
    for message in warnings:
        log.warning(message, extra=IN_REPORT)
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


def _blocks(entry: dict, key: str, file_id: int) -> list[bytes]:
    """The distinct 16-byte blocks a file's hex string `key` spells."""
    text = _get(entry, key, str)
    blocks = [text[i:i + 32] for i in range(0, len(text), 32)]
    if not _BLOCKS.fullmatch(text) or len(set(blocks)) < len(blocks):
        raise FormatError(f"report: the {key} of file {file_id} are not "
                          "distinct blocks of 32 lowercase hex digits")
    return [bytes.fromhex(block) for block in blocks]


def decrypt_report(report: dict, ks: KeyStore) -> dict:
    """Resolve an analysis report into file paths, token names and lines.

    The report comes back from the analyser, so it is checked whole before
    anything in it is opened (docs/formats.md): a malformed report or one
    of another version raises FormatError, and one of another mode or
    naming a file id the key store does not hold KeyMismatchError.  Then
    all tokens open in one AES call (plain ones are identity blocks, read
    as they are), all scope tags in another and each line name once; token
    0 is INPUT.  A token of no name of its file, a line name that does not
    match or a scope tag of another file is a KeyMismatchError, or for a
    plain token, with no keys to blame, a FormatError.  Every file of the
    key store comes out, in file-id order, each finding as the path of its
    nodes (NODE_FIELDS) from sink to source."""
    version = report.get("version") if isinstance(report, dict) else None
    if type(version) is not int or version != REPORT_VERSION:
        raise FormatError(f"report of version {version!r}: this cca reads "
                          f"report version {REPORT_VERSION} only")
    mode = _get(report, "mode", str)
    if mode != ks.mode:
        raise KeyMismatchError(f"report was made in mode {mode!r} but the "
                               f"key store is for mode {ks.mode!r}")
    task = _get(report, "task", str)
    if task not in TASKS:
        raise FormatError(f"report: unknown task {task!r}")
    out = {"task": task, "mode": mode, "files": []}
    ore = mode == "ore"
    fields = ORE_NODE_FIELDS if ore else NODE_FIELDS
    line_names = _get(report, "lines", list) if ore else []
    for text in line_names:
        if not isinstance(text, str) or not _LINE.fullmatch(text):
            raise FormatError(f"report: line {text!r} is not an ore name of "
                              "1 to 4 blocks, 18 to 24 lowercase hex digits")

    def check_finding(finding, size: int) -> list[int]:
        if not isinstance(finding, list):
            raise FormatError("report: a finding is not a list of indices "
                              "into its file's nodes")
        if not finding:
            raise FormatError("report: empty finding")
        for i in finding:
            if type(i) is not int or not 0 <= i < size:
                raise FormatError(f"report: finding names node {i!r}, not "
                                  f"an index into the file's {size} nodes")
        return finding

    files = {}  # file id -> (its checked rows, its checked findings)
    tokens, tags = {}, {}  # (file id, index in its row column) -> block
    for entry in _get(report, "files", list):
        file_id = _get(entry, "file", int)
        if files and file_id <= last:
            raise FormatError(f"report: file {file_id} follows file {last}; "
                              "file ids must ascend")
        if file_id not in ks.files:
            raise KeyMismatchError(f"report names file {file_id}, which this "
                                   "key store does not hold")
        last, blocks = file_id, _blocks(entry, "tokens", file_id)
        tokens.update(((file_id, k), b) for k, b in enumerate(blocks, 1))
        sizes = [len(blocks) + 1]  # the refs each index column may name
        if ore:
            blocks = _blocks(entry, "scopes", file_id)
            tags.update(((file_id, k), b) for k, b in enumerate(blocks))
            sizes += [len(line_names), len(blocks)]
        rows = _get(entry, "nodes", list)
        for row in rows:
            if not isinstance(row, list) or len(row) != len(fields):
                raise FormatError("report: a node is not a list of "
                                  + ", ".join(fields))
            for field, i in zip(fields, row):
                if type(i) is not int:
                    raise FormatError(f"report: node field {field!r} has the "
                                      "wrong type")
            for field, i, size in zip(fields, row, sizes):
                if not 0 <= i < size:
                    raise FormatError(f"report: node field {field!r} names "
                                      f"ref {i}, not an index into its "
                                      f"{size} refs")
        files[file_id] = rows, [check_finding(f, len(rows))
                                for f in _get(entry, "findings", list)]
    if "warnings" in report:
        out["warnings"] = list(_get(report, "warnings", list))

    names = {(f, 0): "INPUT" for f in files}  # (file id, token) -> name
    blocks = list(tokens.values())
    for (f, k), block, token in zip(tokens, blocks, open_token_blocks(
            b"".join(blocks)) if mode == "plain"
            else open_token_keys(ks.master.det, blocks)):
        names[f, k] = token and ks.token_name(f, token)
        if names[f, k] is None:
            message = f"token {block.hex()!r} is no name of file {f}"
            if mode == "plain":  # which has no keys to blame
                raise FormatError(f"report: {message}")
            raise KeyMismatchError(
                f"{message} under this key store; the report was produced "
                "from an index built with different keys")
    if ore:
        line_key = derive_ore_key(ks.master.ore_line)
        lines = [ore_name_value(line_key, name, ORE_BLOCK_BITS * (
            len(name) - ORE_CHECK_BYTES)) for name in map(bytes.fromhex,
                                                          line_names)]
        scopes = dict(zip(tags, open_scope_tags(
            ks.master.scope, [f for f, _ in tags], list(tags.values()))))

    for f in sorted(ks.files):
        rows, findings = files.get(f, ((), ()))
        rows = ([(names[f, t], lines[n], *scopes[f, s]) for t, n, s in rows]
                if ore else [(names[f, t], *rest) for t, *rest in rows])
        table = [dict(zip(NODE_FIELDS, row)) for row in rows]
        out["files"].append({"file": ks.files[f], "findings": [
            {"sink": table[k[0]], "source": table[k[-1]],
             "path": [table[i] for i in k]} for k in findings]})
    return out
