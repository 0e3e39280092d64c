"""Data and control flow graph over the intermediate token stream.

Two passes.  Annotation walks branch structure and stamps every token with
(depth, order, cf_type): how deep in nested branches the statement sits,
which chain of branches it belongs to among siblings, and which arm of that
chain (1 for the first, 2, 3, ... for following alternatives, -1 for the
fallback arm, 0 outside any branch).  Loop and function bodies are
transparent: a single analysis pass treats their bodies as executing once.

Dependency extraction then emits one pair per direct dataflow: assignment
left side to each value on the right, call token to each of its arguments,
loop binding variable to the collection it iterates.  Condition expressions
never contribute pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructureError
from .itl import CALL_TOKENS, ITLToken, TranslationContext, family

# Token families that may appear as the value end of a dependency pair.
VALUE_FAMILIES = frozenset({"VAR", "INPUT", "STRING", "FUNC_CALL", *CALL_TOKENS})

# Families that open a call and collect the following arguments.
OPENER_FAMILIES = frozenset({"FUNC_CALL", *CALL_TOKENS})

_COND_OPENERS = frozenset({"IF", "ELSEIF", "WHILE", "FOR", "SWITCH"})

_LOOP_END = {"END_WHILE": "while", "END_FOR": "for",
             "END_FOREACH": "foreach", "END_FUNCTION": "function"}


@dataclass(frozen=True)
class ExtendedITLToken:
    """ITL token extended with control flow facts."""

    token: str
    line: int
    depth: int
    order: int
    cf_type: int

    @property
    def flow(self) -> tuple[int, int, int]:
        return (self.depth, self.order, self.cf_type)


@dataclass(frozen=True)
class DCFGPair:
    left: str
    right: ExtendedITLToken

    def __str__(self) -> str:
        r = self.right
        return (f"{self.left} -> ({r.token},{r.line},{r.depth},"
                f"{r.order},{r.cf_type})")


@dataclass
class DCFG:
    pairs: list[DCFGPair]

    def by_left(self) -> dict[str, list[DCFGPair]]:
        """Pairs grouped by left token, groups and entries in source order."""
        grouped: dict[str, list[DCFGPair]] = {}
        for pair in self.pairs:
            grouped.setdefault(pair.left, []).append(pair)
        return grouped

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


class _Frame:
    """One annotation scope: the root, a branch arm, or a transparent body."""

    __slots__ = ("depth", "order", "cf_type", "owns_chains", "chain_count", "kind")

    def __init__(self, depth: int, order: int, cf_type: int,
                 owns_chains: bool, kind: str) -> None:
        self.depth = depth
        self.order = order
        self.cf_type = cf_type
        self.owns_chains = owns_chains
        self.chain_count = 0
        self.kind = kind


def annotate_control_flow(tokens: list[ITLToken],
                          path: str = "<string>") -> list[ExtendedITLToken]:
    """Stamp every token with its (depth, order, cf_type) triple."""
    out: list[ExtendedITLToken] = []
    frames: list[_Frame] = [_Frame(0, 0, 0, True, "root")]
    # (depth, order, style) waiting between a branch keyword and its body
    pending: tuple[int, int, str] | None = None
    # last closed arm per enclosing frame: maps frame index -> (order, type)
    last_arm: dict[int, tuple[int, int]] = {}

    def chain_owner() -> _Frame:
        for frame in reversed(frames):
            if frame.owns_chains:
                return frame
        return frames[0]

    def stamp(tok: ITLToken, frame: _Frame) -> None:
        out.append(ExtendedITLToken(tok.token, tok.line, frame.depth,
                                    frame.order, frame.cf_type))

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        fam = family(tok.token)
        top = frames[-1]

        if fam in ("IF", "SWITCH"):
            owner = chain_owner()
            owner.chain_count += 1
            pending = (top.depth + 1, owner.chain_count,
                       "switch" if fam == "SWITCH" else "if")
            stamp(tok, top)
        elif fam == "ELSEIF":
            prev = last_arm.get(len(frames))
            if prev is None:
                raise StructureError(f"{path}:{tok.line}: elseif without an if arm")
            pending = (top.depth + 1, prev[0], f"elseif:{prev[1] + 1}")
            stamp(tok, top)
        elif fam == "ELSE":
            prev = last_arm.get(len(frames))
            if prev is None:
                raise StructureError(f"{path}:{tok.line}: else without an if arm")
            stamp(tok, top)
            frames.append(_Frame(top.depth + 1, prev[0], -1, True, "arm"))
        elif fam == "END_COND":
            stamp(tok, top)
            if pending is None:
                pass  # loop conditions handled below by their keyword
            else:
                depth, order, style = pending
                pending = None
                if style == "if":
                    frames.append(_Frame(depth, order, 1, True, "arm"))
                elif style.startswith("elseif"):
                    cf_type = int(style.split(":")[1])
                    frames.append(_Frame(depth, order, cf_type, True, "arm"))
                else:  # switch: case arms follow
                    switch = _Frame(depth, order, 0, False, "switch")
                    frames.append(switch)
        elif fam in ("WHILE", "FOR", "FOREACH"):
            # transparent: condition stays in the current scope, the body
            # frame copies it and delegates chain counting upward
            stamp(tok, top)
            j = i + 1
            while j < len(tokens) and tokens[j].token != "END_COND":
                stamp(tokens[j], top)
                j += 1
            if j < len(tokens):
                stamp(tokens[j], top)
            frames.append(_Frame(top.depth, top.order, top.cf_type,
                                 False, "loop"))
            i = j + 1
            continue
        elif fam == "FUNCTION":
            stamp(tok, top)
            frames.append(_Frame(top.depth, top.order, top.cf_type,
                                 False, "function"))
        elif fam == "CASE":
            if top.kind != "switch":
                raise StructureError(f"{path}:{tok.line}: case outside switch")
            top.chain_count += 1
            frames.append(_Frame(top.depth, top.order, top.chain_count,
                                 True, "arm"))
            stamp(tok, frames[-1])
        elif fam == "DEFAULT":
            if top.kind != "switch":
                raise StructureError(f"{path}:{tok.line}: default outside switch")
            frames.append(_Frame(top.depth, top.order, -1, True, "arm"))
            stamp(tok, frames[-1])
        elif fam in ("END_IF", "END_ELSEIF", "END_ELSE", "END_CASE"):
            if top.kind != "arm":
                raise StructureError(f"{path}:{tok.line}: {tok.token} closes nothing")
            stamp(tok, top)
            frames.pop()
            if fam != "END_ELSE":
                last_arm[len(frames)] = (top.order, top.cf_type)
        elif fam == "END_SWITCH":
            if top.kind != "switch":
                raise StructureError(f"{path}:{tok.line}: {tok.token} closes nothing")
            stamp(tok, top)
            frames.pop()
        elif fam in _LOOP_END:
            if top.kind not in ("loop", "function"):
                raise StructureError(f"{path}:{tok.line}: {tok.token} closes nothing")
            stamp(tok, top)
            frames.pop()
        else:
            stamp(tok, top)
        i += 1

    if len(frames) != 1:
        raise StructureError(f"{path}: unbalanced branch structure at end of file")
    return out


def find_data_dependencies(tokens: list[ExtendedITLToken],
                           ctx: TranslationContext) -> list[DCFGPair]:
    """Extract dependency pairs from the annotated token stream."""
    assign_ops = ctx.assignment_ops()
    compound_ops = ctx.compound_ops()
    pairs: list[DCFGPair] = []
    seen: set[tuple] = set()
    owners: list[str] = []  # open call tokens, transparent markers included
    left: ExtendedITLToken | None = None

    def add(left_token: str, right: ExtendedITLToken) -> None:
        key = (left_token, right.token, right.line, right.flow)
        if key not in seen:
            seen.add(key)
            pairs.append(DCFGPair(left_token, right))

    def effective_owner() -> str | None:
        for owner in reversed(owners):
            if owner != "ARRAY":
                return owner
        return None

    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        fam = family(tok.token)

        if fam in _COND_OPENERS:
            i += 1
            while i < n and tokens[i].token != "END_COND":
                i += 1
            i += 1
            continue

        if fam == "FOREACH":
            header: list[ExtendedITLToken] = []
            i += 1
            while i < n and tokens[i].token != "END_COND":
                header.append(tokens[i])
                i += 1
            i += 1
            split = next((k for k, h in enumerate(header) if h.token == "AS"), None)
            if split is not None:
                sources = [h for h in header[:split]
                           if family(h.token) in VALUE_FAMILIES]
                for target in header[split + 1:]:
                    if family(target.token) != "VAR":
                        continue
                    for source in sources:
                        add(target.token, source)
            continue

        if tok.token == "END_CALL":
            if owners:
                owners.pop()
            i += 1
            continue
        if tok.token == "END_ASSIGN":
            left = None
            i += 1
            continue
        if fam == "ARRAY":
            owners.append("ARRAY")
            i += 1
            continue

        if fam == "VAR" and left is None and not owners:
            # assignment target when an assignment operator follows the
            # variable and any accessor variables trailing it
            j = i + 1
            while j < n and family(tokens[j].token) in ("VAR", "INPUT"):
                j += 1
            if j < n and tokens[j].token in assign_ops:
                left = tok
                if tokens[j].token in compound_ops:
                    add(tok.token, tok)
                i = j + 1
                continue
            i += 1
            continue

        if fam in VALUE_FAMILIES:
            owner = effective_owner()
            if owner is not None:
                add(owner, tok)
            elif left is not None:
                add(left.token, tok)
            if fam in OPENER_FAMILIES:
                owners.append(tok.token)
        i += 1

    return pairs


def build_dcfg(extended: list[ExtendedITLToken],
               ctx: TranslationContext) -> DCFG:
    """Extract the dependency pairs of an annotated stream."""
    return DCFG(find_data_dependencies(extended, ctx))


def dump_dcfg(dcfg: DCFG) -> str:
    """One line per pair: LEFT -> (RIGHT,line,depth,order,type)."""
    return "".join(f"{pair}\n" for pair in dcfg.pairs)
