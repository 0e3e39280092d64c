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
from .itl import (CALL_TOKENS, TOKEN_FAMILIES, ITLToken, TranslationContext,
                  family)

# Token families that may appear as the value end of a dependency pair.
VALUE_FAMILIES = frozenset(TOKEN_FAMILIES)

# Families that open a call and collect the following arguments.
OPENER_FAMILIES = frozenset({"FUNC_CALL", *CALL_TOKENS})

_COND_OPENERS = frozenset({"IF", "ELSEIF", "WHILE", "FOR", "SWITCH"})

# The frame kinds each closing token may close.
_CLOSES = {**dict.fromkeys(("END_IF", "END_ELSEIF", "END_ELSE", "END_CASE"),
                           ("arm",)),
           "END_SWITCH": ("switch",),
           **dict.fromkeys(("END_WHILE", "END_FOR", "END_FOREACH",
                            "END_FUNCTION"), ("loop", "function"))}

# Tokens that open, continue or close a scope.  None carries a number, so
# a token is its own family here.
_SCOPE_TOKENS = frozenset({"IF", "ELSEIF", "ELSE", "SWITCH", "CASE", "DEFAULT",
                           "END_COND", "WHILE", "FOR", "FOREACH", "FUNCTION",
                           *_CLOSES})


@dataclass(slots=True)
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


@dataclass(slots=True)
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
    top = frames[0]
    # (depth, order, style) waiting between a branch keyword and its body
    pending: tuple[int, int, str] | None = None
    # last closed arm per enclosing frame: maps frame index -> (order, type)
    last_arm: dict[int, tuple[int, int]] = {}

    def stamp(tok: ITLToken, frame: _Frame) -> None:
        out.append(ExtendedITLToken(tok.token, tok.line, frame.depth,
                                    frame.order, frame.cf_type))

    stream = iter(tokens)
    for tok in stream:
        fam = tok.token
        if fam not in _SCOPE_TOKENS:  # the common case: stays in scope
            out.append(ExtendedITLToken(fam, tok.line, top.depth, top.order,
                                        top.cf_type))
            continue
        if fam in ("IF", "SWITCH"):
            owner = next(f for f in reversed(frames) if f.owns_chains)
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
            if pending is not None:  # loop conditions end with their keyword
                depth, order, style = pending
                pending = None
                if style == "if":
                    frames.append(_Frame(depth, order, 1, True, "arm"))
                elif style.startswith("elseif"):
                    cf_type = int(style.split(":")[1])
                    frames.append(_Frame(depth, order, cf_type, True, "arm"))
                else:  # switch: case arms follow
                    frames.append(_Frame(depth, order, 0, False, "switch"))
        elif fam in ("WHILE", "FOR", "FOREACH"):
            # transparent: condition stays in the current scope, the body
            # frame copies it and delegates chain counting upward
            stamp(tok, top)
            for cond in stream:
                stamp(cond, top)
                if cond.token == "END_COND":
                    break
            frames.append(_Frame(top.depth, top.order, top.cf_type,
                                 False, "loop"))
        elif fam == "FUNCTION":
            stamp(tok, top)
            frames.append(_Frame(top.depth, top.order, top.cf_type,
                                 False, "function"))
        elif fam in ("CASE", "DEFAULT"):
            if top.kind != "switch":
                raise StructureError(
                    f"{path}:{tok.line}: {fam.lower()} outside switch")
            if fam == "CASE":
                top.chain_count += 1
            frames.append(_Frame(top.depth, top.order,
                                 top.chain_count if fam == "CASE" else -1,
                                 True, "arm"))
            stamp(tok, frames[-1])
        else:  # a closing token
            if top.kind not in _CLOSES[fam]:
                raise StructureError(f"{path}:{tok.line}: {fam} closes nothing")
            stamp(tok, top)
            frames.pop()
            if top.kind == "arm" and fam != "END_ELSE":
                last_arm[len(frames)] = (top.order, top.cf_type)
        top = frames[-1]

    if len(frames) != 1:
        raise StructureError(f"{path}: unbalanced branch structure at end of file")
    return out


def build_dcfg(tokens: list[ExtendedITLToken],
               ctx: TranslationContext) -> DCFG:
    """Extract the dependency pairs of an annotated stream."""
    assign_ops = ctx.assignment_ops()
    compound_ops = ctx.compound_ops()
    pairs: list[DCFGPair] = []
    seen: set[tuple] = set()
    owners: list[str] = []  # open call tokens, transparent markers included
    left: ExtendedITLToken | None = None

    def add(left_token: str, right: ExtendedITLToken) -> None:
        key = (left_token, right.token, right.line, right.depth, right.order,
               right.cf_type)
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

    return DCFG(pairs)


def dump_dcfg(dcfg: DCFG) -> str:
    """One line per pair: LEFT -> (RIGHT,line,depth,order,type)."""
    return "".join(f"{pair}\n" for pair in dcfg.pairs)
