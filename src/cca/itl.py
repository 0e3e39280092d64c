"""Intermediate token language: rules, task knowledge, and translation.

Translation rewrites the lexer's token stream into an obfuscated stream that
keeps dataflow structure but drops every concrete name: variables become
VAR0/VAR1/..., operators OP0/OP1/..., function names FUNC_CALL0/..., entry
points a single INPUT token, and sensitive/sanitising calls their task
tokens.  Structural closings gain explicit ending tokens so later stages can
recover statement and branch shape without source text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .errors import ConfigError, StructureError, TranslationError
from .frontend import LexToken

# Analysis tasks in container code order (xss is 0, sqli 1), each with the
# task tokens of its sensitive sinks and of its sanitizers.
TASKS = {"xss": ("XSS_SENS", "XSS_SAN"), "sqli": ("SQLi_SENS", "SQLi_SAN")}

# Task tokens that stand for a call: every sink, then every sanitizer.
CALL_TOKENS = (tuple(sens for sens, _ in TASKS.values())
               + tuple(san for _, san in TASKS.values()))

# Task tokens applied from task knowledge.
TASK_TOKENS = ("INPUT",) + CALL_TOKENS

# Ending tokens appended while translating (twelve).
ENDING_TOKENS = (
    "END_ASSIGN",
    "END_CALL",
    "END_COND",
    "END_IF",
    "END_ELSEIF",
    "END_ELSE",
    "END_SWITCH",
    "END_CASE",
    "END_WHILE",
    "END_FOR",
    "END_FOREACH",
    "END_FUNCTION",
)

# Families that originate directly from LexTokens (twenty-three).  VAR, OP
# and FUNC_CALL are counted families whose members carry a position suffix.
BASE_FAMILIES = (
    "VAR",
    "OP",
    "FUNC_CALL",
    "STRING",
    "NUMBER",
    "BOOL",
    "NULL",
    "IF",
    "ELSEIF",
    "ELSE",
    "SWITCH",
    "CASE",
    "DEFAULT",
    "BREAK",
    "CONTINUE",
    "WHILE",
    "FOR",
    "FOREACH",
    "AS",
    "FUNCTION",
    "RETURN",
    "GLOBAL",
    "ARRAY",
)

ALL_FAMILIES = BASE_FAMILIES + ENDING_TOKENS + TASK_TOKENS

_SUFFIX = re.compile(r"\d+$")


def family(token: str) -> str:
    """Family name of a token id: VAR12 -> VAR, END_IF -> END_IF."""
    return _SUFFIX.sub("", token)


@dataclass
class ITLToken:
    token: str
    line: int

    def __iter__(self):
        return iter((self.token, self.line))


# --- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class RuleSet:
    """Translation choices a rules file may set."""

    # Split double-quoted strings around embedded variables:
    # "Welcome {$user}!" becomes STRING VAR STRING instead of one STRING.
    split_string_interpolation: bool = True


# Rule keys of earlier versions, now fixed by the token language itself.
_REMOVED_RULES = ("metacharacter_drops", "ending_tokens", "abstract_names")


@dataclass(frozen=True)
class TaskKnowledge:
    """The names under each task token; fields follow TASK_TOKENS order."""

    inputs: frozenset[str]
    xss_sens: frozenset[str]
    sqli_sens: frozenset[str]
    xss_san: frozenset[str]
    sqli_san: frozenset[str]

    def function_token(self, name: str) -> str | None:
        name = name.lower()
        for token, names in zip(CALL_TOKENS, (self.xss_sens, self.sqli_sens,
                                              self.xss_san, self.sqli_san)):
            if name in names:
                return token
        return None


def _read_db(path: Path | str | None,
             default: str | None = None) -> tuple[dict, str]:
    """Parse a YAML mapping: the file at path, else the bundled default."""
    if path is None:
        text = resources.files("cca.data").joinpath(default).read_text("utf-8")
        where = f"<builtin {default}>"
    else:
        where = str(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{where}: not UTF-8 text: {exc}") from None
    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, RecursionError) as exc:  # or nested too deeply
        raise ConfigError(f"{where}: not parseable: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: not a mapping of keys")
    return data, where


def load_rules(path: Path | str | None = None) -> RuleSet:
    """Load and validate a translation rules file; None gives the defaults."""
    if path is None:
        return RuleSet()
    data, where = _read_db(path)
    for key, value in data.items():
        if key in _REMOVED_RULES:
            raise ConfigError(f"{where}: {key!r} is no longer configurable")
        if key != "split_string_interpolation":
            raise ConfigError(f"{where}: unknown key {key!r}")
        if not isinstance(value, bool):
            raise ConfigError(
                f"{where}: {key!r} must be true or false, got {value!r}")
    return RuleSet(**data)


def load_task_knowledge(path: Path | str | None = None) -> TaskKnowledge:
    """Load and validate a task knowledge database."""
    data, where = _read_db(path, "task_knowledge.yaml")
    sets: dict[str, frozenset[str]] = {}
    for token in TASK_TOKENS:
        if token not in data or not isinstance(data[token], list) or not data[token]:
            raise ConfigError(f"{where}: missing or empty section {token!r}")
        names = data[token]
        for name in names:
            if not isinstance(name, str) or not name:
                raise ConfigError(f"{where}: bad name {name!r} under {token}")
            if token == "INPUT":
                if not name.startswith("$"):
                    raise ConfigError(
                        f"{where}: entry point {name!r} must be a variable"
                    )
            elif name.startswith("$"):
                raise ConfigError(
                    f"{where}: function name {name!r} must not be a variable"
                )
        # Function names match case-insensitively, entry points exactly.
        sets[token] = frozenset(names if token == "INPUT" else (n.lower() for n in names))
    seen: dict[str, str] = {}
    for token, names in sets.items():
        for name in names:
            if name in seen:
                raise ConfigError(
                    f"{where}: {name!r} appears under both {seen[name]} and {token}"
                )
            seen[name] = token
    return TaskKnowledge(*(sets[token] for token in TASK_TOKENS))


# --- translation -------------------------------------------------------------

@dataclass
class TranslationContext:
    """Developer-side metadata produced while translating one file.

    Never serialized into the index: it ties abstract names back to concrete
    lexical facts (which OPk is an assignment, how many names were seen).
    """

    op_kinds: dict[str, str] = field(default_factory=dict)
    var_count: int = 0
    op_count: int = 0
    func_count: int = 0

    def assignment_ops(self) -> frozenset[str]:
        return frozenset(
            tok for tok, kind in self.op_kinds.items()
            if kind in ("EQUALS", "CONCAT_EQUALS")
        )

    def compound_ops(self) -> frozenset[str]:
        return frozenset(
            tok for tok, kind in self.op_kinds.items() if kind == "CONCAT_EQUALS"
        )


# Interpolated variables in double-quoted strings: {$name[...]} or $name[...].
_INTERP = re.compile(
    r"\{\$(?P<braced>[A-Za-z_]\w*)(?:\[[^\]]*\])?\}"
    r"|\$(?P<plain>[A-Za-z_]\w*)(?:\[[^\]]*\])?"
)

_OP_KINDS = frozenset(
    {
        "EQUALS", "PLUS", "MINUS", "TIMES", "DIVIDE", "MOD", "CONCAT",
        "CONCAT_EQUALS", "EQ", "NEQ", "LT", "GT", "LE", "GE", "AND", "OR",
        "NOT",
    }
)

_CALLABLE_FAMILIES = ("FUNC_CALL", "ARRAY") + CALL_TOKENS

# Ending token of each block kind; a bare { } block has none.
_BLOCK_ENDS = {"if": "END_IF", "elseif": "END_ELSEIF", "else": "END_ELSE",
               "while": "END_WHILE", "for": "END_FOR",
               "foreach": "END_FOREACH", "switch": "END_SWITCH",
               "case": "END_CASE", "default": "END_CASE",
               "function": "END_FUNCTION"}


class _Translator:
    """Stateful single-file translation pass."""

    def __init__(self, rules: RuleSet, tk: TaskKnowledge, path: str) -> None:
        self.rules = rules
        self.tk = tk
        self.path = path
        self.out: list[ITLToken] = []
        self.ctx = TranslationContext()
        self.vars: dict[str, int] = {}
        self.ops: dict[str, int] = {}
        self.funcs: dict[str, int] = {}
        # paren stack entries: (kind, owner) with kind call|cond|group
        self.parens: list[tuple[str, str]] = []
        # block stack entries: [kind, braced]
        self.blocks: list[list] = []
        # branch kind waiting for its body ({ or single statement)
        self.pending_branch: str | None = None
        # latch: an if/elseif branch just closed, else/elseif may continue it
        self.reopenable: list[str] = []
        self.expect_function = False
        self.stmt_open = False
        self.stmt_is_call = False
        self.stmt_has_assign = False
        # a case/default label whose closing colon has not been seen yet
        self.case_header = False

    # -- emission helpers

    def emit(self, token: str, line: int) -> None:
        self.out.append(ITLToken(token, line))

    def var_token(self, name: str) -> str:
        if name not in self.vars:
            self.vars[name] = self.ctx.var_count
            self.ctx.var_count += 1
        return f"VAR{self.vars[name]}"

    def op_token(self, kind: str) -> str:
        if kind not in self.ops:
            self.ops[kind] = self.ctx.op_count
            self.ctx.op_count += 1
        tok = f"OP{self.ops[kind]}"
        self.ctx.op_kinds.setdefault(tok, kind)
        return tok

    def func_token(self, name: str) -> str:
        name = name.lower()
        if name not in self.funcs:
            self.funcs[name] = self.ctx.func_count
            self.ctx.func_count += 1
        return f"FUNC_CALL{self.funcs[name]}"

    def reset_stmt(self) -> None:
        self.stmt_open = False
        self.stmt_is_call = False
        self.stmt_has_assign = False

    def touch_statement(self, callish: bool) -> None:
        if not self.stmt_open:
            self.stmt_open = True
            self.stmt_is_call = callish
            self.stmt_has_assign = False

    # -- main loop

    def run(self, tokens: list[LexToken]) -> None:
        self.tokens = tokens
        self.i = 0
        while self.i < len(tokens):
            tok = tokens[self.i]
            self.i += 1
            self.dispatch(tok)
        if self.pending_branch is not None:
            raise StructureError(f"{self.path}: branch body missing at end of file")
        last_line = tokens[-1].line if tokens else 1
        self.flush_reopenable(last_line)
        if self.blocks:
            kind = self.blocks[-1][0]
            raise StructureError(f"{self.path}: unclosed {kind} block at end of file")
        if self.parens:
            raise StructureError(f"{self.path}: unbalanced parentheses at end of file")

    def dispatch(self, tok: LexToken) -> None:
        t = tok.type
        # A waiting branch body starts at this token: braced when a { opens
        # it, otherwise it spans exactly one statement.
        if self.pending_branch is not None and t != "LBRACE":
            if self.pending_branch == "function":
                raise StructureError(
                    f"{self.path}:{tok.line}: function body must be braced"
                )
            self.blocks.append([self.pending_branch, False])
            self.pending_branch = None
        if self.reopenable and t not in ("ELSE", "ELSEIF"):
            self.flush_reopenable(tok.line)

        if t == "LBRACE":
            if self.pending_branch is not None:
                self.blocks.append([self.pending_branch, True])
                self.pending_branch = None
            else:
                self.blocks.append(["bare", True])
            self.reset_stmt()
        elif t == "RBRACE":
            self.close_braced_block(tok.line)
        elif t == "SEMI":
            self.end_statement(tok.line)
        elif t == "LPAREN":
            self.open_paren()
        elif t == "RPAREN":
            self.close_paren(tok.line)
        elif t == "COMMA":
            pass
        elif t == "COLON":
            if self.case_header:
                # the label expression is the arm's condition test
                self.emit("END_COND", tok.line)
                self.case_header = False
            self.reset_stmt()
        elif t == "VAR":
            self.handle_var(tok)
        elif t in ("FUNC_CALL", "ISSET"):
            self.handle_call_name(tok)
        elif t == "STRING":
            self.handle_string(tok)
        elif t in ("NUMBER", "BOOL", "NULL"):
            self.touch_statement(callish=False)
            self.emit(t, tok.line)
        elif t == "IDENT":
            # Bare constants behave like opaque literal values.
            self.touch_statement(callish=False)
            self.emit("STRING", tok.line)
        elif t in _OP_KINDS:
            self.touch_statement(callish=False)
            if t in ("EQUALS", "CONCAT_EQUALS") and not self.parens:
                self.stmt_has_assign = True
            self.emit(self.op_token(t), tok.line)
        elif t in ("IF", "ELSEIF", "WHILE", "FOR", "FOREACH", "SWITCH"):
            self.handle_cond_opener(tok)
        elif t == "ELSE":
            self.handle_else(tok)
        elif t in ("BREAK", "CONTINUE", "RETURN", "GLOBAL", "AS"):
            self.touch_statement(callish=False)
            self.emit(t, tok.line)
        elif t == "ARRAY":
            self.touch_statement(callish=False)
            self.emit("ARRAY", tok.line)
        elif t in ("CASE", "DEFAULT"):
            self.handle_case(tok)
        elif t == "FUNCTION":
            self.emit("FUNCTION", tok.line)
            self.expect_function = True
        elif t == "DO":
            raise TranslationError(
                f"{self.path}:{tok.line}: do-while is outside the supported subset"
            )
        else:
            raise TranslationError(
                f"{self.path}:{tok.line}: no translation rule for LexToken {t}"
            )

    # -- statements

    def end_statement(self, line: int) -> None:
        if self.parens and self.parens[-1][0] == "cond":
            return  # for(;;) header separators carry no ending token
        if self.stmt_is_call and not self.stmt_has_assign:
            self.emit("END_CALL", line)
        else:
            self.emit("END_ASSIGN", line)
        self.reset_stmt()
        self.close_single_bodies(line)

    def close_single_bodies(self, line: int) -> None:
        """Close unbraced branch bodies ending with the current statement.

        Stops after an if/elseif body: its chain may continue with else, so
        enclosing unbraced bodies must stay open until that is decided.
        """
        while self.blocks and self.blocks[-1][1] is False:
            kind = self.blocks.pop()[0]
            self.emit_block_end(kind, line)
            if kind in ("if", "elseif"):
                break

    def emit_block_end(self, kind: str, line: int) -> None:
        if kind in _BLOCK_ENDS:
            self.emit(_BLOCK_ENDS[kind], line)
        if kind in ("if", "elseif"):
            self.reopenable.append(kind)

    def close_braced_block(self, line: int) -> None:
        if not self.blocks:
            raise StructureError(f"{self.path}:{line}: unmatched closing brace")
        if self.blocks[-1][0] in ("case", "default"):
            kind = self.blocks.pop()[0]
            self.emit_block_end(kind, line)
            if not self.blocks:
                raise StructureError(f"{self.path}:{line}: unmatched closing brace")
        kind, braced = self.blocks.pop()
        if not braced:
            raise StructureError(f"{self.path}:{line}: unexpected closing brace")
        self.emit_block_end(kind, line)
        self.reset_stmt()
        if kind not in ("if", "elseif"):
            self.close_single_bodies(line)

    def flush_reopenable(self, line: int) -> None:
        # No else or elseif followed: the latched chains are complete, and
        # enclosing unbraced branch bodies complete with them.
        while self.reopenable:
            self.reopenable.pop()
            self.close_single_bodies(line)

    # -- parens

    def open_paren(self) -> None:
        prev = self.out[-1].token if self.out else ""
        prev_family = family(prev)
        if prev_family in ("IF", "ELSEIF", "WHILE", "FOR", "FOREACH", "SWITCH"):
            self.parens.append(("cond", prev_family))
        elif prev_family in _CALLABLE_FAMILIES:
            owner = prev_family
            if self.expect_function:
                owner = "function_params"
                self.expect_function = False
            self.parens.append(("call", owner))
        else:
            self.parens.append(("group", ""))

    def close_paren(self, line: int) -> None:
        if not self.parens:
            raise StructureError(f"{self.path}:{line}: unmatched closing parenthesis")
        kind, owner = self.parens.pop()
        if kind == "call":
            self.emit("END_CALL", line)
            if owner == "function_params":
                self.pending_branch = "function"
                self.reset_stmt()
        elif kind == "cond":
            self.emit("END_COND", line)
            self.pending_branch = "switch" if owner == "SWITCH" else owner.lower()
            self.reset_stmt()

    # -- branching

    def handle_cond_opener(self, tok: LexToken) -> None:
        t = tok.type
        if t == "ELSEIF":
            if not self.reopenable:
                raise StructureError(f"{self.path}:{tok.line}: elseif without if")
            self.reopenable.pop()
        self.emit(t, tok.line)
        nxt = self.peek()
        if nxt is None or nxt.type != "LPAREN":
            raise StructureError(
                f"{self.path}:{tok.line}: {t.lower()} requires a parenthesised condition"
            )

    def handle_else(self, tok: LexToken) -> None:
        if not self.reopenable:
            raise StructureError(f"{self.path}:{tok.line}: else without if")
        self.reopenable.pop()
        self.emit("ELSE", tok.line)
        self.pending_branch = "else"
        self.reset_stmt()

    def handle_case(self, tok: LexToken) -> None:
        if self.blocks and self.blocks[-1][0] in ("case", "default"):
            kind = self.blocks.pop()[0]
            self.emit_block_end(kind, tok.line)
        if not self.blocks or self.blocks[-1][0] != "switch":
            raise StructureError(f"{self.path}:{tok.line}: case label outside switch")
        self.emit(tok.type, tok.line)
        self.blocks.append([tok.type.lower(), True])
        self.case_header = True

    # -- values

    def handle_var(self, tok: LexToken) -> None:
        self.touch_statement(callish=False)
        if tok.value in self.tk.inputs:
            self.emit("INPUT", tok.line)
            self.consume_accessors(emit_inner=False)
        else:
            self.emit(self.var_token(tok.value), tok.line)
            self.consume_accessors(emit_inner=True)

    def consume_accessors(self, emit_inner: bool) -> None:
        """Swallow [ ... ] accessor groups following a variable.

        An ordinary access collapses onto the base name, though variables
        used inside the index expression still surface; an entry-point
        access is one INPUT and its index is dropped entirely.
        """
        while self.peek() is not None and self.peek().type == "LBRACKET":
            self.i += 1
            depth = 1
            while depth and self.i < len(self.tokens):
                inner = self.tokens[self.i]
                self.i += 1
                if inner.type == "LBRACKET":
                    depth += 1
                elif inner.type == "RBRACKET":
                    depth -= 1
                elif emit_inner and inner.type == "VAR":
                    if inner.value in self.tk.inputs:
                        self.emit("INPUT", inner.line)
                    else:
                        self.emit(self.var_token(inner.value), inner.line)
            if depth:
                raise StructureError(f"{self.path}: unterminated array access")

    def handle_call_name(self, tok: LexToken) -> None:
        self.touch_statement(callish=True)
        name = "isset" if tok.type == "ISSET" else tok.value
        task = self.tk.function_token(name)
        if task is not None:
            self.emit(task, tok.line)
        else:
            self.emit(self.func_token(name), tok.line)

    def handle_string(self, tok: LexToken) -> None:
        self.touch_statement(callish=False)
        value = tok.value
        if (
            not self.rules.split_string_interpolation
            or not value.startswith('"')
            or "$" not in value
        ):
            self.emit("STRING", tok.line)
            return
        body = value[1:-1]
        parts: list[tuple[str, str]] = []
        pos = 0
        for m in _INTERP.finditer(body):
            backslashes = 0
            j = m.start() - 1
            while j >= 0 and body[j] == "\\":
                backslashes += 1
                j -= 1
            if backslashes % 2 == 1:
                continue  # escaped dollar, plain text
            if m.start() > pos:
                parts.append(("str", body[pos:m.start()]))
            parts.append(("var", "$" + (m.group("braced") or m.group("plain"))))
            pos = m.end()
        if not any(kind == "var" for kind, _ in parts):
            self.emit("STRING", tok.line)
            return
        if pos < len(body):
            parts.append(("str", body[pos:]))
        for kind, name in parts:
            if kind == "str":
                self.emit("STRING", tok.line)
            elif name in self.tk.inputs:
                self.emit("INPUT", tok.line)
            else:
                self.emit(self.var_token(name), tok.line)

    def peek(self) -> LexToken | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None


def translate(
    tokens: list[LexToken],
    rules: RuleSet,
    tk: TaskKnowledge,
    path: str = "<string>",
) -> tuple[list[ITLToken], TranslationContext]:
    """Translate one file's LexTokens into the intermediate token language.

    Returns the token stream and the developer-side TranslationContext.
    """
    tr = _Translator(rules, tk, path)
    tr.run(tokens)
    out = tr.out
    # An else keyword alone on its line belongs to the branch body it opens;
    # attributing it forward keeps every emitted line closed by an ending
    # token without inventing a closing event for the keyword itself.
    for i, tok in enumerate(out[:-1]):
        if tok.token == "ELSE" and out[i + 1].line != tok.line:
            tok.line = out[i + 1].line
    return out, tr.ctx


def dump_itl(tokens: list[ITLToken]) -> str:
    """Render ITL tokens grouped per line: (VAR0,1)(OP0,1)(INPUT,1)..."""
    lines: dict[int, list[str]] = {}
    for t in tokens:
        lines.setdefault(t.line, []).append(f"({t.token},{t.line})")
    return "\n".join("".join(parts) for _, parts in sorted(lines.items()))
